package core

import "context"

// SwapOption tunes one SwapOut / SwapIn call. The zero set of options keeps
// the historical behavior: no deadline, registry-selected device, failover
// across devices enabled.
type SwapOption func(*swapOpts)

type swapOpts struct {
	ctx        context.Context
	device     string
	noFailover bool
	replicas   int
	cause      string
}

// Fault causes: why a swap happened. They label SwapEvent.Cause and the
// objectswap_fault_seconds{cause} histograms. When no WithCause is given,
// the runtime attributes the swap to the evictor while an eviction pass is
// in flight and to an explicit API call otherwise.
const (
	// CauseExplicit: a direct SwapOut/SwapIn/Evict API call.
	CauseExplicit = "explicit"
	// CauseEvictor: the allocation-pressure evictor freeing memory.
	CauseEvictor = "evictor-pressure"
	// CausePolicy: a policy-engine action fired by a rule.
	CausePolicy = "policy-action"
	// CauseReload: a demand fault — a dispatch touched a swapped cluster
	// and the runtime reloaded it implicitly.
	CauseReload = "reload"
	// CauseRepair: replica repair re-shipping a degraded cluster.
	CauseRepair = "repair"
	// CausePrefetch: the fault engine speculatively reloading a graph
	// neighbor of a demand-faulted cluster.
	CausePrefetch = "prefetch"
)

// WithCause attributes the swap to a cause (one of the Cause* constants) for
// fault-attribution telemetry. Internal callers tag implicit reloads, policy
// actions and repairs; external callers rarely need it.
func WithCause(cause string) SwapOption {
	return func(o *swapOpts) {
		if cause != "" {
			o.cause = cause
		}
	}
}

// WithContext runs the swap under ctx: device operations observe its
// deadline and cancellation, and the middleware state is left consistent
// when it ends first (a timed-out swap-out stays resident, a timed-out
// swap-in stays swapped).
func WithContext(ctx context.Context) SwapOption {
	return func(o *swapOpts) {
		if ctx != nil {
			o.ctx = ctx
		}
	}
}

// WithDevice pins the swap-out destination to a named device instead of the
// registry's selection. A pinned shipment does not fail over.
func WithDevice(name string) SwapOption {
	return func(o *swapOpts) { o.device = name }
}

// WithNoFailover disables multi-device failover: the swap-out fails if the
// selected device rejects the shipment, as in the pre-resilience API. Under
// replication it confines the shipment to the top-K ranked donors (a
// rejection is not replaced by the next candidate).
func WithNoFailover() SwapOption {
	return func(o *swapOpts) { o.noFailover = true }
}

// WithReplicas overrides the replication factor K for one swap-out: the
// payload ships to the top K rendezvous-ranked donors and commits once a
// majority accepted it. k < 1 falls back to the runtime default. Ignored by
// pinned (WithDevice) shipments, which always write exactly one copy.
func WithReplicas(k int) SwapOption {
	return func(o *swapOpts) {
		if k > 0 {
			o.replicas = k
		}
	}
}

// resolveSwapOpts folds the options into the operation's context and the
// shipment constraints. No options build no options struct: one an option
// writes to lives on the heap.
func resolveSwapOpts(opts []SwapOption) swapOpts {
	if len(opts) == 0 {
		return causedBy("")
	}
	o := causedBy("")
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// causedBy is the resolution of WithCause(cause) alone, for the runtime's
// own reloads.
func causedBy(cause string) swapOpts {
	return swapOpts{ctx: context.Background(), cause: cause}
}
