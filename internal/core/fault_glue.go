package core

import (
	"errors"
	"time"

	"objectswap/internal/fault"
)

// This file is the runtime's glue onto internal/fault: the public SwapIn
// wrapper that coalesces concurrent faults into one flight, the callbacks
// the prefetcher drives the runtime through, and the hit accounting invoked
// from the dispatch crossing site.

// WithPrefetch enables the graph-driven prefetcher: every demand fault and
// every join of a prefetch's flight as it arrives, before its own read, and
// every resident crossing the prefetcher served, keeps the next `depth`
// clusters along the replacement-object graph in flight on `workers`
// background goroutines (workers <= 0 selects a small default). Speculative
// reloads go through the normal reserve/commit path and are gated by the
// admission guard (see Runtime.FaultEngine and fault.Engine.SetAdmit — the
// facade wires the memory monitor in there).
func WithPrefetch(depth, workers int) Option {
	return func(rt *Runtime) {
		rt.prefetchDepth = depth
		rt.prefetchWorkers = workers
	}
}

// FaultEngine exposes the runtime's asynchronous fault engine (always
// non-nil): coalescing counters, the prefetch inventory snapshot, the
// admission-guard hook and Quiesce/Stop.
func (rt *Runtime) FaultEngine() *fault.Engine { return rt.faults }

// PrefetchWindow is cluster's prefetch window right now: at most k clusters,
// best first, walked as a fault's trigger walks it (fault.Engine.Rank), under
// the runtime lock. GET /debug/prefetch serves it.
func (rt *Runtime) PrefetchWindow(cluster uint32, k int) []uint32 {
	rt.lock()
	defer rt.unlock()
	return rt.faults.Rank(cluster, k)
}

// SwapIn reloads a swapped cluster through the fault engine's single-flight
// table: concurrent callers for the same cluster park on one in-flight
// fetch and all resume with its result, error included. A caller that
// arrives while a *prefetch* of the cluster is in flight joins that flight
// the same way instead of bouncing off ErrClusterBusy, and the join is that
// prefetch's hit. See swapInDirect for the underlying phases and option
// semantics; a fault that is no prefetch slides the prefetch window along the
// graph as it arrives, before it reads or joins.
func (rt *Runtime) SwapIn(id ClusterID, opts ...SwapOption) (SwapEvent, error) {
	rt.lock()
	defer rt.unlock()
	return rt.swapInWith(id, resolveSwapOpts(opts))
}

// swapInWith is SwapIn with its options resolved and the runtime lock held,
// the entry of a demand reload, which carries its cause without building an
// option. The window slides here, under the lock, so its reads go out beside
// this fault's own; nothing slides it again when the flight ends. The flight
// runs with the lock released: a join parks until its leader, perhaps a
// prefetch worker that needs the lock to install, is done.
func (rt *Runtime) swapInWith(id ClusterID, o swapOpts) (SwapEvent, error) {
	var parked time.Time // when a join, the one kind of fault that may be a hit, began to wait
	if rt.prefetchDepth > 0 {
		parked = rt.obsReg.Clock().Now()
		if o.cause != CausePrefetch {
			rt.faults.TriggerPrefetch(uint32(id))
		}
	}
	var ev SwapEvent
	var leader bool
	var err error
	rt.unlocked(func() { ev, leader, err = rt.swapInOnce(id, o) })
	if err != nil {
		return SwapEvent{}, err
	}
	if !leader && ev.Cause == CausePrefetch {
		rt.prefetchHit(id, parked)
	}
	return ev, nil
}

// swapInOnce runs swapInDirect as the cluster's one flight; leader reports
// whether this call ran it or joined the flight already open. Leader and
// waiters read their SwapEvent out of the one box swapInDirect made. The
// caller does not hold the runtime lock: the leader takes it for its flight.
func (rt *Runtime) swapInOnce(id ClusterID, o swapOpts) (SwapEvent, bool, error) {
	res, leader, err := rt.faults.Do(uint32(id), func() (any, error) {
		rt.lock()
		defer rt.unlock()
		return rt.swapInDirect(id, o)
	})
	if err != nil {
		return SwapEvent{}, leader, err
	}
	ev, _ := res.(SwapEvent)
	return ev, leader, nil
}

// prefetchSwapIn is the fault.Config.SwapIn callback: one speculative
// background reload, on a worker holding no runtime lock. It is no demand
// fault, so it neither slides the window nor takes a hit. It reports
// installed=false for every benign "nothing to do" outcome — the cluster is
// already resident, is reserved by a concurrent swap elsewhere, or this call
// merely joined a demand flight (whose install belongs to the demand fault).
func (rt *Runtime) prefetchSwapIn(cluster uint32) (bool, error) {
	ev, _, err := rt.swapInOnce(ClusterID(cluster), causedBy(CausePrefetch))
	if err != nil {
		if errors.Is(err, ErrClusterLoaded) || errors.Is(err, ErrClusterBusy) ||
			errors.Is(err, ErrClusterActive) || errors.Is(err, ErrUnknownCluster) {
			return false, nil
		}
		return false, err
	}
	return ev.Cause == CausePrefetch, nil
}

// notePrefetchHit runs on the dispatch crossing site (reach) when the
// crossed-into cluster turned out to be resident. If the prefetcher put it
// there, the crossing is the hit, the walker waited for nothing, and the
// window slides on from its arrival, so a pointer chase stays ahead of the
// chaser. Without a prefetcher there is nothing to consume, and a resident
// crossing pays neither the engine's lock nor, with one, the clock.
func (rt *Runtime) notePrefetchHit(id ClusterID) {
	if rt.prefetchDepth > 0 && rt.prefetchHit(id, time.Time{}) {
		rt.faults.TriggerPrefetch(uint32(id))
	}
}

// prefetchHit consumes cluster id's inventory entry, if the prefetcher left
// one, and records how long the walker parked for it as a prefetch-hit fault:
// zero when it was already resident, the rest of the flight for a join that
// began parking at parked. It reports whether the crossing was the hit; it
// slides no window, since the caller's arrival did or does that. A resident
// crossing never reads the clock; a join reads the registry clock only when
// it is the hit. The caller holds the runtime lock.
func (rt *Runtime) prefetchHit(id ClusterID, parked time.Time) bool {
	if _, ok := rt.faults.ConsumeHit(uint32(id)); !ok {
		return false
	}
	var waited time.Duration
	if !parked.IsZero() {
		waited = rt.obsReg.Clock().Now().Sub(parked)
	}
	rt.telem.RecordPrefetchHit(waited.Seconds())
	return true
}
