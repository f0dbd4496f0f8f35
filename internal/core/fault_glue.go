package core

import (
	"errors"

	"objectswap/internal/fault"
)

// This file is the runtime's glue onto internal/fault: the public SwapIn
// wrapper that coalesces concurrent faults into one flight, the callbacks
// the prefetcher drives the runtime through, and the hit accounting invoked
// from the dispatch crossing site.

// WithPrefetch enables the graph-driven prefetcher: after every demand
// fault the fault engine speculatively swaps in the faulted cluster's top
// `depth` graph-neighbor clusters on `workers` background goroutines
// (workers <= 0 selects a small default). Speculative reloads go through
// the normal reserve/commit path and are gated by the admission guard (see
// Runtime.FaultEngine and fault.Engine.SetAdmit — the facade wires the
// memory monitor in there).
func WithPrefetch(depth, workers int) Option {
	return func(rt *Runtime) {
		rt.prefetchDepth = depth
		rt.prefetchWorkers = workers
	}
}

// FaultEngine exposes the runtime's asynchronous fault engine (always
// non-nil): coalescing/batching counters, the prefetch inventory snapshot,
// the admission-guard hook and Quiesce/Stop.
func (rt *Runtime) FaultEngine() *fault.Engine { return rt.faults }

// SwapIn reloads a swapped cluster through the fault engine's single-flight
// table: concurrent callers for the same cluster park on one in-flight
// fetch and all resume with its result, error included. A caller that
// arrives while a *prefetch* of the cluster is in flight joins that flight
// the same way instead of bouncing off ErrClusterBusy. See swapInDirect for
// the underlying phases and option semantics; a successful demand reload
// additionally triggers prefetch of the cluster's graph neighbors.
func (rt *Runtime) SwapIn(id ClusterID, opts ...SwapOption) (SwapEvent, error) {
	res, _, err := rt.faults.Do(uint32(id), func() (any, error) {
		ev, err := rt.swapInDirect(id, opts...)
		if err != nil {
			return nil, err
		}
		return ev, nil
	})
	if err != nil {
		return SwapEvent{}, err
	}
	ev, _ := res.(SwapEvent)
	if ev.Cause != CausePrefetch {
		rt.faults.TriggerPrefetch(uint32(id))
	}
	return ev, nil
}

// prefetchSwapIn is the fault.Config.SwapIn callback: one speculative
// background reload. It reports installed=false for every benign "nothing
// to do" outcome — the cluster is already resident, is reserved by a
// concurrent swap elsewhere, or this call merely joined a demand flight
// (whose install belongs to the demand fault, not the prefetcher).
func (rt *Runtime) prefetchSwapIn(cluster uint32) (int64, bool, error) {
	ev, err := rt.SwapIn(ClusterID(cluster), WithCause(CausePrefetch))
	if err != nil {
		if errors.Is(err, ErrClusterLoaded) || errors.Is(err, ErrClusterBusy) ||
			errors.Is(err, ErrClusterActive) || errors.Is(err, ErrUnknownCluster) {
			return 0, false, nil
		}
		return 0, false, err
	}
	if ev.Cause != CausePrefetch {
		return 0, false, nil
	}
	return int64(ev.Bytes), true, nil
}

// notePrefetchHit runs on the dispatch crossing site (reach) when the crossed-into
// cluster turned out to be resident: if the prefetcher put it there, the
// crossing consumes the inventory entry, reports the (map-lookup-cheap) hit
// latency to telemetry, and extends the speculation one hop further along
// the graph so a pointer chase stays ahead of the chaser. Without a
// prefetcher there is nothing to consume, and a resident crossing pays
// neither the clock nor the engine's lock.
func (rt *Runtime) notePrefetchHit(id ClusterID) {
	if rt.prefetchDepth <= 0 {
		return
	}
	start := rt.obsReg.Clock().Now()
	if _, ok := rt.faults.ConsumeHit(uint32(id)); !ok {
		return
	}
	rt.telem.RecordPrefetchHit(rt.obsReg.Clock().Now().Sub(start).Seconds())
	rt.faults.TriggerPrefetch(uint32(id))
}
