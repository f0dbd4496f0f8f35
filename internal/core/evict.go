package core

import (
	"errors"
	"math"
	"sync"
)

// EvictOptions tunes an eviction pass.
type EvictOptions struct {
	// Strategy orders the victim candidates (default VictimColdest).
	Strategy VictimStrategy
	// Parallelism > 1 swaps out up to that many victims concurrently per
	// batch, overlapping cluster encoding with device shipment. 0 or 1 keeps
	// the sequential one-victim-at-a-time behavior.
	Parallelism int
}

// EvictWith frees at least need bytes under the given options; it is the
// runtime's one eviction entry point — install it with SetEvictor through a
// closure, or let the policy engine drive finer-grained decisions. Progress
// is measured against actual heap occupancy, so middleware allocations made
// by the eviction itself (replacement-objects, proxies) are accounted
// honestly. A pass costs one collection plus O(victim) per swap-out: garbage is tried first, in a
// single pressure collection that also burns the nursery grace of
// pressureCycles ordinary cycles, and each victim's bytes are back the moment
// its swap-out commits, so occupancy is re-read after every swap without
// collecting again. Victims are ranked once and walked in order (see
// SwapOutVictims); a fresh ranking happens only when the list is exhausted
// and the target is still unmet.
func (rt *Runtime) EvictWith(o EvictOptions, need int64) error {
	if o.Strategy == 0 {
		o.Strategy = VictimColdest
	}
	target := rt.h.Used() - need
	if rt.h.Used() > target {
		rt.collect(pressureCycles)
	}
	unmet := func(int) int {
		if rt.h.Used() <= target {
			return 0
		}
		return math.MaxInt
	}
	for rt.h.Used() > target {
		swapped, err := rt.SwapOutVictims(o.Strategy, o.Parallelism, unmet)
		if err != nil {
			return err
		}
		if swapped == 0 {
			return errors.New("core: no cluster left to evict (none loaded, or all active)")
		}
	}
	return nil
}

// SwapOutVictims ranks the eligible clusters once under strategy and swaps
// them out in that order — skipping clusters that turn out to be active,
// busy, emptied or already swapped — for as long as more, called with the
// number swapped so far, reports that further victims are wanted. It is the
// one victim walk behind the evictor and the policy engine's swap-out
// action. With parallelism > 1 the victims ship in batches of at most that
// width (and never more than more asks for) through SwapOutMany. It returns
// how many clusters were swapped out.
func (rt *Runtime) SwapOutVictims(strategy VictimStrategy, parallelism int, more func(swapped int) int, opts ...SwapOption) (int, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	victims := rt.mgr.SelectVictims(strategy)
	swapped := 0
	for start := 0; start < len(victims); {
		width := more(swapped)
		if width <= 0 {
			break
		}
		if width > parallelism {
			width = parallelism
		}
		if width > len(victims)-start {
			width = len(victims) - start
		}
		batch := victims[start : start+width]
		start += width
		releases := make([]func(), len(batch))
		for i, v := range batch {
			releases[i] = rt.beginShardEvict(v)
		}
		n, err := rt.swapOutBatch(batch, opts)
		for _, release := range releases {
			release()
		}
		swapped += n
		if err != nil {
			return swapped, err
		}
	}
	return swapped, nil
}

// swapOutBatch swaps out one batch of ranked victims and reports how many
// were shipped; a victim that turns out ineligible is skipped, not an error.
// A single victim runs on the caller's goroutine, several share a worker
// pool as wide as the batch.
func (rt *Runtime) swapOutBatch(batch []ClusterID, opts []SwapOption) (int, error) {
	if len(batch) > 1 {
		evs, err := rt.SwapOutMany(batch, len(batch), opts...)
		return len(evs), err
	}
	if _, err := rt.SwapOut(batch[0], opts...); err != nil {
		if skippableVictimErr(err) {
			return 0, nil
		}
		return 0, err
	}
	return 1, nil
}

// skippableVictimErr reports errors that disqualify one victim without
// failing the whole eviction: the cluster is in use, mid-transition on
// another goroutine, or no longer holds anything to swap.
func skippableVictimErr(err error) bool {
	return errors.Is(err, ErrClusterActive) || errors.Is(err, ErrClusterBusy) ||
		errors.Is(err, ErrClusterSwapped) || errors.Is(err, ErrClusterEmpty)
}

// SwapOutMany swaps out the given clusters through a bounded worker pool of
// the given width. Each worker snapshots and encodes its victim, then ships
// it; because only the snapshot and commit phases serialize, the encode of
// one cluster overlaps the device transfer of another — the paper's 700 Kbps
// link stays busy while the CPU renders the next shipment.
//
// Clusters that are active, busy, already swapped or empty are skipped. The
// returned events cover the clusters actually shipped, in input order; the
// first hard failure is returned after all workers finish.
//
// Dispatch is scheduled per shard: the victims are interleaved round-robin
// across their swap shards, so when one shard's commit holds up a worker the
// next dispatched victim lands on a different shard instead of queueing
// behind its sibling.
func (rt *Runtime) SwapOutMany(ids []ClusterID, parallelism int, opts ...SwapOption) ([]SwapEvent, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > len(ids) {
		parallelism = len(ids)
	}
	sem := make(chan struct{}, parallelism)
	events := make([]*SwapEvent, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for _, i := range rt.interleaveByShard(ids) {
		id := ids[i]
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, id ClusterID) {
			defer wg.Done()
			defer func() { <-sem }()
			ev, err := rt.SwapOut(id, opts...)
			if err != nil {
				if !skippableVictimErr(err) {
					errs[i] = err
				}
				return
			}
			events[i] = &ev
		}(i, id)
	}
	wg.Wait()
	out := make([]SwapEvent, 0, len(ids))
	for _, ev := range events {
		if ev != nil {
			out = append(out, *ev)
		}
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
