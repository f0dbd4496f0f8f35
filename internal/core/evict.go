package core

import "errors"

// EvictWith frees at least need bytes, ranking victims under strategy (0
// selects VictimColdest); it is the runtime's one eviction entry point —
// install it with SetEvictor through a closure, or let the policy engine
// drive finer-grained decisions. Progress is measured against actual heap
// occupancy, so middleware allocations made by the eviction itself
// (replacement-objects, proxies) are accounted honestly. A pass costs one
// collection plus O(victim) per swap-out: garbage is tried first, in a
// single pressure collection that also burns the nursery grace of
// pressureCycles ordinary cycles and costs one object-index probe per
// reference it follows plus one step per resident object (see
// heap.CollectCycles), and each victim's bytes are back the moment
// its swap-out commits, so occupancy is re-read after every swap without
// collecting again. Victims are ranked once and walked in order (see
// SwapOutVictims); a fresh ranking happens only when the list is exhausted
// and the target is still unmet.
func (rt *Runtime) EvictWith(strategy VictimStrategy, need int64) error {
	if strategy == 0 {
		strategy = VictimColdest
	}
	target := rt.h.Used() - need
	if rt.h.Used() > target {
		rt.collect(pressureCycles)
	}
	met := func(int) bool { return rt.h.Used() <= target }
	for rt.h.Used() > target {
		swapped, err := rt.SwapOutVictims(strategy, met)
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
// them out one at a time in that order — skipping clusters that turn out to
// be active, busy, emptied or already swapped — until enough, called with the
// number swapped so far, reports that no further victim is wanted. It is the
// one victim walk behind the evictor and the policy engine's swap-out action,
// and it stops at the first hard failure. Each victim's swap-out holds the
// runtime's eviction mark (EvictingSince) while it runs. It returns how many
// clusters were swapped out.
func (rt *Runtime) SwapOutVictims(strategy VictimStrategy, enough func(swapped int) bool, opts ...SwapOption) (int, error) {
	swapped := 0
	for _, victim := range rt.mgr.SelectVictims(strategy) {
		if enough(swapped) {
			break
		}
		rt.beginEvict()
		_, err := rt.SwapOut(victim, opts...)
		rt.endEvict()
		if err == nil {
			swapped++
		} else if !skippableVictimErr(err) {
			return swapped, err
		}
	}
	return swapped, nil
}

// skippableVictimErr reports errors that disqualify one victim without
// failing the whole eviction: the cluster is in use, mid-transition on
// another goroutine, or no longer holds anything to swap.
func skippableVictimErr(err error) bool {
	return errors.Is(err, ErrClusterActive) || errors.Is(err, ErrClusterBusy) ||
		errors.Is(err, ErrClusterSwapped) || errors.Is(err, ErrClusterEmpty)
}
