package core

import "errors"

// EvictWith frees at least need bytes, ranking victims under strategy (0
// selects VictimColdest); it is the runtime's one eviction entry point —
// install it with SetEvictor through a closure, or let the policy engine
// drive finer-grained decisions. Progress is measured against actual heap
// occupancy, so middleware allocations made by the eviction itself
// (replacement-objects, proxies) are accounted honestly. A pass costs one
// collection plus O(victim) per swap-out: garbage is tried first, in a
// single young collection that also burns the nursery grace of
// pressureCycles ordinary cycles and traces and sweeps only what appeared
// since the previous pass (see heap.CollectYoung), and each victim's bytes
// are back the moment its swap-out commits, so occupancy is re-read after
// every swap without collecting again. The candidates are ranked once per
// walk and walked in order (see SwapOutVictims); a fresh walk ranks them
// again only when one is exhausted and the target is still unmet. Garbage a
// previous pass had already marked is beyond a young pass: when no victim is
// left and the target is still unmet, one full pass (a Collect) looks for it
// before the eviction gives up.
func (rt *Runtime) EvictWith(strategy VictimStrategy, need int64) error {
	if strategy == 0 {
		strategy = VictimColdest
	}
	target := rt.h.Used() - need
	if rt.h.Used() > target {
		rt.collectYoung()
	}
	met := func(int) bool { return rt.h.Used() <= target }
	full := false
	for rt.h.Used() > target {
		swapped, err := rt.SwapOutVictims(strategy, met)
		if err != nil {
			return err
		}
		if swapped == 0 {
			if !full {
				full = true
				rt.Collect()
				continue
			}
			return errors.New("core: no cluster left to evict (none loaded, or all active)")
		}
	}
	return nil
}

// SwapOutVictims swaps the eligible clusters out one at a time in the order
// SelectVictims ranks them under strategy — skipping clusters that turn out
// to be active, busy, emptied or already swapped, none of them retried —
// until enough, called with the number swapped so far, reports that no
// further victim is wanted. It is the one victim walk behind the evictor and
// the policy engine's swap-out action, and it stops at the first hard
// failure. Each victim's swap-out holds the runtime's eviction mark
// (EvictingSince) while it runs. It returns how many clusters were swapped
// out.
//
// The walk ranks the candidates under one hold of the table lock in a buffer
// it borrows from the table until it ends, and walks that buffer in order: a
// warm walk allocates nothing of its own.
func (rt *Runtime) SwapOutVictims(strategy VictimStrategy, enough func(swapped int) bool, opts ...SwapOption) (int, error) {
	tab := &rt.mgr.table
	tab.mu.Lock()
	ranked := rt.mgr.rankVictims(strategy, tab.victims)
	tab.victims = nil
	tab.mu.Unlock()
	defer func() {
		tab.mu.Lock()
		tab.keepVictims(ranked) // unless an overlapping walk put back a larger one
		tab.mu.Unlock()
	}()

	swapped := 0
	for _, victim := range ranked {
		if enough(swapped) {
			break
		}
		rt.beginEvict()
		_, err := rt.SwapOut(victim.id, opts...)
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
