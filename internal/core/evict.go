package core

import "errors"

// EvictWith frees at least need bytes, ranking victims under strategy (0
// selects VictimColdest); it is the runtime's one eviction entry point —
// install it with SetEvictor through a closure, or let the policy engine
// drive finer-grained decisions. Progress is measured against actual heap
// occupancy, so middleware allocations made by the eviction itself
// (replacement-objects, proxies) are accounted honestly. A pass costs one
// collection plus O(victim) per swap-out: garbage is tried first, in a
// single young collection that traces and sweeps only what appeared since
// the previous pass (see heap.Heap.CollectYoung), and each victim's bytes
// are back the moment its swap-out commits, so occupancy is re-read after
// every swap without collecting again. Each walk gathers the candidates
// once and picks them best first, one at a time, only as long as the target
// is unmet (see SwapOutVictims); a fresh walk gathers them again only when
// one is exhausted and the target is still unmet. Garbage a
// previous pass had already marked is beyond a young pass: when no victim is
// left and the target is still unmet, one full pass (a Collect) looks for it
// before the eviction gives up.
func (rt *Runtime) EvictWith(strategy VictimStrategy, need int64) error {
	rt.lock()
	defer rt.unlock()
	if strategy == 0 {
		strategy = VictimColdest
	}
	target := rt.h.Used() - need
	if rt.h.Used() > target {
		rt.pass(true) // young
	}
	met := func(int) bool { return rt.h.Used() <= target }
	full := false
	for rt.h.Used() > target {
		swapped, err := rt.swapOutVictims(strategy, met, causedBy(""))
		if err != nil {
			return err
		}
		if swapped == 0 {
			if !full {
				full = true
				rt.pass(false)
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
// failure; enough runs with the runtime lock held. Each victim's swap-out
// holds the runtime's eviction mark (EvictingSince) while it runs. It returns
// how many clusters were swapped out.
//
// The walk gathers the candidates, unsorted, in a buffer it borrows from the
// table until it ends, orders the buffer as a binary heap and pops one
// victim at a time, so a walk of k victims among n candidates costs
// O(n + k log n) comparisons, not a sort of all n; ids break every tie, so
// the victims come in exactly SelectVictims' order. A warm walk allocates
// nothing of its own.
func (rt *Runtime) SwapOutVictims(strategy VictimStrategy, enough func(swapped int) bool, opts ...SwapOption) (int, error) {
	rt.lock()
	defer rt.unlock()
	return rt.swapOutVictims(strategy, enough, resolveSwapOpts(opts))
}

// swapOutVictims is SwapOutVictims with the runtime lock held, which each
// victim's shipment lets go of.
func (rt *Runtime) swapOutVictims(strategy VictimStrategy, enough func(swapped int) bool, o swapOpts) (int, error) {
	tab := &rt.mgr.table
	candidates := rt.mgr.gatherVictims(strategy, tab.victims)
	tab.victims = nil
	defer func() { tab.keepVictims(candidates) }() // unless an overlapping walk put back a larger one

	heapifyVictims(candidates)
	swapped := 0
	for left := candidates; len(left) > 0 && !enough(swapped); {
		var victim victimRank
		victim, left = popVictim(left)
		rt.beginEvict()
		_, err := rt.swapOut(victim.id, o)
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
