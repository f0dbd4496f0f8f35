package heap

import (
	"slices"
	"time"

	"objectswap/internal/obs"
)

// CollectStats reports the outcome of one collection pass.
type CollectStats struct {
	// Live is the number of objects that survived the pass.
	Live int
	// Reclaimed is the number of objects swept.
	Reclaimed int
	// BytesFreed is the accounted memory returned to the budget.
	BytesFreed int64
	// Swept lists the reclaimed objects (nil when nothing was reclaimed),
	// detached but with their fields intact: the heap's one report of what it
	// reclaimed, from which table owners purge exactly what they recorded. The
	// order is the heap's resident list, a function of the heap's history of
	// allocations, installs and reclamations, so two heaps built by the same
	// sequence of calls sweep the same objects in the same order.
	//
	// Swept, the list and the objects in it, is valid until the next
	// collection. The list is a buffer the heap reuses, and that collection
	// gives the blocks of the swap-cluster-proxies in it back to the
	// allocator, which reissues them under fresh ids.
	Swept []*Object
}

// Collect runs one stop-the-world mark-sweep cycle. Liveness roots are: named
// heap roots, pinned objects, nursery objects still in their grace, and any
// extra ids supplied by the caller (the swapping runtime passes the receivers
// and arguments of in-flight invocations, standing in for thread stacks).
func (h *Heap) Collect(extra ...ObjID) CollectStats {
	return h.CollectCycles(1, extra...)
}

// CollectCycles runs one mark-sweep pass whose survivors, nursery state and
// swept ids equal those of `cycles` back-to-back Collect calls on a
// heap nothing else touches in between: a nursery entry whose grace would
// run out before the last of those cycles is not a root, and every surviving
// entry ages by `cycles`. The equivalence holds because each cycle's live set
// contains the next one's, so whatever the earlier cycles would have freed
// the last one frees too. It counts as one collection.
//
// The mark phase resolves each reference with one probe of the heap's
// open-addressed object index, and the sweep walks the dense list of
// residents, so a pass costs one probe per reference followed plus one step
// per resident object, and no Go map is hashed per object. It starts by
// moving the previous pass's swept swap-cluster-proxies to the pool newObject
// reissues from. The pass allocates only to grow the Swept buffer, to the
// largest count any pass has reclaimed, and the pool, to the peak proxy
// residency: marks are a per-object epoch word, and the work list, the
// buffer and the pool live on the heap, all guarded by h.mu.
func (h *Heap) CollectCycles(cycles int, extra ...ObjID) CollectStats {
	if cycles < 1 {
		cycles = 1
	}
	h.mu.Lock()

	gcClock, gcSeconds, gcFreed := h.gcClock, h.gcSeconds, h.gcFreed
	var began time.Time
	if gcClock != nil {
		began = gcClock.Now()
	}

	h.recycle()
	h.epoch++
	if h.epoch == 0 {
		// The epoch word wrapped. Clear every mark, so that no mark left by
		// an earlier pass equals an epoch to come and hides a live subgraph,
		// and skip 0: it is the mark of an object no pass has seen yet.
		for _, o := range h.objects.list {
			o.mark = 0
		}
		h.epoch = 1
	}
	for _, v := range h.roots {
		h.markValue(&v)
	}
	for id := range h.pins {
		h.markID(id)
	}
	for id, grace := range h.nursery {
		if grace >= cycles {
			h.markID(id)
		}
	}
	for _, id := range extra {
		h.markID(id)
	}
	for n := len(h.work); n > 0; n = len(h.work) {
		o := h.work[n-1]
		h.work[n-1] = nil
		h.work = h.work[:n-1]
		for i := range o.fields {
			h.markValue(&o.fields[i])
		}
	}

	var st CollectStats
	dead := 0
	for _, o := range h.objects.list {
		if o.mark != h.epoch {
			dead++
		}
	}
	if dead > 0 {
		if cap(h.swept) < dead {
			h.swept = make([]*Object, 0, dead)
		}
		for _, o := range h.objects.list {
			if o.mark != h.epoch {
				h.swept = append(h.swept, o)
			}
		}
		for _, o := range h.swept {
			h.reclaimLocked(o.id, &st)
		}
		st.Swept = h.swept
	}
	for id, grace := range h.nursery {
		if grace <= cycles {
			delete(h.nursery, id)
		} else {
			h.nursery[id] = grace - cycles
		}
	}
	st.Live = len(h.objects.list)
	h.collections.Add(1)
	h.mu.Unlock()

	h.finishReclaim(&st, gcFreed)
	if gcClock != nil {
		gcSeconds.Observe(gcClock.Now().Sub(began).Seconds())
	}
	return st
}

// recycle ends the previous pass's Swept report: the blocks of its
// swap-cluster-proxies join the pool, and the buffer lets go of every entry
// so the Go collector may take the rest. Each free list grows at most once
// per pass, by append's rule for all its joiners together: the first growth
// is exact, a later one leaves headroom, so a pool that hovers near its peak
// is not copied again. The caller holds h.mu exclusively.
func (h *Heap) recycle() {
	var joining [maxInlineFields + 1]int
	for _, o := range h.swept {
		if pooled(o.class) {
			joining[len(o.fields)]++
		}
	}
	for n, k := range joining {
		h.free[n] = slices.Grow(h.free[n], k)
	}
	for i, o := range h.swept {
		if pooled(o.class) {
			n := len(o.fields)
			h.free[n] = append(h.free[n], o)
		}
		h.swept[i] = nil
	}
	h.swept = h.swept[:0]
}

// markID marks a resident object live and queues it for scanning. The caller
// holds h.mu.
func (h *Heap) markID(id ObjID) {
	o := h.objects.get(id)
	if o == nil || o.mark == h.epoch {
		return
	}
	o.mark = h.epoch
	h.work = append(h.work, o)
}

// markValue marks every object the value references, lists included.
func (h *Heap) markValue(v *Value) {
	switch v.kind {
	case KindRef:
		h.markID(ObjID(v.n))
	case KindList:
		elems := v.elems()
		for i := range elems {
			h.markValue(&elems[i])
		}
	}
}

// reclaimLocked unlinks one object from the heap's tables and tallies it in
// st; an id that is not resident is skipped. The caller holds h.mu and
// releases the bytes through finishReclaim afterwards.
func (h *Heap) reclaimLocked(id ObjID, st *CollectStats) {
	o := h.objects.del(id)
	if o == nil {
		return
	}
	st.Reclaimed++
	st.BytesFreed += o.Size()
	delete(h.pins, o.id)
	delete(h.nursery, o.id)
}

// finishReclaim settles a reclamation outside h.mu: the bytes go back to the
// budget.
func (h *Heap) finishReclaim(st *CollectStats, gcFreed *obs.Counter) {
	h.reclaimed.Add(uint64(st.Reclaimed))
	h.release(st.BytesFreed)
	gcFreed.Add(float64(st.BytesFreed))
}

// Free reclaims exactly the given objects in one critical section, as a
// collection that found them (and nothing else) unreachable would: their
// bytes return to the budget before Free returns. Ids that are not resident
// are skipped. Its result lists nothing as Swept: the caller named it. The
// swapping runtime calls it when a swap-out commits — the shipped members are
// unreachable by construction, so there is nothing for a mark phase to
// decide. It is not a collection cycle: the nursery does not age.
func (h *Heap) Free(ids []ObjID) CollectStats {
	var st CollectStats
	h.mu.Lock()
	for _, id := range ids {
		h.reclaimLocked(id, &st)
	}
	st.Live = len(h.objects.list)
	gcFreed := h.gcFreed
	h.mu.Unlock()
	h.finishReclaim(&st, gcFreed)
	return st
}

// ReachableFrom computes the set of resident objects transitively reachable
// from the given seed references. It is a read-only traversal used by tests
// and by the swapping manager's detachment-completeness checks.
func (h *Heap) ReachableFrom(seeds ...ObjID) map[ObjID]bool {
	h.mu.RLock()
	defer h.mu.RUnlock()

	marked := make(map[ObjID]bool)
	var stack []*Object
	push := func(id ObjID) {
		if id == NilID || marked[id] {
			return
		}
		o := h.objects.get(id)
		if o == nil {
			return
		}
		marked[id] = true
		stack = append(stack, o)
	}
	for _, id := range seeds {
		push(id)
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o.forEachRef(push)
	}
	return marked
}

// ReachableFromRoots computes the set of objects reachable from the
// application roots only (no pins, no middleware stacks): the application's
// view of liveness.
func (h *Heap) ReachableFromRoots() map[ObjID]bool {
	h.mu.RLock()
	var seeds []ObjID
	for _, v := range h.roots {
		v.forEachRef(func(id ObjID) { seeds = append(seeds, id) })
	}
	h.mu.RUnlock()
	return h.ReachableFrom(seeds...)
}
