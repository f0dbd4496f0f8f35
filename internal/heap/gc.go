package heap

import (
	"slices"
	"time"
)

// CollectStats reports the outcome of one collection pass, full or young.
// A young pass (CollectYoung) reports the young garbage it found: a subset of
// what a full pass at the same point would have reported.
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
	// Swept, the list and the objects in it, is valid until the owner gives
	// the report back with PoolSwept, in the hold that ran the collection:
	// from then on the blocks of the pooled objects in it (swap-cluster-proxies
	// and replacement-objects, see pooled) may be reissued under fresh ids by
	// the next allocation. The list is a buffer the heap reuses, and the next
	// collection clears it.
	Swept []*Object
}

// Collect runs one stop-the-world mark-sweep cycle over the whole heap (a
// full pass). Liveness roots are: named heap roots, pinned objects, nursery
// objects still in their grace, and any extra ids supplied by the caller (the
// swapping runtime passes the receivers and arguments of in-flight
// invocations, standing in for thread stacks).
func (h *Heap) Collect(extra ...ObjID) CollectStats {
	return h.collect(1, false, extra)
}

// CollectCycles runs one full mark-sweep pass whose survivors, nursery state
// and swept ids equal those of `cycles` back-to-back Collect calls on a
// heap nothing else touches in between: a nursery entry whose grace would
// run out before the last of those cycles is not a root, and every surviving
// entry ages by `cycles`. The equivalence holds because each cycle's live set
// contains the next one's, so whatever the earlier cycles would have freed
// the last one frees too. It counts as one collection.
//
// The mark phase resolves each reference with one probe of the heap's
// open-addressed object index, and the sweep walks the dense list of
// residents, so a pass costs one probe per reference followed plus one step
// per resident object, and no Go map is hashed per object. The pass
// allocates only to grow the Swept buffer, to the largest count any pass has
// reclaimed: marks are a per-object epoch word, and the work list and the
// buffer live on the heap.
func (h *Heap) CollectCycles(cycles int, extra ...ObjID) CollectStats {
	return h.collect(cycles, false, extra)
}

// CollectYoung runs a young pass: CollectCycles' nursery aging, pins and
// extra roots, but it traces only what appeared since the previous pass and
// sweeps only what it did not reach. Marks are sticky: an object a pass
// marked is old, keeps its mark, and counts as marked here, so the trace
// stops at it and the sweep keeps it. Besides the pins, the nursery entries
// still in grace and extra, its roots are what may name a young object
// without an old path to it: the young objects a write stored into an old
// object or a root since the previous pass (the write barrier in setField
// and SetRoot remembers them), and the fields of the batches InstallBatch
// made resident since then, whose members are born old because older
// objects may already name their ids. An unchanged root names an old object
// or nothing, since an id is never reissued to a new object.
//
// So a young pass never sweeps a reachable object, and it sweeps a subset of
// what CollectCycles would: garbage that a pass had already marked (an old
// object dropped since) waits for a full pass. Its cost is one probe per
// reference it follows from those roots plus one step per resident object in
// the sweep. When the remembered young objects or the installed batches
// since the previous pass would outnumber the residents, it runs as a full
// pass instead. Either way it counts as one collection.
func (h *Heap) CollectYoung(cycles int, extra ...ObjID) CollectStats {
	return h.collect(cycles, true, extra)
}

// collect is the one mark-sweep pass behind CollectCycles and CollectYoung.
// A full pass advances the epoch, which unmarks every object, and marks from
// every root; a young pass keeps the epoch and marks from the remembered set
// instead of the roots. The trace, the sweep and the nursery's aging are the
// same code for both.
func (h *Heap) collect(cycles int, young bool, extra []ObjID) CollectStats {
	h.held()
	if cycles < 1 {
		cycles = 1
	}
	var began time.Time
	if h.gcClock != nil {
		began = h.gcClock.Now()
	}

	h.recycle()
	if young && !h.overflowed {
		for _, id := range h.remembered {
			h.markID(id)
		}
		for _, batch := range h.installs {
			for i := range batch {
				if o := &batch[i]; o.pos != gone {
					h.markFields(o)
				}
			}
		}
	} else {
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
	}
	clear(h.installs)
	h.remembered, h.installs, h.overflowed = h.remembered[:0], h.installs[:0], false
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
		h.markFields(o)
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
			h.unlink(o.id, &st)
		}
		st.Swept, h.unpooled = h.swept, true
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
	h.finishReclaim(&st)
	if h.gcClock != nil {
		h.gcSeconds.Observe(h.gcClock.Now().Sub(began).Seconds())
	}
	return st
}

// recycle clears the previous pass's Swept report: the buffer lets go of
// every entry, so the Go collector may take what the pool did not.
func (h *Heap) recycle() {
	clear(h.swept)
	h.swept, h.unpooled = h.swept[:0], false
}

// PoolSwept gives the latest collection's report back (CollectStats.Swept):
// the blocks of the pooled objects in it join the pool newObject reissues
// from. The owner calls it once it has purged every record of what the
// collection swept, before its hold of the lock ends, so the pool never
// waits a collection for them; after it a reported object is a name for
// nothing, as the next allocation may reissue its block. A second call for
// the same report pools nothing, and a report the owner never gives back is
// cleared by the next collection, its blocks left to the Go collector. Each
// free list grows at most once per call, by append's rule for all its
// joiners together: the first growth is exact, a later one leaves headroom,
// so a pool that hovers near its peak is not copied again.
func (h *Heap) PoolSwept() {
	h.held()
	if !h.unpooled {
		return
	}
	h.unpooled = false
	var joining [maxInlineFields + 1]int
	for _, o := range h.swept {
		if pooled(o.class) {
			joining[len(o.fields)]++
		}
	}
	for n, k := range joining {
		h.free[n] = slices.Grow(h.free[n], k)
	}
	for _, o := range h.swept {
		h.pool(o)
	}
}

// markID marks a resident object live and queues it for scanning.
func (h *Heap) markID(id ObjID) {
	o := h.objects.get(id)
	if o == nil || o.mark == h.epoch {
		return
	}
	o.mark = h.epoch
	h.work = append(h.work, o)
}

// markFields marks every object o's fields reference.
func (h *Heap) markFields(o *Object) {
	for i := range o.fields {
		h.markValue(&o.fields[i])
	}
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

// remember is the write barrier: once v is stored into an old object or a
// root, every young object it references joins the set the next young pass
// marks from. A target named twice in a row is listed once, so a run of
// proxies re-pointed at one replacement-object costs one entry. The set
// stops growing at the resident count and marks itself overflowed, and the
// next young pass runs as a full one.
func (h *Heap) remember(v *Value) {
	switch v.kind {
	case KindRef:
		o := h.objects.get(ObjID(v.n))
		if o == nil || o.mark == h.epoch {
			return
		}
		if n := len(h.remembered); !h.overflowed && (n == 0 || h.remembered[n-1] != o.id) {
			if n < len(h.objects.list) {
				h.remembered = append(h.remembered, o.id)
			} else {
				h.overflowed = true
			}
		}
	case KindList:
		elems := v.elems()
		for i := range elems {
			h.remember(&elems[i])
		}
	}
}

// unlink takes one object out of the heap's tables, tallies it in st and
// returns it; an id that is not resident is skipped (nil). The caller
// releases the bytes through finishReclaim afterwards.
func (h *Heap) unlink(id ObjID, st *CollectStats) *Object {
	o := h.objects.del(id)
	if o == nil {
		return nil
	}
	st.Reclaimed++
	st.BytesFreed += int64(o.size)
	delete(h.pins, o.id)
	delete(h.nursery, o.id)
	return o
}

// pool puts the block of a reclaimed object of a pooled class in the pool
// newObject reissues from; any other block is left to the Go collector.
func (h *Heap) pool(o *Object) {
	if pooled(o.class) {
		n := len(o.fields)
		h.free[n] = append(h.free[n], o)
	}
}

// finishReclaim settles a reclamation: the bytes go back to the budget.
func (h *Heap) finishReclaim(st *CollectStats) {
	h.reclaimed.Add(uint64(st.Reclaimed))
	h.release(st.BytesFreed)
	h.gcFreed.Add(float64(st.BytesFreed))
}

// Free reclaims exactly the given objects in one critical section, as a
// collection that found them (and nothing else) unreachable would: their
// bytes return to the budget before Free returns. Ids that are not resident
// are skipped. Its result lists nothing as Swept: the caller named it, and
// the block of a pooled object among them (see pooled) joins the pool at
// once, so the caller lets go of it. The swapping runtime calls it when a
// swap-out commits — the shipped members are unreachable by construction, so
// there is nothing for a mark phase to decide — and when a swap-in commits,
// for the replacement-object it retired. It is not a collection cycle: the
// nursery does not age.
func (h *Heap) Free(ids []ObjID) CollectStats {
	h.held()
	var st CollectStats
	for _, id := range ids {
		if o := h.unlink(id, &st); o != nil {
			h.pool(o)
		}
	}
	st.Live = len(h.objects.list)
	h.finishReclaim(&st)
	return st
}

// ReachableFrom computes the set of resident objects transitively reachable
// from the given seed references. It is a read-only traversal used by tests
// and by the swapping manager's detachment-completeness checks.
func (h *Heap) ReachableFrom(seeds ...ObjID) map[ObjID]bool {
	h.held()
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
	var seeds []ObjID
	for _, v := range h.roots {
		v.forEachRef(func(id ObjID) { seeds = append(seeds, id) })
	}
	return h.ReachableFrom(seeds...)
}
