package heap

import (
	"slices"
	"time"
)

// CollectStats reports the outcome of one collection pass, full or young.
// A young pass (CollectYoung) reports the young garbage it found: a subset of
// what a full pass at the same point would have reported. What a pass swept
// is told to the heap's owner alone, in the pass (Owner.Purge).
type CollectStats struct {
	// Live is the number of objects that survived the pass.
	Live int
	// Reclaimed is the number of objects swept.
	Reclaimed int
	// BytesFreed is the accounted memory returned to the budget.
	BytesFreed int64
}

// Collect runs one stop-the-world mark-sweep cycle over the whole heap (a
// full pass). Liveness roots are: named heap roots, pinned objects, and the
// owner's roots (Owner.Roots: the swapping runtime's invocation stack,
// standing in for thread stacks, and the references it handed to host code).
// Before it returns, the pass tells its owner what it swept (Owner.Purge) and
// only then gives the swept blocks of the pooled classes to the pool, so
// whoever reaches a collection, the owner's records of a swept object are
// gone before its block is reissued.
//
// The mark phase resolves each reference with one probe of the heap's
// open-addressed object index, and the sweep walks the dense list of
// residents, so a full pass costs one probe per reference followed plus one
// step per resident object, and no Go map is hashed per object. The pass
// allocates only to grow the sweep buffer, to the largest count any pass has
// reclaimed, and the pool: marks are a per-object epoch word, and the work
// list and the buffer live on the heap.
func (h *Heap) Collect() CollectStats {
	return h.collect(false)
}

// CollectYoung runs a young pass: Collect's pins, owner's roots, purge and
// pooling, but it traces only what appeared since the previous pass and
// sweeps only what it did not reach. Marks are sticky: an object a pass
// marked is old, keeps its mark, and counts as marked here, so the trace
// stops at it and the sweep keeps it. Besides the pins and the owner's roots,
// its roots are what may name a young object without an old path to it: the
// young objects a write stored into an old object or a root since the
// previous pass (the write barrier in setField and SetRoot remembers them),
// and the fields of the batches InstallBatch made resident since then, whose
// members are born old because older objects may already name their ids. An
// unchanged root names an old object or nothing, since an id is never
// reissued to a new object.
//
// So a young pass never sweeps a reachable object, and it sweeps a subset of
// what a full pass would: garbage that a pass had already marked (an old
// object dropped since) waits for a full pass. Every object the previous pass
// left is marked, and the heap keeps what appeared since then in the tail of
// its resident list (see objTable), so the sweep walks that tail alone. Its
// cost is one probe per reference it follows from those roots plus one step
// per object that appeared since the previous pass, whatever the number of
// residents. When the remembered young objects or the installed batches since
// the previous pass would outnumber the residents, it runs as a full pass
// instead. Either way it counts as one collection.
func (h *Heap) CollectYoung() CollectStats {
	return h.collect(true)
}

// collect is the one mark-sweep pass behind Collect and CollectYoung. A full
// pass advances the epoch, which unmarks every object, marks from every root
// and sweeps the whole resident list; a young pass keeps the epoch, marks
// from the remembered set instead of the roots and sweeps the list's young
// tail. Both mark from the pins and the owner's roots, and the trace, the
// sweep, the purge and the pooling are the same code for both, in that order.
// Either leaves every resident marked, and old: what the purge allocates
// starts the next young tail.
func (h *Heap) collect(young bool) CollectStats {
	h.held()
	var began time.Time
	if h.gcClock != nil {
		began = h.gcClock.Now()
	}

	full := !young || h.overflowed
	if !full {
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
	if h.owner.Roots != nil {
		for _, id := range h.owner.Roots() {
			h.markID(id)
		}
	}
	for n := len(h.work); n > 0; n = len(h.work) {
		o := h.work[n-1]
		h.work[n-1] = nil
		h.work = h.work[:n-1]
		h.markFields(o)
	}

	// Every object a previous pass left is marked unless this pass is full,
	// so a young pass sweeps the objects added since then alone.
	scope := h.objects.list
	if !full {
		scope = h.objects.added()
	}
	var st CollectStats
	dead := 0
	for _, o := range scope {
		if o.mark != h.epoch {
			dead++
		}
	}
	if dead > 0 {
		if cap(h.swept) < dead {
			h.swept = make([]*Object, 0, dead)
		}
		for _, o := range scope {
			if o.mark != h.epoch {
				h.swept = append(h.swept, o)
			}
		}
		// Last first: objects added together sit together, in the list's
		// tail and, by their consecutive ids, in runs of the index, so a
		// removal finds what followed it there already gone and shifts
		// little back.
		for i := len(h.swept) - 1; i >= 0; i-- {
			h.unlink(h.swept[i].id, &st)
		}
	}
	h.objects.age() // what the purge allocates is young
	st.Live = len(h.objects.list)
	h.collections.Add(1)
	h.finishReclaim(&st)
	if h.gcClock != nil {
		h.gcSeconds.Observe(h.gcClock.Now().Sub(began).Seconds())
	}
	if len(h.swept) > 0 {
		if h.owner.Purge != nil {
			h.owner.Purge(h.swept)
		}
		h.poolSwept()
	}
	return st
}

// poolSwept gives the blocks of the pooled objects the pass swept to the pool
// newObject reissues from, once the owner has purged every record of them,
// and lets go of every entry of the sweep buffer, so the Go collector may
// take what the pool did not. Each free list grows at most once per pass, by
// append's rule for all its joiners together: the first growth is exact, a
// later one leaves headroom, so a pool that hovers near its peak is not
// copied again.
func (h *Heap) poolSwept() {
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
	clear(h.swept)
	h.swept = h.swept[:0]
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
// releases the bytes through finishReclaim afterwards. It leaves the pin map
// alone: pins are roots of every pass, so a sweep never unlinks a pinned
// object, and the explicit removals (Free, Remove) drop a pin through
// unpinAll.
func (h *Heap) unlink(id ObjID, st *CollectStats) *Object {
	o := h.objects.del(id)
	if o == nil {
		return nil
	}
	st.Reclaimed++
	st.BytesFreed += int64(o.size)
	return o
}

// unpinAll drops every pin on an object an explicit removal took out. The
// map is empty only while no middleware reference is pinned, and a swap-out
// commit's Free runs with its own replacement-object pinned, so Free hashes
// a removed id only when the pins outnumber its ids (unpinFreed).
func (h *Heap) unpinAll(id ObjID) {
	if len(h.pins) > 0 {
		delete(h.pins, id)
	}
}

// unpinFreed drops the pins of the ids Free was given that are not resident
// once it has unlinked them, walking the pin map, which is smaller than ids:
// each pinned id is looked up in the object index, which hashes nothing, and
// only one no longer resident is looked for among ids. A pin on an id that
// is not resident and that Free was not given stays: a reload pins the member
// it is about to install while its eviction's swap-outs free other clusters.
func (h *Heap) unpinFreed(ids []ObjID) {
	for id := range h.pins {
		if h.objects.get(id) == nil && slices.Contains(ids, id) {
			delete(h.pins, id)
		}
	}
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
// are skipped. The owner's purge is not told of them: the caller named them,
// and the block of a pooled object among them (see pooled) joins the pool at
// once, so the caller lets go of it. The swapping runtime calls it when a
// swap-out commits — the shipped members are unreachable by construction, so
// there is nothing for a mark phase to decide — and when a swap-in commits,
// for the replacement-object it retired. It unlinks the ids last first, as a
// sweep does: a cluster's members, named in ascending order, sit in adjacent
// runs of the index. Every pin on a freed object goes with it (and, when the
// pins are fewer than ids, one on a given id that was not resident).
func (h *Heap) Free(ids []ObjID) CollectStats {
	h.held()
	var st CollectStats
	walkPins := len(h.pins) < len(ids)
	for i := len(ids) - 1; i >= 0; i-- {
		if o := h.unlink(ids[i], &st); o != nil {
			if !walkPins {
				h.unpinAll(o.id)
			}
			h.pool(o)
		}
	}
	if walkPins && len(h.pins) > 0 {
		h.unpinFreed(ids)
	}
	st.Live = len(h.objects.list)
	h.finishReclaim(&st)
	return st
}

// reachableFrom computes the set of resident objects transitively reachable
// from the given seed references. It is a read-only traversal used by tests
// and by the swapping manager's detachment-completeness checks.
func (h *Heap) reachableFrom(seeds ...ObjID) map[ObjID]bool {
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
	return h.reachableFrom(seeds...)
}
