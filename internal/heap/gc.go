package heap

import (
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
	// Finalized is the number of finalizer functions executed.
	Finalized int
	// Swept lists the reclaimed objects' ids (nil when nothing was reclaimed),
	// so table owners can purge exactly those records.
	Swept []ObjID
}

// finalization is the finalizer set of one reclaimed object, run once the
// heap lock is released.
type finalization struct {
	id  ObjID
	fns []func(ObjID)
}

// Collect runs one stop-the-world mark-sweep cycle. Liveness roots are: named
// heap roots, pinned objects, nursery objects still in their grace, and any
// extra ids supplied by the caller (the swapping runtime passes the receivers
// and arguments of in-flight invocations, standing in for thread stacks).
//
// Finalizers of reclaimed objects run synchronously after the sweep, outside
// the heap lock, so they may freely call back into the heap (the
// SwappingManager's table-purging finalizers do).
func (h *Heap) Collect(extra ...ObjID) CollectStats {
	return h.CollectCycles(1, extra...)
}

// CollectCycles runs one mark-sweep pass whose survivors, nursery state and
// finalizer calls equal those of `cycles` back-to-back Collect calls on a
// heap nothing else touches in between: a nursery entry whose grace would
// run out before the last of those cycles is not a root, and every surviving
// entry ages by `cycles`. The equivalence holds because each cycle's live set
// contains the next one's, so whatever the earlier cycles would have freed
// the last one frees too. It counts as one collection.
//
// The pass allocates nothing unless it reclaims something: marks are a
// per-object epoch word and the work list lives on the heap, both guarded by
// h.mu.
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

	h.epoch++
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
	var finals []finalization
	for id, o := range h.objects {
		if o.mark == h.epoch {
			continue
		}
		st.Swept = append(st.Swept, id)
		finals = h.reclaimLocked(o, &st, finals)
	}
	for id, grace := range h.nursery {
		if grace <= cycles {
			delete(h.nursery, id)
		} else {
			h.nursery[id] = grace - cycles
		}
	}
	st.Live = len(h.objects)
	h.collections.Add(1)
	h.mu.Unlock()

	h.finishReclaim(&st, finals, gcFreed)
	if gcClock != nil {
		gcSeconds.Observe(gcClock.Now().Sub(began).Seconds())
	}
	return st
}

// markID marks a resident object live and queues it for scanning. The caller
// holds h.mu.
func (h *Heap) markID(id ObjID) {
	o, resident := h.objects[id]
	if !resident || o.mark == h.epoch {
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

// reclaimLocked unlinks one object from the heap's tables, tallies it in st
// and queues its finalizers. The caller holds h.mu and releases the bytes
// through finishReclaim afterwards.
func (h *Heap) reclaimLocked(o *Object, st *CollectStats, finals []finalization) []finalization {
	st.Reclaimed++
	st.BytesFreed += o.Size()
	delete(h.objects, o.id)
	delete(h.pins, o.id)
	if fns := h.finalizers[o.id]; len(fns) > 0 {
		delete(h.finalizers, o.id)
		finals = append(finals, finalization{id: o.id, fns: fns})
	}
	return finals
}

// finishReclaim settles a reclamation outside h.mu: the bytes go back to the
// budget and every queued finalizer runs exactly once.
func (h *Heap) finishReclaim(st *CollectStats, finals []finalization, gcFreed *obs.Counter) {
	h.reclaimed.Add(uint64(st.Reclaimed))
	h.release(st.BytesFreed)
	for _, f := range finals {
		for _, fn := range f.fns {
			fn(f.id)
			st.Finalized++
		}
	}
	gcFreed.Add(float64(st.BytesFreed))
}

// Free reclaims exactly the given objects in one critical section, as a
// collection that found them (and nothing else) unreachable would: their
// bytes return to the budget before Free returns and their finalizers run
// once, outside the heap lock. Ids that are not resident are skipped. The
// swapping runtime calls it when a swap-out commits — the shipped members are
// unreachable by construction, so there is nothing for a mark phase to
// decide. It is not a collection cycle: the nursery does not age.
func (h *Heap) Free(ids []ObjID) CollectStats {
	var st CollectStats
	var finals []finalization
	h.mu.Lock()
	for _, id := range ids {
		o, resident := h.objects[id]
		if !resident {
			continue
		}
		finals = h.reclaimLocked(o, &st, finals)
		delete(h.nursery, id)
	}
	st.Live = len(h.objects)
	gcFreed := h.gcFreed
	h.mu.Unlock()
	h.finishReclaim(&st, finals, gcFreed)
	return st
}

// ReachableFrom computes the set of resident objects transitively reachable
// from the given seed references. It is a read-only traversal used by tests
// and by the swapping manager's detachment-completeness checks.
func (h *Heap) ReachableFrom(seeds ...ObjID) map[ObjID]bool {
	h.mu.RLock()
	defer h.mu.RUnlock()

	marked := make(map[ObjID]bool)
	var stack []ObjID
	push := func(id ObjID) {
		if id == NilID || marked[id] {
			return
		}
		if _, resident := h.objects[id]; !resident {
			return
		}
		marked[id] = true
		stack = append(stack, id)
	}
	for _, id := range seeds {
		push(id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h.objects[id].forEachRef(push)
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

// WeakRef is a non-owning reference: it does not keep its target alive and
// can be probed for validity. The SwappingManager tracks swap-cluster-proxies
// through weak references, exactly as the paper prescribes.
type WeakRef struct {
	h  *Heap
	id ObjID
}

// Weak returns a weak reference to id.
func (h *Heap) Weak(id ObjID) WeakRef { return WeakRef{h: h, id: id} }

// ID returns the referenced object id (which may no longer be resident).
func (w WeakRef) ID() ObjID { return w.id }

// Get returns the target if it is still resident.
func (w WeakRef) Get() (*Object, bool) {
	if w.h == nil || w.id == NilID {
		return nil, false
	}
	o, err := w.h.Get(w.id)
	if err != nil {
		return nil, false
	}
	return o, true
}

// Alive reports whether the target is still resident.
func (w WeakRef) Alive() bool {
	_, ok := w.Get()
	return ok
}
