package heap

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// checkTable asserts that t holds exactly the objects of model: the dense
// list has one entry per object and each knows its position, every object is
// found through the index, no slot is occupied beyond them, and the index is
// within its load bound.
func checkTable(t *testing.T, tab *objTable, model map[ObjID]*Object) {
	t.Helper()
	if len(tab.list) != len(model) {
		t.Fatalf("table holds %d objects, model %d", len(tab.list), len(model))
	}
	for i, o := range tab.list {
		if int(o.pos) != i {
			t.Fatalf("object %d at list position %d records position %d", o.id, i, o.pos)
		}
		if model[o.id] != o {
			t.Fatalf("list holds object %d, which the model does not", o.id)
		}
	}
	for id, o := range model {
		if got := tab.get(id); got != o {
			t.Fatalf("get(%d) = %p, model holds %p", id, got, o)
		}
	}
	occupied := 0
	for _, s := range tab.slots {
		if s.id != NilID {
			occupied++
		}
	}
	if occupied != len(model) {
		t.Fatalf("%d slots occupied for %d objects", occupied, len(model))
	}
	if 4*len(tab.list) > 3*len(tab.slots) {
		t.Fatalf("%d objects in %d slots: over the 3/4 load bound", len(tab.list), len(tab.slots))
	}
}

// wrapsPastEnd reports whether some entry's probe run wraps past the last
// slot: it sits at a lower index than its home.
func wrapsPastEnd(tab *objTable) bool {
	for i, s := range tab.slots {
		if s.id != NilID && tab.home(s.id) > i {
			return true
		}
	}
	return false
}

// TestObjTableMatchesMap drives seeded put/get/delete sequences against a Go
// map. Ids come from a narrow range, so probe runs collide and deletions
// shift entries back across the end of the slot array; the dense list is
// checked against the index after every step.
func TestObjTableMatchesMap(t *testing.T) {
	wrappedDeletes := 0
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var tab objTable
		model := map[ObjID]*Object{}
		span := 4 + r.Intn(60)
		for step := 0; step < 2000; step++ {
			id := ObjID(1 + r.Intn(span))
			switch r.Intn(3) {
			case 0:
				if model[id] == nil {
					o := &Object{id: id}
					tab.put(o)
					model[id] = o
				}
			case 1:
				if model[id] != nil && wrapsPastEnd(&tab) {
					wrappedDeletes++
				}
				if got, want := tab.del(id), model[id]; got != want {
					t.Fatalf("seed %d step %d: del(%d) = %p, model holds %p", seed, step, id, got, want)
				}
				delete(model, id)
			default:
				if got, want := tab.get(id), model[id]; got != want {
					t.Fatalf("seed %d step %d: get(%d) = %p, model holds %p", seed, step, id, got, want)
				}
			}
			checkTable(t, &tab, model)
		}
	}
	if wrappedDeletes == 0 {
		t.Fatal("no deletion ran while a probe run wrapped past the end of the slots")
	}
}

// indexSizeFor returns the slot count the object index reaches holding n
// objects: the smallest power of two, at least 8, that n fills at most 3/4.
func indexSizeFor(n int) int {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// TestObjectIndexBoundedByPeakResidency mints and reclaims 200 000
// short-lived objects, by collection and by Free, beside a live set of
// 1 000: the index and the resident list stay sized by the peak resident
// count, not by the number of ids ever minted.
func TestObjectIndexBoundedByPeakResidency(t *testing.T) {
	const liveSet, group, minted = 1000, 100, 200000
	h := New(0)
	live := buildChain(t, h, liveSet)
	h.SetRoot("head", live[0].RefTo())
	c := nodeClass()
	ids := make([]ObjID, group)
	for round := 0; round < minted/group; round++ {
		for i := range ids {
			o, err := h.New(c)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = o.ID()
		}
		var st CollectStats
		if round%2 == 0 {
			st = h.Collect()
		} else {
			st = h.Free(ids)
		}
		if st.Reclaimed != group || st.Live != liveSet {
			t.Fatalf("round %d: %+v, want %d reclaimed and %d live", round, st, group, liveSet)
		}
	}
	peak := liveSet + group
	if got, want := len(h.objects.slots), indexSizeFor(peak); got != want {
		t.Fatalf("index has %d slots after %d ids minted, want %d for a peak of %d residents", got, minted, want, peak)
	}
	if got := cap(h.objects.list); got > 2*peak {
		t.Fatalf("resident list capacity %d, want at most %d for a peak of %d residents", got, 2*peak, peak)
	}
}

// TestResidencyChurnAllocatesNothing frees most of a heap's objects and
// reinstalls them under the same ids, as swap-outs and swap-ins do. After one
// warm cycle a cycle allocates only the batch's own storage — its header
// array and its slab — so neither the index nor the resident list shrinks
// and regrows with residency.
func TestResidencyChurnAllocatesNothing(t *testing.T) {
	h := New(0)
	live := buildChain(t, h, 1000)
	h.SetRoot("head", live[0].RefTo())
	c := nodeClass()
	next, _ := c.FieldIndex("next")
	ids := make([]ObjID, 900)
	for i := range ids {
		ids[i] = live[100+i].ID()
	}
	cycle := func() {
		if st := h.Free(ids); st.Reclaimed != len(ids) {
			t.Fatalf("freed %d of %d", st.Reclaimed, len(ids))
		}
		b := MakeBatch(len(ids), len(ids)*c.NumFields())
		for _, id := range ids {
			b.Add(id, c)[next] = Ref(id + 1)
		}
		if _, err := h.InstallBatch(&b); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	const batchStorage = 2
	if allocs := testing.AllocsPerRun(20, cycle); allocs != batchStorage {
		t.Fatalf("a free-and-reinstall cycle allocates %v times, want the batch's own %d", allocs, batchStorage)
	}
	if st := h.Collect(); st.Reclaimed != 0 || st.Live != len(live) {
		t.Fatalf("after churn: %+v, want the whole chain live", st)
	}
}

// TestMarkEpochWrap collects across the wrap of the 32-bit mark epoch. Each
// pass puts a fresh object, whose mark is 0, in front of the rooted chain and
// leaves one unreachable object beside it: a pass whose epoch came out 0
// would take the fresh object as marked, skip what it references and free
// the rest of the chain, and would never free the garbage.
func TestMarkEpochWrap(t *testing.T) {
	h := New(0)
	c := nodeClass()
	var chain []*Object
	h.epoch = math.MaxUint32 - 2
	for pass := 0; pass < 5; pass++ {
		o, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(chain) > 0 {
			o.MustSet("next", chain[0].RefTo())
		}
		h.SetRoot("head", o.RefTo())
		chain = append([]*Object{o}, chain...)
		garbage, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		st := h.Collect()
		if st.Reclaimed != 1 || st.Swept[0] != garbage {
			t.Fatalf("pass %d (epoch %d): swept %v, want only the garbage %d", pass, h.epoch, st.Swept, garbage.ID())
		}
		for _, o := range chain {
			if !h.Contains(o.ID()) {
				t.Fatalf("pass %d (epoch %d): reachable object %d freed", pass, h.epoch, o.ID())
			}
		}
	}
	if h.epoch != 3 {
		t.Fatalf("epoch %d after five passes from MaxUint32-2, want 3 (0 skipped)", h.epoch)
	}
}

// TestSweptOrderFollowsHistory: two heaps built by the same sequence of
// calls — allocations, links, roots, pins, a Free and a reinstalling batch —
// sweep the same ids in the same order.
func TestSweptOrderFollowsHistory(t *testing.T) {
	swept := 0
	for seed := int64(1); seed <= 20; seed++ {
		build := func() []ObjID {
			h, extra := randomHeap(t, seed)
			churn(t, rand.New(rand.NewSource(seed)), h, fanClass(), int(h.nextID))
			return sweptIDs(h.Collect(extra...).Swept)
		}
		sweptA, sweptB := build(), build()
		if !reflect.DeepEqual(sweptA, sweptB) {
			t.Fatalf("seed %d: one heap swept %v, its twin %v", seed, sweptA, sweptB)
		}
		swept += len(sweptA)
	}
	if swept == 0 {
		t.Fatal("no seed swept anything")
	}
}
