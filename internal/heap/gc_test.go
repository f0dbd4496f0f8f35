package heap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildChain allocates n chained nodes and returns them head-first.
func buildChain(t testing.TB, h *Heap, n int) []*Object {
	t.Helper()
	c := nodeClass()
	objs := make([]*Object, n)
	for i := range objs {
		o, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	for i := 0; i < n-1; i++ {
		if err := objs[i].SetFieldByName("next", objs[i+1].RefTo()); err != nil {
			t.Fatal(err)
		}
	}
	return objs
}

func TestCollectReclaimsUnreachable(t *testing.T) {
	h := New(0)
	objs := buildChain(t, h, 10)
	h.SetRoot("head", objs[0].RefTo())

	// Cut the chain after the 4th node: nodes 5..10 become garbage.
	if err := objs[3].SetFieldByName("next", Nil()); err != nil {
		t.Fatal(err)
	}
	st := h.Collect()
	if st.Reclaimed != 6 {
		t.Errorf("reclaimed = %d, want 6", st.Reclaimed)
	}
	if st.Live != 4 {
		t.Errorf("live = %d, want 4", st.Live)
	}
	for i := 0; i < 4; i++ {
		if !h.Contains(objs[i].ID()) {
			t.Errorf("reachable node %d collected", i)
		}
	}
	for i := 4; i < 10; i++ {
		if h.Contains(objs[i].ID()) {
			t.Errorf("garbage node %d survived", i)
		}
	}
}

func TestCollectFreesAccountedBytes(t *testing.T) {
	h := New(0)
	objs := buildChain(t, h, 3)
	_ = objs[2].SetFieldByName("payload", Bytes(make([]byte, 128)))
	h.SetRoot("head", objs[0].RefTo())
	_ = objs[1].SetFieldByName("next", Nil())
	before := h.Used()
	garbageSize := objs[2].Size()
	st := h.Collect()
	if st.BytesFreed != garbageSize {
		t.Errorf("BytesFreed = %d, want %d", st.BytesFreed, garbageSize)
	}
	if h.Used() != before-garbageSize {
		t.Errorf("used = %d, want %d", h.Used(), before-garbageSize)
	}
}

func TestCollectHonorsPins(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	h.Pin(o.ID())
	if st := h.Collect(); st.Reclaimed != 0 {
		t.Fatalf("pinned object collected (reclaimed=%d)", st.Reclaimed)
	}
	h.Pin(o.ID()) // second pin
	h.Unpin(o.ID())
	if st := h.Collect(); st.Reclaimed != 0 {
		t.Fatal("object with remaining pin collected")
	}
	h.Unpin(o.ID())
	if st := h.Collect(); st.Reclaimed != 1 {
		t.Fatalf("unpinned garbage not collected (reclaimed=%d)", st.Reclaimed)
	}
	// Pin/Unpin of nil ids are harmless no-ops.
	h.Pin(NilID)
	h.Unpin(NilID)
}

func TestCollectHonorsExtraRoots(t *testing.T) {
	h := New(0)
	objs := buildChain(t, h, 3)
	// No named roots at all; pass the head as an in-flight stack reference.
	st := h.Collect(objs[0].ID())
	if st.Reclaimed != 0 {
		t.Fatalf("stack-rooted chain collected (reclaimed=%d)", st.Reclaimed)
	}
	st = h.Collect()
	if st.Reclaimed != 3 {
		t.Fatalf("garbage chain survived (reclaimed=%d)", st.Reclaimed)
	}
}

func TestCollectTraversesListsAndRoots(t *testing.T) {
	h := New(0)
	a, _ := h.New(nodeClass())
	b, _ := h.New(nodeClass())
	holder, _ := h.New(NewClass("Holder", FieldDef{Name: "items", Kind: KindList}))
	_ = holder.SetFieldByName("items", List(a.RefTo(), List(b.RefTo())))
	h.SetRoot("holder", holder.RefTo())
	if st := h.Collect(); st.Reclaimed != 0 {
		t.Fatalf("list-referenced objects collected (reclaimed=%d)", st.Reclaimed)
	}
}

func TestFinalizersRunOnCollection(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	var finalized []ObjID
	h.OnFinalize(o.ID(), func(id ObjID) { finalized = append(finalized, id) })
	h.OnFinalize(o.ID(), func(id ObjID) { finalized = append(finalized, id+1000) })
	st := h.Collect()
	if st.Finalized != 2 {
		t.Fatalf("finalized = %d, want 2", st.Finalized)
	}
	if len(finalized) != 2 || finalized[0] != o.ID() || finalized[1] != o.ID()+1000 {
		t.Fatalf("finalizer calls = %v", finalized)
	}
	// Finalizers must not run twice.
	if st := h.Collect(); st.Finalized != 0 {
		t.Error("finalizer ran again on next cycle")
	}
}

func TestFinalizerMayCallBackIntoHeap(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	ran := false
	h.OnFinalize(o.ID(), func(ObjID) {
		ran = true
		// Re-entrancy: allocate during finalization.
		if _, err := h.New(nodeClass()); err != nil {
			t.Errorf("alloc in finalizer: %v", err)
		}
	})
	h.Collect()
	if !ran {
		t.Fatal("finalizer did not run")
	}
}

func TestWeakRefLifecycle(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	w := h.Weak(o.ID())
	if got, ok := w.Get(); !ok || got != o {
		t.Fatal("weak ref should resolve while target lives")
	}
	if !w.Alive() {
		t.Fatal("Alive = false for live target")
	}
	h.Collect() // o is unreachable garbage
	if _, ok := w.Get(); ok {
		t.Fatal("weak ref resolved after collection")
	}
	if w.Alive() {
		t.Fatal("Alive = true after collection")
	}
	if w.ID() != o.ID() {
		t.Error("weak ref lost its id")
	}
	var zero WeakRef
	if _, ok := zero.Get(); ok {
		t.Error("zero weak ref should not resolve")
	}
}

func TestReachableFrom(t *testing.T) {
	h := New(0)
	objs := buildChain(t, h, 5)
	set := h.ReachableFrom(objs[2].ID())
	if len(set) != 3 {
		t.Fatalf("reachable set size = %d, want 3", len(set))
	}
	for i := 2; i < 5; i++ {
		if !set[objs[i].ID()] {
			t.Errorf("node %d missing from reachable set", i)
		}
	}
	h.SetRoot("head", objs[0].RefTo())
	rootSet := h.ReachableFromRoots()
	if len(rootSet) != 5 {
		t.Fatalf("root-reachable size = %d, want 5", len(rootSet))
	}
}

func TestCollectCyclicGarbage(t *testing.T) {
	h := New(0)
	a, _ := h.New(nodeClass())
	b, _ := h.New(nodeClass())
	_ = a.SetFieldByName("next", b.RefTo())
	_ = b.SetFieldByName("next", a.RefTo())
	st := h.Collect()
	if st.Reclaimed != 2 {
		t.Fatalf("cycle not collected (reclaimed=%d)", st.Reclaimed)
	}
}

// Property: after any random sequence of allocations, linkings and root
// assignments, collection reclaims exactly the objects unreachable from
// roots, and accounted bytes equal the sum of surviving object sizes.
func TestPropCollectMatchesReachability(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := New(0)
		c := nodeClass()
		var objs []*Object
		n := 5 + r.Intn(40)
		for i := 0; i < n; i++ {
			o, err := h.New(c)
			if err != nil {
				return false
			}
			objs = append(objs, o)
		}
		for i := 0; i < n*2; i++ {
			from := objs[r.Intn(n)]
			if r.Intn(5) == 0 {
				_ = from.SetFieldByName("next", Nil())
			} else {
				_ = from.SetFieldByName("next", objs[r.Intn(n)].RefTo())
			}
		}
		roots := r.Intn(4)
		for i := 0; i < roots; i++ {
			h.SetRoot(string(rune('a'+i)), objs[r.Intn(n)].RefTo())
		}
		want := h.ReachableFromRoots()
		st := h.Collect()
		if st.Live != len(want) {
			return false
		}
		var bytes int64
		for id := range want {
			if !h.Contains(id) {
				return false
			}
			o, _ := h.Get(id)
			bytes += o.Size()
		}
		return h.Used() == bytes && st.Reclaimed == n-len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Free reclaims exactly the ids it is given — reachable or not — in one step:
// bytes back on return, finalizers once, nursery and pin entries gone, ids
// that are not resident skipped, and no collection counted.
func TestFreeReclaimsExactlyTheGivenObjects(t *testing.T) {
	h := New(0)
	h.SetNurseryGrace(2)
	objs := buildChain(t, h, 4)
	h.SetRoot("head", objs[0].RefTo())
	h.Pin(objs[1].ID())
	finalized := map[ObjID]int{}
	for _, o := range objs {
		h.OnFinalize(o.ID(), func(id ObjID) { finalized[id]++ })
	}
	want := h.Used() - objs[1].Size() - objs[2].Size()

	st := h.Free([]ObjID{objs[1].ID(), objs[2].ID(), ObjID(9999)})
	if st.Reclaimed != 2 || st.Finalized != 2 || st.Live != 2 {
		t.Fatalf("stats = %+v, want 2 reclaimed, 2 finalized, 2 live", st)
	}
	if h.Used() != want {
		t.Fatalf("used = %d, want %d", h.Used(), want)
	}
	if h.Contains(objs[1].ID()) || h.Contains(objs[2].ID()) || !h.Contains(objs[0].ID()) || !h.Contains(objs[3].ID()) {
		t.Fatalf("resident after Free: %v", h.IDs())
	}
	if len(finalized) != 2 || finalized[objs[1].ID()] != 1 || finalized[objs[2].ID()] != 1 {
		t.Fatalf("finalizer calls = %v, want the two freed objects once each", finalized)
	}
	if _, left := h.nursery[objs[1].ID()]; left || len(h.pins) != 0 {
		t.Fatalf("freed objects left nursery/pin entries: %v %v", h.nursery, h.pins)
	}
	if n := h.StatsSnapshot().Collections; n != 0 {
		t.Fatalf("Free counted %d collections, want 0", n)
	}
}
