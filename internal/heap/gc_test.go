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

// testOwner owns a heap in tests: its roots are extra, and its purge records
// the ids each pass swept, in sweep order.
type testOwner struct {
	extra []ObjID
	swept []ObjID
}

// own registers a testOwner of h with the given roots.
func own(h *Heap, extra ...ObjID) *testOwner {
	o := &testOwner{extra: extra}
	h.RegisterOwner(Owner{
		Roots: func() []ObjID { return o.extra },
		Purge: func(swept []*Object) {
			for _, s := range swept {
				o.swept = append(o.swept, s.id)
			}
		},
	})
	return o
}

// take returns the ids swept since the last take, in sweep order.
func (o *testOwner) take() []ObjID {
	swept := o.swept
	o.swept = nil
	return swept
}

// installOne makes one zero-valued object of class c resident under id, as a
// batch of one, and returns it.
func installOne(h *Heap, id ObjID, c *Class) (*Object, error) {
	b := MakeBatch(1, c.NumFields())
	b.Add(id, c)
	if _, err := h.InstallBatch(&b); err != nil {
		return nil, err
	}
	return h.Get(id)
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
	// No named roots at all; the owner holds the head as an in-flight stack
	// reference.
	owner := own(h, objs[0].ID())
	st := h.Collect()
	if st.Reclaimed != 0 {
		t.Fatalf("stack-rooted chain collected (reclaimed=%d)", st.Reclaimed)
	}
	owner.extra = nil
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

func TestReachableFrom(t *testing.T) {
	h := New(0)
	objs := buildChain(t, h, 5)
	set := h.reachableFrom(objs[2].ID())
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
// roots, and accounted bytes equal the sum of surviving object sizes. The
// property is checked again after each of three rounds of Free and a batch
// reinstalling freed objects under their original ids.
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
		for round := 0; round <= 3; round++ {
			if round > 0 {
				churn(t, r, h, c, n)
			}
			want := h.ReachableFromRoots()
			before := h.Len()
			st := h.Collect()
			if st.Live != len(want) || st.Reclaimed != before-len(want) {
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
			if h.Used() != bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Free reclaims exactly the ids it is given — reachable or not — in one step:
// bytes back on return, pin entries gone, ids that are not
// resident skipped, nothing handed to the owner's purge, and no collection
// counted.
func TestFreeReclaimsExactlyTheGivenObjects(t *testing.T) {
	h := New(0)
	owner := own(h)
	objs := buildChain(t, h, 4)
	h.SetRoot("head", objs[0].RefTo())
	h.Pin(objs[1].ID())
	want := h.Used() - objs[1].Size() - objs[2].Size()

	st := h.Free([]ObjID{objs[1].ID(), objs[2].ID(), ObjID(9999)})
	if st.Reclaimed != 2 || st.Live != 2 || owner.take() != nil {
		t.Fatalf("stats = %+v, want 2 reclaimed, 2 live, none swept", st)
	}
	if h.Used() != want {
		t.Fatalf("used = %d, want %d", h.Used(), want)
	}
	if h.Contains(objs[1].ID()) || h.Contains(objs[2].ID()) || !h.Contains(objs[0].ID()) || !h.Contains(objs[3].ID()) {
		t.Fatalf("resident after Free: %v", h.IDs())
	}
	if len(h.pins) != 0 {
		t.Fatalf("freed objects left pin entries: %v", h.pins)
	}
	if n := h.StatsSnapshot().Collections; n != 0 {
		t.Fatalf("Free counted %d collections, want 0", n)
	}
}

// A pinned object is a root of every pass, young and full, so the sweep,
// which no longer touches the pin map, never unlinks one; its pin goes with
// the explicit Free that takes it, or with its Unpin.
func TestPinnedSurvivesEveryPass(t *testing.T) {
	h := New(0)
	owner := own(h)
	objs := buildChain(t, h, 2) // unreachable but for the pins
	h.Pin(objs[0].ID())
	h.Pin(objs[1].ID())
	if st := h.CollectYoung(); st.Reclaimed != 0 {
		t.Fatalf("young pass reclaimed %d pinned objects", st.Reclaimed)
	}
	if st := h.Collect(); st.Reclaimed != 0 || owner.take() != nil {
		t.Fatalf("full pass reclaimed %d pinned objects", st.Reclaimed)
	}
	if !h.Contains(objs[0].ID()) || !h.Contains(objs[1].ID()) || len(h.pins) != 2 {
		t.Fatalf("after two passes: resident %v, pins %v", h.IDs(), h.pins)
	}
	h.Free([]ObjID{objs[1].ID()})
	h.Unpin(objs[0].ID())
	if len(h.pins) != 0 {
		t.Fatalf("after Free and Unpin the pin map holds %v", h.pins)
	}
	if st := h.Collect(); st.Reclaimed != 1 || h.Contains(objs[0].ID()) {
		t.Fatalf("the unpinned object survived a full pass: %+v", st)
	}
}
