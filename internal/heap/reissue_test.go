package heap

import (
	"errors"
	"runtime"
	"slices"
	"testing"
)

// scProxyClass is a swap-cluster-proxy layout: a target and three ints.
func scProxyClass() *Class {
	c := NewClass("$Proxy",
		FieldDef{Name: "target", Kind: KindRef},
		FieldDef{Name: "obj", Kind: KindInt},
		FieldDef{Name: "src", Kind: KindInt},
		FieldDef{Name: "mode", Kind: KindInt},
	)
	c.Special = SpecialSCProxy
	return c
}

// mintProxies allocates n unrooted proxies, each born with obj = first+i.
func mintProxies(t testing.TB, h *Heap, c *Class, first, n int) []*Object {
	t.Helper()
	out := make([]*Object, n)
	for i := range out {
		o, err := h.NewPrivileged(c, Nil(), Int(int64(first+i)))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = o
	}
	return out
}

// heapMallocs counts the Go heap allocations fn makes.
func heapMallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// replacementClass is a replacement-object layout: a cluster id and a list
// of outbound references.
func replacementClass() *Class {
	c := NewClass("$Replacement", FieldDef{Name: "cluster", Kind: KindInt}, FieldDef{Name: "out", Kind: KindList})
	c.Special = SpecialReplacement
	return c
}

// TestSweptProxyBlocksReissued: once a collection returns, the next
// allocation of a swept swap-cluster-proxy's or replacement-object's kind
// gets its block back under a fresh id, with mark 0 and only the fields it
// was born with set. The blocks of swept application objects and
// object-fault proxies are never reissued.
func TestSweptProxyBlocksReissued(t *testing.T) {
	h := New(0)
	pc, rc := scProxyClass(), replacementClass()
	node := nodeClass()
	others := []*Class{node, NewClass("$ObjProxy", FieldDef{Name: "r", Kind: KindInt})}
	others[1].Special = SpecialObjProxy
	const n = 50
	proxies := mintProxies(t, h, pc, 1000, n)
	kept := map[*Object]ObjID{} // swept block -> the id it was swept under
	for _, o := range proxies {
		kept[o] = o.ID()
	}
	for i := 0; i < n; i++ {
		o, err := h.NewPrivileged(rc, Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		kept[o] = o.ID()
	}
	for _, c := range others {
		for i := 0; i < n; i++ {
			o, err := h.New(c)
			if err != nil {
				t.Fatal(err)
			}
			kept[o] = o.ID()
		}
	}
	if st := h.Collect(); st.Reclaimed != 4*n {
		t.Fatalf("first collection reclaimed %d, want %d", st.Reclaimed, 4*n)
	}
	last := ObjID(h.nextID)

	reissued := append(mintProxies(t, h, pc, 2000, n), mintProxies(t, h, pc, 0, 1)...)
	if _, ok := kept[reissued[n]]; ok {
		t.Fatal("the pool reissued more proxy blocks than were swept")
	}
	for i, o := range reissued[:n] {
		oldID, ok := kept[o]
		if !ok || o.Class() != pc {
			t.Fatalf("proxy %d got a fresh block while swept proxy blocks waited", i)
		}
		if o.ID() <= last {
			t.Fatalf("reissued block has id @%d, not above @%d", o.ID(), last)
		}
		if o.mark != 0 {
			t.Fatalf("reissued block carries mark %d", o.mark)
		}
		want := []Value{Nil(), Int(int64(2000 + i)), Int(0), Int(0)}
		for j, v := range want {
			if !o.Field(j).Equal(v) {
				t.Fatalf("reissued proxy %d field %d = %v, want %v", i, j, o.Field(j), v)
			}
		}
		if !o.ResidentAs(o.ID()) || o.ResidentAs(oldID) {
			t.Fatalf("reissued proxy %d: ResidentAs disagrees with its id", i)
		}
	}
	for i := 0; i < n; i++ {
		o, err := h.NewPrivileged(rc, Int(7))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := kept[o]; !ok || o.Field(1).Kind() != KindNil {
			t.Fatalf("replacement %d: fresh block or stale list %v while swept replacement blocks waited", i, o.Field(1))
		}
	}
	for _, c := range others {
		for i := 0; i < n; i++ {
			o, err := h.New(c)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := kept[o]; ok {
				t.Fatalf("a swept block was reissued as a %s", c.Name)
			}
		}
	}
	var live int64
	for _, id := range h.IDs() {
		o, _ := h.Get(id)
		live += o.Size()
	}
	if h.Used() != live {
		t.Fatalf("used %d, resident sizes sum to %d", h.Used(), live)
	}
}

// TestPurgeBeforePool: a collection hands its owner's purge what it swept
// before any swept block joins the pool. While the purge runs, every swept
// object reads as it did before the pass, and a swap-cluster-proxy and a
// replacement-object the purge allocates get blocks none of the swept
// objects had.
func TestPurgeBeforePool(t *testing.T) {
	h := New(0)
	pc, rc := scProxyClass(), replacementClass()
	const n = 20
	mintProxies(t, h, pc, 1000, n)
	for i := 0; i < n; i++ {
		if _, err := h.NewPrivileged(rc, Int(int64(i)), List(Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		o, err := h.New(nodeClass())
		if err != nil {
			t.Fatal(err)
		}
		o.MustSet("tag", Int(int64(i)))
	}
	before := map[*Object][]Value{}
	for _, id := range h.IDs() {
		o, _ := h.Get(id)
		before[o] = slices.Clone(o.fields)
	}
	purged := 0
	var minted []*Object
	h.RegisterOwner(Owner{Purge: func(swept []*Object) {
		purged = len(swept)
		for _, c := range []*Class{pc, rc} {
			o, err := h.NewPrivileged(c)
			if err != nil {
				t.Fatal(err)
			}
			minted = append(minted, o)
		}
		for _, o := range swept {
			for i, v := range before[o] {
				if !o.Field(i).Equal(v) {
					t.Fatalf("swept %s @%d field %d reads %v in the purge, want %v", o.Class().Name, o.ID(), i, o.Field(i), v)
				}
			}
		}
	}})
	if st := h.Collect(); st.Reclaimed != 3*n || purged != 3*n {
		t.Fatalf("collection reclaimed %d, purge handed %d; want %d", st.Reclaimed, purged, 3*n)
	}
	for _, o := range minted {
		if _, ok := before[o]; ok {
			t.Fatalf("the purge's %s got a block its own collection swept", o.Class().Name)
		}
	}
}

// TestFreedReplacementBlocksReissued: Free and Remove give a
// replacement-object's block to the pool at once, where the next allocation
// of its slot count gets it back under a fresh id; the block of a freed
// application object never joins.
func TestFreedReplacementBlocksReissued(t *testing.T) {
	h := New(0)
	rc := replacementClass()
	freed, err := h.NewPrivileged(rc, Int(1), List(Int(3)))
	if err != nil {
		t.Fatal(err)
	}
	removed, err := h.NewPrivileged(rc, Int(2))
	if err != nil {
		t.Fatal(err)
	}
	app, err := h.New(nodeClass())
	if err != nil {
		t.Fatal(err)
	}
	freedID := freed.ID()
	owner := own(h)
	if st := h.Free([]ObjID{freedID, app.ID()}); st.Reclaimed != 2 || owner.take() != nil {
		t.Fatalf("Free: %+v, want 2 reclaimed and nothing handed to the purge", st)
	}
	if err := h.Remove(removed.ID()); err != nil {
		t.Fatal(err)
	}
	var got []*Object
	for i := 0; i < 3; i++ {
		o, err := h.NewPrivileged(rc, Int(int64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, o)
	}
	if got[0] != removed || got[1] != freed || got[2] == app {
		t.Fatal("the freed and removed replacement blocks were not reissued, last first, before a fresh one")
	}
	if freed.ResidentAs(freedID) || freed.ID() == freedID || freed.Field(1).Kind() != KindNil {
		t.Fatalf("the reissued block kept its old id @%d or its list %v", freedID, freed.Field(1))
	}
	if h.Used() != got[0].Size()+got[1].Size()+got[2].Size() {
		t.Fatalf("used %d after the reissues", h.Used())
	}
}

// TestSetFieldAsRefusesReissuedBlock: a holder of a proxy's block that kept
// it past the sweep, and past the collection that pooled it, writes nothing
// through its old id into the proxy the block has become.
func TestSetFieldAsRefusesReissuedBlock(t *testing.T) {
	h := New(0)
	pc := scProxyClass()
	stale := mintProxies(t, h, pc, 7, 1)[0]
	oldID := stale.ID()
	h.Collect()
	now := mintProxies(t, h, pc, 9, 1)[0]
	if now != stale {
		t.Fatal("the swept block was not reissued")
	}
	used := h.Used()
	if err := stale.SetFieldAs(oldID, 1, Int(8)); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("SetFieldAs under the old id: %v, want ErrNoSuchObject", err)
	}
	if stale.ResidentAs(oldID) {
		t.Fatal("ResidentAs holds under the old id")
	}
	if got := now.Field(1).MustInt(); got != 9 || h.Used() != used {
		t.Fatalf("after the refused write: obj %d, used %d; want 9 and %d", got, h.Used(), used)
	}
	if err := now.SetFieldAs(now.ID(), 1, Int(10)); err != nil || now.Field(1).MustInt() != 10 {
		t.Fatalf("SetFieldAs under the current id: %v, obj %d", err, now.Field(1).MustInt())
	}
}

// TestCollectReusesSweptBuffer: the sweep list is a heap buffer grown once to
// the exact count, so once a collection has reclaimed n objects, the next
// collection that reclaims n allocates nothing.
func TestCollectReusesSweptBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	h := New(0)
	const n = 500
	garbage := func() {
		for i := 0; i < n; i++ {
			if _, err := h.New(nodeClass()); err != nil {
				t.Fatal(err)
			}
		}
	}
	garbage()
	if st := h.Collect(); st.Reclaimed != n {
		t.Fatalf("reclaimed %d, want %d", st.Reclaimed, n)
	}
	for round := 0; round < 3; round++ {
		garbage()
		var st CollectStats
		if allocs := heapMallocs(func() { st = h.Collect() }); allocs != 0 || st.Reclaimed != n {
			t.Fatalf("round %d: a collection reclaiming %d allocated %d objects, want %d and 0", round, st.Reclaimed, allocs, n)
		}
	}
}

// TestProxyChurnAllocatesNothing: minting n proxies and collecting them, once
// a round has filled the pool and sized the buffers, allocates nothing — the
// heap side of Figure 5's B1 pass.
func TestProxyChurnAllocatesNothing(t *testing.T) {
	h := New(0)
	pc := scProxyClass()
	const n = 1000
	round := func() {
		for i := 0; i < n; i++ {
			if _, err := h.NewPrivileged(pc, Nil(), Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if st := h.Collect(); st.Reclaimed != n {
			t.Fatalf("reclaimed %d, want %d", st.Reclaimed, n)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Fatalf("a warm round of %d proxies allocates %.2f objects, want 0", n, allocs)
	}
}

// TestNewPrivilegedChecksInit: initial values are checked against their
// fields and accounted like writes; a refused allocation reserves nothing.
func TestNewPrivilegedChecksInit(t *testing.T) {
	h := New(0)
	c := nodeClass()
	o, err := h.NewPrivileged(c, Bytes(make([]byte, 10)), Nil(), Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(objectOverhead + 3*valueOverhead + 10); o.Size() != want || h.Used() != want {
		t.Fatalf("size %d, used %d; want %d", o.Size(), h.Used(), want)
	}
	if got := o.Field(2).MustInt(); got != 3 {
		t.Fatalf("tag = %d, want 3", got)
	}
	used := h.Used()
	if _, err := h.NewPrivileged(c, Int(1)); !errors.Is(err, ErrBadKind) {
		t.Fatalf("an int for a bytes field: %v, want ErrBadKind", err)
	}
	if _, err := h.NewPrivileged(c, Nil(), Nil(), Int(1), Int(2)); err == nil {
		t.Fatal("four initial values for three fields were accepted")
	}
	if h.Used() != used {
		t.Fatalf("refused allocations moved used from %d to %d", used, h.Used())
	}
}

// TestInstallBatchRefusesProxies: a swap-cluster-proxy is minted, never
// installed, so no batch member's block — which is its whole batch's — ever
// joins the pool of swept proxy blocks.
func TestInstallBatchRefusesProxies(t *testing.T) {
	h := New(0)
	b := MakeBatch(1, 4)
	b.Add(42, scProxyClass())
	if _, err := h.InstallBatch(&b); err == nil {
		t.Fatal("a swap-cluster-proxy was installed from a batch")
	}
	if h.Len() != 0 || h.Used() != 0 {
		t.Fatalf("refused batch left %d objects and %d bytes", h.Len(), h.Used())
	}
}

// TestNewPrivilegedZeroesOnlyTheRest: an allocation with fewer initial values
// than fields sets its leading fields to them and zeroes exactly the slots
// after them, each to its kind's initial value, on a reissued block whose
// slots a previous object left set as much as on a fresh one.
func TestNewPrivilegedZeroesOnlyTheRest(t *testing.T) {
	c := NewClass("$Mixed",
		FieldDef{Name: "n", Kind: KindInt},
		FieldDef{Name: "s", Kind: KindString},
		FieldDef{Name: "r", Kind: KindRef},
		FieldDef{Name: "l", Kind: KindList},
	)
	c.Special = SpecialReplacement
	full := []Value{Int(7), Str("seven"), Ref(7), List(Int(7))}
	for given := 0; given <= len(full); given++ {
		h := New(0)
		own(h)
		old, err := h.NewPrivileged(c, full...)
		if err != nil {
			t.Fatal(err)
		}
		h.Free([]ObjID{old.ID()})
		init := []Value{Int(3), Str("three"), Ref(3), List(Int(3))}[:given]
		o, err := h.NewPrivileged(c, init...)
		if err != nil {
			t.Fatal(err)
		}
		if o != old {
			t.Fatalf("%d values: the freed block was not reissued", given)
		}
		for i := 0; i < c.NumFields(); i++ {
			want := zeroValue(c.Field(i).Kind)
			if i < given {
				want = init[i]
			}
			if got := o.Field(i); !got.Equal(want) || got.Kind() != want.Kind() {
				t.Errorf("%d values: field %s = %v (%s), want %v (%s)", given, c.Field(i).Name, got, got.Kind(), want, want.Kind())
			}
		}
	}
}
