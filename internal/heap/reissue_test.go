package heap

import (
	"errors"
	"runtime"
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

// TestSweptProxyBlocksReissued: a swept swap-cluster-proxy's or
// replacement-object's block stays what Swept reports until the owner gives
// the report back with PoolSwept, in the collection's hold; the next
// allocation of its kind then gets it back under a fresh id, with mark 0 and
// only the fields it was born with set. The blocks of swept application
// objects and object-fault proxies are never reissued, a second PoolSwept
// pools nothing twice, and a report never given back is cleared by the next
// collection with none of its blocks pooled.
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
	st := h.Collect()
	if st.Reclaimed != 4*n || len(st.Swept) != 4*n {
		t.Fatalf("first collection reclaimed %d (%d swept), want %d", st.Reclaimed, len(st.Swept), 4*n)
	}
	// Until the report is given back, Swept is intact and nothing is reissued.
	early := mintProxies(t, h, pc, 0, 1)[0]
	if _, ok := kept[early]; ok {
		t.Fatal("a block was reissued before its report was given back")
	}
	for i, o := range proxies {
		if got := o.Field(1).MustInt(); got != int64(1000+i) {
			t.Fatalf("swept proxy %d reads obj %d before PoolSwept, want %d", i, got, 1000+i)
		}
	}
	last := early.ID()
	h.PoolSwept()
	h.PoolSwept() // pools nothing twice

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

	// A report the owner never gives back: the next collection clears it and
	// pools none of its blocks.
	h = New(0)
	lapsed := mintProxies(t, h, pc, 0, n)
	h.Collect()
	h.Collect()
	h.PoolSwept()
	for _, o := range mintProxies(t, h, pc, 0, n) {
		for _, old := range lapsed {
			if o == old {
				t.Fatal("a block of a report never given back was reissued")
			}
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
	if st := h.Free([]ObjID{freedID, app.ID()}); st.Reclaimed != 2 || st.Swept != nil {
		t.Fatalf("Free: %+v, want 2 reclaimed and nothing swept", st)
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
// it past the sweep, and past the PoolSwept that gave it back, writes nothing
// through its old id into the proxy the block has become.
func TestSetFieldAsRefusesReissuedBlock(t *testing.T) {
	h := New(0)
	pc := scProxyClass()
	stale := mintProxies(t, h, pc, 7, 1)[0]
	oldID := stale.ID()
	h.Collect()
	h.PoolSwept()
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

// TestProxyChurnAllocatesNothing: minting n proxies, collecting them and
// giving the report back, once a round has filled the pool and sized the
// buffers, allocates nothing — the heap side of Figure 5's B1 pass.
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
		h.PoolSwept()
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
