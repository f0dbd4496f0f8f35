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

// TestSweptProxyBlocksReissued: a swept swap-cluster-proxy's block stays
// what Swept reports until the next collection, which hands it to the
// allocator; a later proxy then gets it back under a fresh id, with mark 0
// and only the fields it was born with set. The blocks of swept application
// objects, replacement-objects and object-fault proxies are never reissued.
func TestSweptProxyBlocksReissued(t *testing.T) {
	h := New(0)
	pc := scProxyClass()
	node := nodeClass()
	others := []*Class{node, NewClass("$Replacement", FieldDef{Name: "c", Kind: KindInt}), NewClass("$ObjProxy", FieldDef{Name: "r", Kind: KindInt})}
	others[1].Special, others[2].Special = SpecialReplacement, SpecialObjProxy
	const n = 50
	proxies := mintProxies(t, h, pc, 1000, n)
	kept := map[*Object]ObjID{} // swept block -> the id it was swept under
	for _, o := range proxies {
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
	// Until the next collection, Swept is intact and nothing is reissued.
	early := mintProxies(t, h, pc, 0, 1)[0]
	if _, ok := kept[early]; ok {
		t.Fatal("a block was reissued before the collection after its sweep")
	}
	for i, o := range proxies {
		if got := o.Field(1).MustInt(); got != int64(1000+i) {
			t.Fatalf("swept proxy %d reads obj %d before the next collection, want %d", i, got, 1000+i)
		}
	}
	last := early.ID()
	h.Collect() // sweeps early; gives the first pass's proxy blocks to the allocator

	reissued := mintProxies(t, h, pc, 2000, n)
	for i, o := range reissued {
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

// TestSetFieldAsRefusesReissuedBlock: a holder of a proxy's block that kept
// it past the sweep, and past the collection that gave it back, writes
// nothing through its old id into the proxy the block has become.
func TestSetFieldAsRefusesReissuedBlock(t *testing.T) {
	h := New(0)
	pc := scProxyClass()
	stale := mintProxies(t, h, pc, 7, 1)[0]
	oldID := stale.ID()
	h.Collect()
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
// two rounds have filled the pool and sized the buffers, allocates nothing —
// the heap side of Figure 5's B1 pass.
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
