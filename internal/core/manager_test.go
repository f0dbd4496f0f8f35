package core

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

func TestVictimStrategyNames(t *testing.T) {
	for _, s := range []VictimStrategy{VictimColdest, VictimLargest, VictimLeastUsed} {
		name := s.String()
		back, err := VictimStrategyFromString(name)
		if err != nil || back != s {
			t.Fatalf("round trip %v -> %q -> %v, %v", s, name, back, err)
		}
	}
	if VictimStrategy(99).String() != "strategy?" {
		t.Error("unknown strategy name")
	}
	if _, err := VictimStrategyFromString("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestSelectVictimStrategies(t *testing.T) {
	f := newFixture(t, 0)
	mgr := f.rt.Manager()

	// Three clusters of different sizes and touch patterns.
	small := mgr.NewCluster()
	big := mgr.NewCluster()
	busy := mgr.NewCluster()

	mk := func(c ClusterID, n, payload int) []heap.ObjID {
		var ids []heap.ObjID
		for i := 0; i < n; i++ {
			o, err := f.rt.NewObject(f.node, c)
			if err != nil {
				t.Fatal(err)
			}
			o.MustSet("payload", heap.Bytes(make([]byte, payload)))
			if err := f.rt.SetRoot(o.String(), o.RefTo()); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, o.ID())
		}
		return ids
	}
	mk(small, 2, 8)
	mk(big, 2, 4096)
	busyIDs := mk(busy, 2, 8)

	// Make `busy` hot and frequently crossed.
	for i := 0; i < 5; i++ {
		pid, err := f.rt.proxyFor(RootCluster, busyIDs[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.rt.Invoke(heap.Ref(pid), "tag"); err != nil {
			t.Fatal(err)
		}
	}

	if v, ok := mgr.SelectVictim(VictimLargest); !ok || v != big {
		t.Fatalf("largest victim = %v, %v (want %d)", v, ok, big)
	}
	// Coldest: small and big untouched since creation; small was created
	// first → oldest recency.
	if v, ok := mgr.SelectVictim(VictimColdest); !ok || v == busy {
		t.Fatalf("coldest victim = %v, %v (must not be the busy cluster)", v, ok)
	}
	// Least-used: busy has crossings, others none.
	if v, ok := mgr.SelectVictim(VictimLeastUsed); !ok || v == busy {
		t.Fatalf("least-used victim = %v, %v (must not be the busy cluster)", v, ok)
	}

	// Swapped and empty clusters are ineligible.
	if _, err := f.rt.SwapOut(small); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapOut(big); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapOut(busy); err != nil {
		t.Fatal(err)
	}
	if v, ok := mgr.SelectVictim(VictimColdest); ok {
		t.Fatalf("victim %v selected with everything swapped", v)
	}
}

func TestClustersListing(t *testing.T) {
	f := newFixture(t, 0)
	a := f.rt.Manager().NewCluster()
	b := f.rt.Manager().NewCluster()
	got := f.rt.Manager().Clusters()
	if len(got) != 3 || got[0] != RootCluster || got[1] != a || got[2] != b {
		t.Fatalf("Clusters = %v", got)
	}
}

func TestDerefThroughSwap(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 10, 10, 8)
	if _, err := f.rt.SwapOut(clusters[0]); err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	// Deref on the proxy faults the cluster in and returns the real object.
	o, err := f.rt.Deref(f.head(t))
	if err != nil {
		t.Fatal(err)
	}
	if o.ID() != ids[0] {
		t.Fatalf("Deref = @%d, want @%d", o.ID(), ids[0])
	}
	if _, err := f.rt.Deref(heap.Nil()); !errors.Is(err, heap.ErrNilTarget) {
		t.Fatalf("Deref(nil): %v", err)
	}
}

func TestObjProxyLifecycle(t *testing.T) {
	f := newFixture(t, 0)
	// Create a placeholder for a remote object; a second request reuses it.
	p1, err := f.rt.ObjProxyFor(777, "Node")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.rt.ObjProxyFor(777, "Node")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("objproxy not unique per remote: @%d vs @%d", p1, p2)
	}
	o, _ := f.rt.Heap().Get(p1)
	if ObjProxyRemote(o) != 777 || ObjProxyClass(o) != "Node" {
		t.Fatalf("objproxy payload: remote=%d class=%q", ObjProxyRemote(o), ObjProxyClass(o))
	}
	if f.rt.Manager().ObjProxyCount() != 1 {
		t.Fatalf("count = %d", f.rt.Manager().ObjProxyCount())
	}
	if _, err := f.rt.ObjProxyFor(heap.NilID, "Node"); err == nil {
		t.Error("nil remote accepted")
	}
	// Unreferenced placeholders are collected and purged from the manager.
	f.rt.Collect()
	if f.rt.Manager().ObjProxyCount() != 0 {
		t.Fatalf("count after GC = %d", f.rt.Manager().ObjProxyCount())
	}
	// What dispatching on a placeholder does, with and without a fault
	// handler, is TestMediationTable's.
}

func TestTranslateListArguments(t *testing.T) {
	// A list argument crossing a boundary gets each contained reference
	// mediated individually.
	f := newFixture(t, 0)
	holder := heap.NewClass("Holder", heap.FieldDef{Name: "items", Kind: heap.KindList})
	holder.AddMethod("keep", func(call *heap.Call) ([]heap.Value, error) {
		if err := call.RT.SetFieldValue(call.Self.RefTo(), "items", call.Arg(0)); err != nil {
			return nil, err
		}
		return nil, nil
	})
	holder.AddMethod("items", func(call *heap.Call) ([]heap.Value, error) {
		v, _ := call.Self.FieldByName("items")
		return []heap.Value{v}, nil
	})
	f.rt.MustRegisterClass(holder)

	c1, c2 := f.rt.Manager().NewCluster(), f.rt.Manager().NewCluster()
	h1, _ := f.rt.NewObject(holder, c1)
	n1, _ := f.rt.NewObject(f.node, c2)
	n2, _ := f.rt.NewObject(f.node, c1)
	_ = f.rt.SetRoot("h", h1.RefTo())

	// Call through a proxy (root → c1) passing a list mixing both clusters.
	root, _ := f.rt.Root("h")
	if _, err := f.rt.Invoke(root, "keep", heap.List(n1.RefTo(), n2.RefTo(), heap.Int(7))); err != nil {
		t.Fatal(err)
	}
	items, _ := h1.FieldByName("items")
	elems, _ := items.List()
	if len(elems) != 3 {
		t.Fatalf("items = %v", items)
	}
	// n1 is foreign to c1 → proxied; n2 is local → direct.
	if !f.rt.IsProxyRef(elems[0]) {
		t.Fatalf("foreign list element not mediated: %v", elems[0])
	}
	if elems[1].MustRef() != n2.ID() {
		t.Fatalf("local list element not direct: %v", elems[1])
	}
	if elems[2].MustInt() != 7 {
		t.Fatalf("scalar list element mangled: %v", elems[2])
	}
	checkClean(t, f.rt)
}

func TestRuntimeAccessors(t *testing.T) {
	f := newFixture(t, 0)
	if f.rt.Registry() == nil || f.rt.Heap() == nil || f.rt.Manager() == nil {
		t.Fatal("nil accessor")
	}
	if f.rt.Bus() != nil {
		t.Fatal("bus should be nil when not configured")
	}
}

func TestRuntimeOptions(t *testing.T) {
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	_ = devices.Add("d", mem)
	rt := NewRuntime(heap.New(0), heap.NewRegistry(),
		WithStores(devices), WithName("my-pda"))
	node := newNodeClass()
	rt.MustRegisterClass(node)
	if rt.Name() != "my-pda" {
		t.Fatalf("Name = %q", rt.Name())
	}
	// WithName("") keeps the process-unique default.
	rt2 := NewRuntime(heap.New(0), heap.NewRegistry(), WithName(""))
	if rt2.Name() == "" {
		t.Fatal("empty default name")
	}

	// The device copy survives a swap-in: it is the retained copy.
	c := rt.Manager().NewCluster()
	o, err := rt.NewObject(node, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRoot("x", o.RefTo()); err != nil {
		t.Fatal(err)
	}
	ev, err := rt.SwapOut(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapIn(c); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Get(ctx, ev.Key); err != nil {
		t.Fatalf("retained copy dropped: %v", err)
	}

	// ProxyTarget helper.
	pid, err := rt.proxyFor(RootCluster, o.ID())
	if err != nil {
		t.Fatal(err)
	}
	po, _ := rt.Heap().Get(pid)
	if target, ok := ProxyTarget(po); !ok || target != o.ID() {
		t.Fatalf("ProxyTarget = %v, %v", target, ok)
	}
	if _, ok := ProxyTarget(o); ok {
		t.Fatal("ProxyTarget on app object")
	}
	if _, ok := ProxyTarget(nil); ok {
		t.Fatal("ProxyTarget on nil")
	}

	// An explicit eviction pass under a non-default strategy.
	if err := rt.EvictWith(VictimLeastUsed, 1); err != nil {
		t.Fatalf("EvictWith: %v", err)
	}
}

// TestSelectVictimsAllocatesOnlyItsResult: the ranking is built in a buffer
// the manager keeps from call to call, so once it has grown to the number of
// eligible clusters a call under any strategy allocates only the list it
// returns.
func TestSelectVictimsAllocatesOnlyItsResult(t *testing.T) {
	f, ids := taskFixture(t, 64, 2, 16)
	mgr := f.rt.Manager()
	for _, strategy := range []VictimStrategy{VictimColdest, VictimLargest, VictimLeastUsed} {
		if got := mgr.SelectVictims(strategy); len(got) != len(ids) {
			t.Fatalf("%v: %d victims, want %d", strategy, len(got), len(ids))
		}
		if got := testing.AllocsPerRun(50, func() { mgr.SelectVictims(strategy) }); got > 1 {
			t.Fatalf("%v: a warm SelectVictims allocates %.1f objects, want at most 1 (its result)", strategy, got)
		}
	}
}

// TestConcurrentSelectVictims: two goroutines rank victims in a loop, under
// every strategy, while others swap clusters out and back in and Collect
// runs. The ranking buffer is shared and reused, so each call builds, sorts
// and copies it out in one hold of the table lock: no result holds a cluster
// twice or the root cluster.
func TestConcurrentSelectVictims(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 64, 4, 16)
	const rounds = 10
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			strategies := []VictimStrategy{VictimColdest, VictimLargest, VictimLeastUsed}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got := f.rt.Manager().SelectVictims(strategies[i%len(strategies)])
				sorted := slices.Sorted(slices.Values(got))
				if slices.Contains(got, RootCluster) || len(slices.Compact(sorted)) != len(got) {
					t.Errorf("SelectVictims = %v: a duplicate or the root cluster", got)
					return
				}
			}
		}()
	}
	var churn sync.WaitGroup
	churn.Add(2)
	go func() {
		defer churn.Done()
		for i := 0; i < rounds; i++ {
			swapOutAll(t, f.rt, clusters)
			for _, c := range clusters {
				if _, err := f.rt.SwapIn(c); err != nil && !errors.Is(err, ErrClusterLoaded) {
					t.Errorf("SwapIn(%d): %v", c, err)
				}
			}
		}
	}()
	go func() {
		defer churn.Done()
		for i := 0; i < rounds; i++ {
			f.rt.Collect()
		}
	}()
	churn.Wait()
	close(stop)
	wg.Wait()
	checkClean(t, f.rt)
}

// TestProxyIndexPacksAndFallsBack: a key whose ids fit one word lives in the
// packed map, any other in the wide one, and each is found, listed, kept
// from a stale drop and dropped under its own id.
func TestProxyIndexPacksAndFallsBack(t *testing.T) {
	x := proxyIndex{packed: make(map[uint64]heap.ObjID)}
	keys := []proxyKey{
		{src: 0, target: 1},
		{src: 7, target: 1<<targetBits - 1},
		{src: 1<<(64-targetBits) - 1, target: 3},
		{src: 1 << (64 - targetBits), target: 3},
		{src: 7, target: 1 << targetBits},
		{src: ^ClusterID(0), target: ^heap.ObjID(0)},
	}
	want := make(map[proxyKey]heap.ObjID)
	for i, k := range keys {
		x.set(k, heap.ObjID(100+i))
		want[k] = heap.ObjID(100 + i)
	}
	if len(x.packed) != 3 || len(x.wide) != 3 {
		t.Fatalf("%d packed and %d wide keys, want 3 and 3", len(x.packed), len(x.wide))
	}
	got := make(map[proxyKey]heap.ObjID)
	for k, pid := range x.all {
		got[k] = pid
	}
	if !maps.Equal(got, want) {
		t.Fatalf("all = %v, want %v", got, want)
	}
	for i, k := range keys {
		x.drop(k, heap.ObjID(1+i)) // another proxy's id: a stale drop
		if pid, ok := x.get(k); !ok || pid != heap.ObjID(100+i) {
			t.Fatalf("get(%+v) = %d, %v after a stale drop, want %d", k, pid, ok, 100+i)
		}
		x.drop(k, heap.ObjID(100+i))
		if pid, ok := x.get(k); ok {
			t.Fatalf("get(%+v) = %d after its drop", k, pid)
		}
	}
}
