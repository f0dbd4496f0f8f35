package core

import (
	"slices"
	"sync"
	"testing"

	"objectswap/internal/event"
	"objectswap/internal/heap"
)

// TestCollectPurgesEverySweptRecord: one Collect forgets every manager record
// of what it swept, before it returns — an unreferenced shared proxy, a
// private cursor, an object-fault proxy and a member of a resident cluster —
// and leaves the bookkeeping clean.
func TestCollectPurgesEverySweptRecord(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 30, 10, 8)
	mgr := f.rt.mgr
	proxies, objProxies := mgr.ProxyCount(), mgr.ObjProxyCount()
	edges := func(src, home ClusterID) int32 {
		mgr.table.mu.Lock()
		defer mgr.table.mu.Unlock()
		for _, e := range mgr.table.clusters[src].edges {
			if e.to == home {
				return e.n
			}
		}
		return 0
	}
	sharedEdges, cursorEdges := edges(RootCluster, clusters[1]), edges(RootCluster, clusters[2])

	shared, err := f.rt.proxyFor(RootCluster, ids[15])
	if err != nil {
		t.Fatal(err)
	}
	cursor, err := f.rt.AssignedCursor(heap.Ref(ids[25]))
	if err != nil {
		t.Fatal(err)
	}
	const remote = heap.ObjID(1 << 40)
	placeholder, err := f.rt.ObjProxyFor(remote, "Node")
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := f.rt.NewObject(f.node, clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	if mgr.ProxyCount() != proxies+2 || mgr.ObjProxyCount() != objProxies+1 {
		t.Fatalf("before Collect: %d proxies, %d object-fault proxies; want %d and %d",
			mgr.ProxyCount(), mgr.ObjProxyCount(), proxies+2, objProxies+1)
	}
	checkClean(t, f.rt)

	st := f.rt.Collect()
	swept := []heap.ObjID{shared, cursor.MustRef(), placeholder, orphan.ID()}
	for _, id := range swept {
		if !slices.ContainsFunc(st.Swept, func(o *heap.Object) bool { return o.ID() == id }) || f.rt.h.Contains(id) {
			t.Fatalf("@%d not swept: swept %v", id, st.Swept)
		}
	}
	if got := mgr.ProxyCount(); got != proxies {
		t.Errorf("ProxyCount = %d, want %d", got, proxies)
	}
	if got := mgr.ObjProxyCount(); got != objProxies {
		t.Errorf("ObjProxyCount = %d, want %d", got, objProxies)
	}
	if _, ok := mgr.lookupObjProxy(remote); ok {
		t.Error("the object-fault proxy is still indexed under its remote")
	}
	if _, ok := mgr.lookupProxy(proxyKey{RootCluster, ids[15]}); ok {
		t.Error("the shared proxy is still offered for reuse")
	}
	if _, ok := mgr.member(orphan.ID()); ok {
		t.Error("the swept member still has a membership record")
	}
	if info, err := mgr.Info(clusters[1]); err != nil || info.Objects != 10 {
		t.Errorf("cluster %d after Collect: %+v, %v; want its 10 live members", clusters[1], info, err)
	}
	for _, c := range clusters {
		for _, p := range mgr.inboundProxies(c, nil) {
			if slices.Contains(swept, p.ID()) {
				t.Errorf("swept @%d still in the inbound list of cluster %d", p.ID(), c)
			}
		}
	}
	if got := edges(RootCluster, clusters[1]); got != sharedEdges {
		t.Errorf("outbound edges root -> %d = %d, want %d", clusters[1], got, sharedEdges)
	}
	if got := edges(RootCluster, clusters[2]); got != cursorEdges {
		t.Errorf("outbound edges root -> %d = %d, want %d", clusters[2], got, cursorEdges)
	}
	checkClean(t, f.rt)
}

// inboundProxies appends the proxies cluster id lists as inbound to buf.
func (m *Manager) inboundProxies(id ClusterID, buf []*heap.Object) []*heap.Object {
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	if cs, ok := m.table.clusters[id]; ok {
		buf = append(buf, cs.inbound...)
	}
	return buf
}

// TestReclaimingProxiesAllocatesOnlySwept: the Collect after Figure 5's B1
// over clusters of 20 reclaims the ~10 000 swap-cluster-proxies the walk
// minted and allocates only the heap's sweep buffer, grown once to the exact
// count: 8.2 B per reclaimed proxy measured (one pointer each, and the
// rounding of one large allocation), 31.0 B while the swept list grew by
// appending, and nothing per object beside it. check.sh runs it by name.
func TestReclaimingProxiesAllocatesOnlySwept(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	const n = 10000
	f := newFixture(t, 0)
	f.buildList(t, n, 20, 8)
	cur := f.head(t)
	for i := 1; i < n; i++ {
		out, err := f.rt.Invoke(cur, "next")
		if err != nil || !out[0].IsRef() {
			t.Fatalf("B1 step %d: %v, %v", i, out, err)
		}
		cur = out[0]
	}
	before := f.rt.mgr.ProxyCount()
	var st heap.CollectStats
	_, bytes := mallocs(func() { st = f.rt.Collect() })
	reclaimed := before - f.rt.mgr.ProxyCount()
	if reclaimed < n*9/10 || st.Reclaimed < reclaimed {
		t.Fatalf("Collect reclaimed %d objects, %d of them proxies; want about %d proxies", st.Reclaimed, reclaimed, n)
	}
	// measured is the figure above; margin absorbs a size class of rounding
	// on the buffer, not a second allocation per proxy.
	const measured, margin = 8.2, 0.8
	per := float64(bytes) / float64(reclaimed)
	t.Logf("Collect allocated %d B for %d reclaimed proxies (%.1f B each)", bytes, reclaimed, per)
	if per > measured+margin {
		t.Fatalf("want at most %.1f B per reclaimed proxy", measured+margin)
	}
	checkClean(t, f.rt)
}

// TestSwapDropsFollowSweepOrder: when one Collect finds several swapped
// clusters dead, their donor drops and swap.drop events come in the order the
// heap swept their replacement-objects, so runtimes built by the same calls
// emit the same drops in the same order.
func TestSwapDropsFollowSweepOrder(t *testing.T) {
	var first []ClusterID
	for run := 0; run < 6; run++ {
		bus := event.NewBus()
		f := newFixture(t, 0, WithBus(bus))
		_, clusters := f.buildList(t, 80, 8, 8)
		for _, c := range clusters[1:] {
			if _, err := f.rt.SwapOut(c); err != nil {
				t.Fatal(err)
			}
		}
		var mu sync.Mutex
		var drops []ClusterID
		bus.Subscribe(event.TopicSwapDrop, func(e event.Event) {
			mu.Lock()
			drops = append(drops, e.Payload.(SwapEvent).Cluster)
			mu.Unlock()
		})
		if err := f.rt.SetRoot("head", heap.Nil()); err != nil {
			t.Fatal(err)
		}
		st := f.rt.Collect()
		var swept []ClusterID
		for _, o := range st.Swept {
			if o.Class().Special == heap.SpecialReplacement {
				v, err := o.FieldByName(fldClust)
				if err != nil {
					t.Fatal(err)
				}
				swept = append(swept, ClusterID(v.MustInt()))
			}
		}
		mu.Lock()
		got := slices.Clone(drops)
		mu.Unlock()
		if len(got) != len(clusters)-1 {
			t.Fatalf("run %d: %d swap.drop events, want one for each of the %d dead swapped clusters", run, len(got), len(clusters)-1)
		}
		if !slices.Equal(got, swept) {
			t.Fatalf("run %d: swap.drop order %v, replacement-objects swept in order %v", run, got, swept)
		}
		if first == nil {
			first = got
		} else if !slices.Equal(got, first) {
			t.Fatalf("run %d: swap.drop order %v, the first run's %v", run, got, first)
		}
	}
}

// TestSwapInFreesItsReplacement: a swap-in frees its replacement-object when
// it commits, as a swap-out frees its members, so no collection is left to
// find it — a young pass could not, since an earlier pass marked it.
func TestSwapInFreesItsReplacement(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 40, 10, 8)
	for _, c := range clusters[1:] {
		if _, err := f.rt.SwapOut(c); err != nil {
			t.Fatal(err)
		}
	}
	f.rt.Collect() // every replacement-object is old now
	for _, c := range clusters[1:] {
		f.rt.mgr.table.mu.Lock()
		repl := f.rt.mgr.table.clusters[c].replacement
		f.rt.mgr.table.mu.Unlock()
		if _, err := f.rt.SwapIn(c); err != nil {
			t.Fatal(err)
		}
		if f.rt.h.Contains(repl) {
			t.Fatalf("cluster %d: replacement-object @%d still resident after its swap-in", c, repl)
		}
	}
	st := f.rt.Collect()
	for _, o := range st.Swept {
		if o.Class().Special == heap.SpecialReplacement {
			t.Fatalf("Collect after the swap-ins swept replacement-object %v", o)
		}
	}
	checkClean(t, f.rt)
}

// TestZeroEdgeWaitsForThePurge: the edge count of proxies that died in a
// collection stays in its source's list at zero, so the proxy minted again
// after it finds its count where it left it; the next purge drops a count
// still at zero. The invariants hold at every step: they count no zero.
// Counts that fall to zero over and over with no purge between — edges moved
// back and forth by splits and merges — list each record once.
func TestZeroEdgeWaitsForThePurge(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 30, 10, 8)
	mgr := f.rt.mgr
	src, far := clusters[0], clusters[2]
	edge := func() (n int32, listed bool) {
		mgr.table.mu.Lock()
		defer mgr.table.mu.Unlock()
		for _, e := range mgr.table.clusters[src].edges {
			if e.to == far {
				return e.n, true
			}
		}
		return 0, false
	}
	mint := func(target heap.ObjID) {
		t.Helper()
		if _, err := f.rt.newProxy(src, target, true); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, wantN int32, wantListed bool) {
		t.Helper()
		if n, listed := edge(); n != wantN || listed != wantListed {
			t.Fatalf("%s: edge %d -> %d counts %d (listed %v), want %d (listed %v)", step, src, far, n, listed, wantN, wantListed)
		}
		checkClean(t, f.rt)
	}

	check("before", 0, false)
	mint(ids[25])
	check("minted", 1, true)
	f.rt.Collect()
	check("swept", 0, true)
	mint(ids[25])
	check("minted again", 1, true)
	f.rt.Collect()
	check("swept again", 0, true)
	mint(ids[15]) // garbage into another cluster, so the next pass purges
	f.rt.Collect()
	check("purged", 0, false)

	// Two sources count proxies into far's member; each split of that member
	// into a fresh cluster and merge back moves both counts to zero, in turn.
	other := clusters[1]
	for _, s := range []ClusterID{src, other} {
		if _, err := f.rt.newProxy(s, ids[25], true); err != nil {
			t.Fatal(err)
		}
	}
	var zeroed []*clusterState
	for round := range 20 {
		fresh, err := f.rt.SplitCluster(far, ids[25:26])
		if err == nil {
			err = f.rt.MergeClusters(far, fresh)
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		mgr.table.mu.Lock()
		zeroed = append(zeroed[:0], mgr.table.zeroed...)
		mgr.table.mu.Unlock()
		for i, cs := range zeroed {
			if slices.Contains(zeroed[:i], cs) {
				t.Fatalf("round %d: cluster %d is listed twice among %d zeroed records", round, cs.id, len(zeroed))
			}
		}
	}
	if len(zeroed) == 0 {
		t.Fatal("no count fell to zero: the rounds tested nothing")
	}
	checkClean(t, f.rt)
}
