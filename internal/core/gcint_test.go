package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/store"
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
		mgr.rt.lock()
		defer mgr.rt.unlock()
		for _, e := range mgr.table.clusters.get(src).edges {
			if e.to == home {
				return e.n
			}
		}
		return 0
	}
	sharedEdges, cursorEdges := edges(RootCluster, clusters[1]), edges(RootCluster, clusters[2])

	shared, err := f.rt.lockedProxyFor(RootCluster, ids[15])
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

	var sweptIDs []heap.ObjID
	onSweep(f.rt, func(o *heap.Object) { sweptIDs = append(sweptIDs, o.ID()) })
	letGo(f.rt)
	f.rt.Collect()
	swept := []heap.ObjID{shared, cursor.MustRef(), placeholder, orphan.ID()}
	for _, id := range swept {
		if !slices.Contains(sweptIDs, id) || f.rt.lockedContains(id) {
			t.Fatalf("@%d not swept: swept %v", id, sweptIDs)
		}
	}
	if got := mgr.ProxyCount(); got != proxies {
		t.Errorf("ProxyCount = %d, want %d", got, proxies)
	}
	if got := mgr.ObjProxyCount(); got != objProxies {
		t.Errorf("ObjProxyCount = %d, want %d", got, objProxies)
	}
	if _, ok := mgr.table.objProxies[remote]; ok {
		t.Error("the object-fault proxy is still indexed under its remote")
	}
	if _, ok := mgr.table.proxies.get(proxyKey{RootCluster, ids[15]}); ok {
		t.Error("the shared proxy is still offered for reuse")
	}
	if mgr.table.listing(orphan.ID()) != nil {
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

// onSweep re-registers rt as its heap's owner with a purge that first shows
// fn every object the collection swept, in sweep order, fields intact.
func onSweep(rt *Runtime, fn func(o *heap.Object)) {
	owner := rt.owner()
	purge := owner.Purge
	owner.Purge = func(swept []*heap.Object) {
		for _, o := range swept {
			fn(o)
		}
		purge(swept)
	}
	rt.h.RegisterOwner(owner)
}

// TestHeapCollectionPurgesTheManager: a collection host code reaches through
// the heap, under the runtime lock, purges the manager's records of what it
// swept before it returns, as Runtime.Collect does: an unrooted shared proxy
// and an unrooted member leave no inbound entry, shared-index entry, edge
// count or membership record behind, and no later collection has to mend
// anything.
func TestHeapCollectionPurgesTheManager(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 30, 10, 8)
	shared, err := f.rt.lockedProxyFor(RootCluster, ids[15])
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := f.rt.NewObject(f.node, clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	letGo(f.rt)
	f.rt.Locked(func(h *Held) { h.Heap().Collect() })
	if f.rt.lockedContains(shared) || f.rt.lockedContains(orphan.ID()) {
		t.Fatal("the heap's collection did not sweep the unrooted proxy and member")
	}
	checkClean(t, f.rt)
	if _, ok := f.rt.mgr.table.proxies.get(proxyKey{RootCluster, ids[15]}); ok {
		t.Error("the swept shared proxy is still offered for reuse")
	}
	f.rt.Collect()
	checkClean(t, f.rt)
}

// TestHeapCollectionKeepsParkedFrames: a collection host code reaches through
// the heap, while a method call is parked on its receiver's demand fault with
// the runtime lock let go, marks from the invocation stack: the argument
// that only the host and the parked frame hold survives, and the call
// stores it once the fault lands.
func TestHeapCollectionKeepsParkedFrames(t *testing.T) {
	devices := store.NewRegistry(store.SelectMostFree)
	gs := &gatedStore{Mem: store.NewMem(0)}
	if err := devices.Add("pda-neighbor", gs); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices))
	node := rt.MustRegisterClass(newNodeClass())
	ids := buildChain(t, rt, 2, 4) // nodes 0-3 in a, 4-7 in b
	a, b := ids[0], ids[1]
	f := &fixture{rt: rt}
	node4 := heap.Ref(slices.Min(members(f, b)))
	ev, err := rt.SwapOut(b)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rt.NewObject(node, a)
	if err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	gs.key, gs.gate = ev.Key, make(chan struct{})
	gs.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := rt.Invoke(node4, "setNext", fresh.RefTo())
		done <- err
	}()
	waitUntil(t, func() bool { return gs.waiting() == 1 })
	rt.Locked(func(h *Held) { h.Heap().Collect() })
	close(gs.gate)
	if err := <-done; err != nil {
		t.Fatalf("the parked call failed after the heap's collection: %v", err)
	}
	if !rt.lockedContains(fresh.ID()) {
		t.Fatal("the parked call's argument was swept")
	}
	next, err := rt.Field(node4, "next")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rt.lockedUltimateOf(next); err != nil || got != fresh.ID() {
		t.Fatalf("node 4's next leads to @%d (%v), want the argument @%d", got, err, fresh.ID())
	}
	checkClean(t, rt)
}

// inboundProxies appends the proxies cluster id lists as inbound to buf.
func (m *Manager) inboundProxies(id ClusterID, buf []*heap.Object) []*heap.Object {
	m.rt.lock()
	defer m.rt.unlock()
	if cs := m.table.clusters.get(id); cs != nil {
		buf = append(buf, cs.inbound...)
	}
	return buf
}

// TestReclaimingProxiesAllocatesOnlySwept: Figure 5's B1 over clusters of 20
// mints about 10 000 swap-cluster-proxies a pass. A window of two such
// passes, each followed by its Collect, allocates the first pass's proxy
// blocks and, in the first Collect, the heap's sweep buffer and its pool,
// each grown once to its exact size: that Collect gives the swept blocks
// back before it returns, so the second pass reissues every one and its
// Collect allocates nothing. The window measured 12 586 objects and
// 3 549 088 B; while a swept block joined the pool one collection later it
// allocated 22 585 objects and 5 148 928 B, the second pass minting a second
// generation of blocks. A warm Collect after a warm pass
// allocates nothing. check.sh runs it by name.
func TestReclaimingProxiesAllocatesOnlySwept(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	const n = 10000
	// Measured plus a margin of a few map and slice growths; the parent
	// figures stay out of reach.
	const windowObjects, windowBytes = 12586 + 64, 3549088 + 64<<10
	f := newFixture(t, 0)
	f.buildList(t, n, 20, 8)
	pass := func() {
		cur := f.head(t)
		for i := 1; i < n; i++ {
			out, err := f.rt.Invoke(cur, "next")
			if err != nil || !out[0].IsRef() {
				t.Fatalf("B1 step %d: %v, %v", i, out, err)
			}
			cur = out[0]
		}
	}
	collect := func() {
		before := f.rt.mgr.ProxyCount()
		st := f.rt.Collect()
		if reclaimed := before - f.rt.mgr.ProxyCount(); reclaimed < n*9/10 || st.Reclaimed < reclaimed {
			t.Fatalf("Collect reclaimed %d objects, %d of them proxies; want about %d proxies", st.Reclaimed, reclaimed, n)
		}
	}
	objects, bytes := mallocs(func() {
		pass()
		collect()
		pass()
		collect()
	})
	t.Logf("two B1 passes and their Collects allocated %d objects, %d B", objects, bytes)
	if objects > windowObjects || bytes > windowBytes {
		t.Fatalf("want at most %d objects and %d B", windowObjects, windowBytes)
	}
	pass()
	if objects, bytes := mallocs(collect); objects != 0 {
		t.Fatalf("a warm Collect after a warm pass allocated %d objects, %d B; want none", objects, bytes)
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
		var swept []ClusterID
		onSweep(f.rt, func(o *heap.Object) {
			if o.Class().Special == heap.SpecialReplacement {
				v, err := o.FieldByName(fldClust)
				if err != nil {
					t.Fatal(err)
				}
				swept = append(swept, ClusterID(v.MustInt()))
			}
		})
		f.rt.Collect()
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
		f.rt.lock()
		repl := f.rt.mgr.table.clusters.get(c).replacement
		f.rt.unlock()
		if _, err := f.rt.SwapIn(c); err != nil {
			t.Fatal(err)
		}
		if f.rt.lockedContains(repl) {
			t.Fatalf("cluster %d: replacement-object @%d still resident after its swap-in", c, repl)
		}
	}
	onSweep(f.rt, func(o *heap.Object) {
		if o.Class().Special == heap.SpecialReplacement {
			t.Fatalf("Collect after the swap-ins swept replacement-object %v", o)
		}
	})
	f.rt.Collect()
	checkClean(t, f.rt)
}

// replacementBlock returns the block of cluster c's replacement-object and
// the id it is resident under.
func replacementBlock(t *testing.T, f *fixture, c ClusterID) (*heap.Object, heap.ObjID) {
	t.Helper()
	f.rt.lock()
	defer f.rt.unlock()
	id := f.rt.mgr.table.clusters.get(c).replacement
	o, err := f.rt.h.Get(id)
	if err != nil {
		t.Fatalf("cluster %d: %v", c, err)
	}
	return o, id
}

// TestReplacementBlocksReissued: a swap-in's commit gives its retired
// replacement-object's block to the heap's pool, and the next swap-out
// reissues it under a fresh id, so cycling K clusters out and in N times
// allocates K replacement blocks in all — one per cluster out at once.
func TestReplacementBlocksReissued(t *testing.T) {
	const k, rounds = 4, 5
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 10*(k+1), 10, 8)
	blocks := map[*heap.Object]bool{}
	ids := map[heap.ObjID]bool{}
	for round := 0; round < rounds; round++ {
		for _, c := range clusters[1:] {
			if _, err := f.rt.SwapOut(c); err != nil {
				t.Fatal(err)
			}
			o, id := replacementBlock(t, f, c)
			if ids[id] {
				t.Fatalf("round %d: cluster %d's replacement reissued under a used id @%d", round, c, id)
			}
			blocks[o], ids[id] = true, true
		}
		for _, c := range clusters[1:] {
			if _, err := f.rt.SwapIn(c); err != nil {
				t.Fatal(err)
			}
		}
		checkClean(t, f.rt)
	}
	if len(blocks) != k {
		t.Fatalf("%d swap-outs of %d clusters used %d replacement blocks, want %d", rounds*k, k, len(blocks), k)
	}
	wantTag(t, f, f.head(t), 0)
}

// refusingStore is an in-memory donor whose puts fail once armed, after
// running onPut with the runtime lock released.
type refusingStore struct {
	*store.Mem
	onPut func()
}

func (s *refusingStore) PutEnvelope(ctx context.Context, key string, data []byte, opts store.PutOpts) error {
	if s.onPut == nil {
		return s.Mem.PutEnvelope(ctx, key, data, opts)
	}
	s.onPut()
	return store.ErrUnavailable
}

// TestReplacementBlockPooledOnEveryRetirement: a replacement-object's block
// joins the pool however the replacement retires — removed by the swap-out
// that built it and then failed, or swept with its dead cluster by a
// collection — and the next swap-out reissues it.
func TestReplacementBlockPooledOnEveryRetirement(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 40, 10, 8)
	donor := &refusingStore{Mem: f.mem}
	f.reg.Remove("pda-neighbor")
	if err := f.reg.Add("pda-neighbor", donor); err != nil {
		t.Fatal(err)
	}

	// The ship fails with the replacement built: op.end removes it.
	var failed *heap.Object
	donor.onPut = func() {
		f.rt.Locked(func(x *Held) {
			for _, id := range x.Heap().IDs() {
				if o, _ := x.Heap().Get(id); o.Class().Special == heap.SpecialReplacement {
					failed = o
				}
			}
		})
	}
	if _, err := f.rt.SwapOut(clusters[1]); err == nil {
		t.Fatal("the swap-out succeeded over a refusing donor")
	}
	donor.onPut = nil
	if failed == nil {
		t.Fatal("the failed swap-out built no replacement-object")
	}
	if _, err := f.rt.SwapOut(clusters[3]); err != nil {
		t.Fatal(err)
	}
	if got, _ := replacementBlock(t, f, clusters[3]); got != failed {
		t.Fatal("the swap-out after a failed one did not reissue the removed replacement's block")
	}
	checkClean(t, f.rt)

	// Cut the list before clusters[3]: the collection sweeps its replacement
	// with the dead cluster, and the next swap-out reissues the block.
	swept, _ := replacementBlock(t, f, clusters[3])
	if err := f.rt.SetFieldValue(heap.Ref(ids[29]), "next", heap.Nil()); err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	if f.rt.Manager().IsSwapped(clusters[3]) {
		t.Fatal("the collection did not forget the dead swapped cluster")
	}
	if _, err := f.rt.SwapOut(clusters[2]); err != nil {
		t.Fatal(err)
	}
	if got, _ := replacementBlock(t, f, clusters[2]); got != swept {
		t.Fatal("the swap-out after the collection did not reissue the swept replacement's block")
	}
	checkClean(t, f.rt)
	wantTag(t, f, f.head(t), 0)
}

// TestStaleReplacementHolderRefused: a holder that kept a replacement-object's
// block and id across its swap-in, once a later swap-out has reissued the
// block as another cluster's replacement, sees ResidentAs(old) false and
// writes nothing through SetFieldAs, so the replacement the block has become
// still reloads its own cluster (DESIGN §6, "Who may hold a pooled block").
func TestStaleReplacementHolderRefused(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 30, 10, 8)
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	block, old := replacementBlock(t, f, clusters[1])
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapOut(clusters[2]); err != nil {
		t.Fatal(err)
	}
	if now, id := replacementBlock(t, f, clusters[2]); now != block || id == old {
		t.Fatalf("cluster %d's replacement is @%d in another block, want the retired block under a fresh id", clusters[2], id)
	}
	var err error
	f.rt.Locked(func(*Held) {
		if block.ResidentAs(old) {
			t.Error("ResidentAs holds under the retired id")
		}
		err = block.SetFieldAs(old, 0, heap.Int(int64(clusters[1])))
	})
	if !errors.Is(err, heap.ErrNoSuchObject) {
		t.Fatalf("SetFieldAs under the retired id: %v, want heap.ErrNoSuchObject", err)
	}
	f.rt.Locked(func(*Held) {
		if got := replacementCluster(block); got != clusters[2] {
			t.Errorf("the reissued replacement stands for cluster %d, want %d", got, clusters[2])
		}
	})
	checkClean(t, f.rt)
	if tag, err := f.rt.Field(heap.Ref(ids[25]), "tag"); err != nil || tag.MustInt() != 25 {
		t.Fatalf("node 25 after its reload: %v, %v", tag, err)
	}
	if f.rt.Manager().IsSwapped(clusters[2]) {
		t.Fatal("reading a member did not reload its cluster")
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
		mgr.rt.lock()
		defer mgr.rt.unlock()
		for _, e := range mgr.table.clusters.get(src).edges {
			if e.to == far {
				return e.n, true
			}
		}
		return 0, false
	}
	mint := func(target heap.ObjID) {
		t.Helper()
		if _, err := f.rt.lockedNewProxy(src, target, true); err != nil {
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
		if _, err := f.rt.lockedNewProxy(s, ids[25], true); err != nil {
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
		mgr.rt.lock()
		zeroed = append(zeroed[:0], mgr.table.zeroed...)
		mgr.rt.unlock()
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
