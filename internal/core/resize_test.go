package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

func TestMergeClustersDismantlesBoundary(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 20, 10, 8)
	want := f.snapshotTags(t)

	before := f.rt.Manager().ProxyCount() // 1 internal boundary + root
	if err := f.rt.MergeClusters(clusters[0], clusters[1]); err != nil {
		t.Fatal(err)
	}
	checkClean(t, f.rt)

	// The node-9 → node-10 edge is direct now.
	n9, _ := f.rt.Heap().Get(ids[9])
	nv, _ := n9.FieldByName("next")
	if nv.MustRef() != ids[10] {
		t.Fatalf("boundary edge not dismantled: %v", nv)
	}
	// The boundary proxy is garbage after a collection.
	f.rt.Collect()
	if got := f.rt.Manager().ProxyCount(); got >= before {
		t.Fatalf("proxy count %d not reduced from %d", got, before)
	}
	// Graph unchanged from the application's view.
	got := f.snapshotTags(t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// src cluster is gone.
	if _, err := f.rt.Manager().Info(clusters[1]); !errors.Is(err, ErrUnknownCluster) {
		t.Fatalf("merged cluster still tracked: %v", err)
	}
	// All 20 objects in dst.
	info, _ := f.rt.Manager().Info(clusters[0])
	if info.Objects != 20 {
		t.Fatalf("dst holds %d objects", info.Objects)
	}
}

func TestMergeValidation(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 20, 10, 8)
	if err := f.rt.MergeClusters(clusters[0], RootCluster); !errors.Is(err, ErrRootCluster) {
		t.Errorf("merge root as src: %v", err)
	}
	if err := f.rt.MergeClusters(clusters[0], clusters[0]); err == nil {
		t.Error("self-merge accepted")
	}
	if err := f.rt.MergeClusters(clusters[0], ClusterID(99)); !errors.Is(err, ErrUnknownCluster) {
		t.Errorf("merge unknown: %v", err)
	}
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.MergeClusters(clusters[0], clusters[1]); !errors.Is(err, ErrClusterSwapped) {
		t.Errorf("merge swapped: %v", err)
	}
}

func TestMergeIntoRootCluster(t *testing.T) {
	// Demote a cluster into the global space: its objects become
	// swap-cluster-0 members and root references to them are dismantled.
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 10, 10, 8)
	if !f.rt.IsProxyRef(f.head(t)) {
		t.Fatal("precondition: head should be proxied")
	}
	if err := f.rt.MergeClusters(RootCluster, clusters[0]); err != nil {
		t.Fatal(err)
	}
	checkClean(t, f.rt)
	head := f.head(t)
	if f.rt.IsProxyRef(head) {
		t.Fatal("root still proxied after demotion into cluster 0")
	}
	if head.MustRef() != ids[0] {
		t.Fatalf("head = %v", head)
	}
}

func TestSplitClusterMediatesNewBoundary(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 10, 10, 8)
	want := f.snapshotTags(t)

	fresh, err := f.rt.SplitCluster(clusters[0], ids[5:])
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, f.rt)

	// The 4→5 edge now crosses a boundary: proxied.
	n4, _ := f.rt.Heap().Get(ids[4])
	nv, _ := n4.FieldByName("next")
	if !f.rt.IsProxyRef(nv) {
		t.Fatalf("new boundary edge not mediated: %v", nv)
	}
	// Both halves report the right sizes.
	a, _ := f.rt.Manager().Info(clusters[0])
	b, _ := f.rt.Manager().Info(fresh)
	if a.Objects != 5 || b.Objects != 5 {
		t.Fatalf("split sizes = %d/%d", a.Objects, b.Objects)
	}
	// Graph unchanged for the application.
	got := f.snapshotTags(t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// The new half is independently swappable.
	if _, err := f.rt.SwapOut(fresh); err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	got = f.snapshotTags(t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after swap: tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSplitValidation(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 10, 10, 8)
	if _, err := f.rt.SplitCluster(RootCluster, ids[:2]); !errors.Is(err, ErrRootCluster) {
		t.Errorf("split root: %v", err)
	}
	if _, err := f.rt.SplitCluster(clusters[0], nil); !errors.Is(err, ErrClusterEmpty) {
		t.Errorf("empty split: %v", err)
	}
	if _, err := f.rt.SplitCluster(clusters[0], []heap.ObjID{999999}); err == nil {
		t.Error("split of non-member accepted")
	}
	if _, err := f.rt.SwapOut(clusters[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SplitCluster(clusters[0], ids[:2]); !errors.Is(err, ErrClusterSwapped) {
		t.Errorf("split swapped: %v", err)
	}
}

func TestMergeThenSwapRoundTrip(t *testing.T) {
	// Merged clusters must ship and reload as one macro-object.
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 30, 10, 8)
	want := f.snapshotTags(t)
	if err := f.rt.MergeClusters(clusters[1], clusters[2]); err != nil {
		t.Fatal(err)
	}
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Objects != 20 {
		t.Fatalf("merged shipment = %d objects", ev.Objects)
	}
	f.rt.Collect()
	got := f.snapshotTags(t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Property: random merge/split sequences preserve the application view and
// every middleware invariant.
func TestPropResizePreservesGraph(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := newFixture(t, 0)
		n := 20 + r.Intn(30)
		ids, _ := f.buildList(t, n, 5+r.Intn(5), 8)
		want := f.snapshotTags(t)

		for step := 0; step < 10; step++ {
			// Collect current non-root, loaded clusters.
			var loaded []ClusterID
			for _, info := range f.rt.Manager().InfoAll() {
				if info.ID != RootCluster && !info.Swapped && info.Objects > 0 {
					loaded = append(loaded, info.ID)
				}
			}
			if len(loaded) == 0 {
				break
			}
			if r.Intn(2) == 0 && len(loaded) >= 2 {
				a, b := loaded[r.Intn(len(loaded))], loaded[r.Intn(len(loaded))]
				if a == b {
					continue
				}
				if err := f.rt.MergeClusters(a, b); err != nil {
					t.Logf("seed %d: merge: %v", seed, err)
					return false
				}
			} else {
				c := loaded[r.Intn(len(loaded))]
				info, _ := f.rt.Manager().Info(c)
				if info.Objects < 2 {
					continue
				}
				// Split off a random strict subset of members.
				var members []heap.ObjID
				for _, oid := range ids {
					if f.rt.Manager().ClusterOf(oid) == c {
						members = append(members, oid)
					}
				}
				k := 1 + r.Intn(len(members)-1)
				if _, err := f.rt.SplitCluster(c, members[:k]); err != nil {
					t.Logf("seed %d: split: %v", seed, err)
					return false
				}
			}
			if errs := f.rt.Manager().CheckInvariants(); len(errs) > 0 {
				for _, e := range errs {
					t.Logf("seed %d step %d: %v", seed, step, e)
				}
				return false
			}
		}
		got := f.snapshotTags(t)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRetargetAfterDeathDoesNotResurrect(t *testing.T) {
	// Regression: retargeting a proxy whose finalizer already purged it must
	// not re-enter registry records under a zero-valued key.
	f := newFixture(t, 0)
	ids, _ := f.buildList(t, 20, 10, 8)
	pid, err := f.rt.proxyFor(RootCluster, ids[15])
	if err != nil {
		t.Fatal(err)
	}
	before := f.rt.Manager().ProxyCount()
	f.rt.Collect() // unreferenced: collected, finalizer purges
	if got := f.rt.Manager().ProxyCount(); got >= before {
		t.Fatalf("proxy not purged (%d -> %d)", before, got)
	}
	f.rt.Manager().retargetProxy(pid, ids[3], f.rt.Manager().ClusterOf(ids[3]))
	checkClean(t, f.rt)
	if got := f.rt.Manager().ProxyCount(); got >= before {
		t.Fatalf("dead proxy resurrected (%d)", got)
	}
}

func TestCursorSurvivesReloadEvictionStorm(t *testing.T) {
	// Regression: a host-held cursor must survive the collections its own
	// Field reloads trigger (nursery grace is finite; frame protection and
	// touch-on-use carry it through).
	node := newNodeClass()
	h := heap.New(7 << 10)
	h.SetNurseryGrace(2)
	devices := store.NewRegistry(store.SelectMostFree)
	_ = devices.Add("d", store.NewMem(0))
	rt := NewRuntime(h, heap.NewRegistry(), WithStores(devices))
	rt.MustRegisterClass(node)
	rt.SetEvictor(func(need int64) error { return rt.EvictWith(EvictOptions{}, need) })

	// Three chains, each its own cluster; the heap holds roughly one.
	const chains, per = 3, 20
	for c := 0; c < chains; c++ {
		cluster := rt.Manager().NewCluster()
		var prev *heap.Object
		for i := 0; i < per; i++ {
			o, err := rt.NewObject(node, cluster)
			if err != nil {
				t.Fatalf("chain %d obj %d: %v", c, i, err)
			}
			o.MustSet("payload", heap.Bytes(make([]byte, 64))).
				MustSet("tag", heap.Int(int64(c*100+i)))
			if prev == nil {
				if err := rt.SetRoot(fmt.Sprintf("c%d", c), o.RefTo()); err != nil {
					t.Fatal(err)
				}
			} else if err := rt.SetFieldValue(prev.RefTo(), "next", o.RefTo()); err != nil {
				t.Fatal(err)
			}
			prev = o
		}
	}
	// Walk all chains with cursors; every boundary reload evicts others.
	for round := 0; round < 3; round++ {
		for c := 0; c < chains; c++ {
			root := mustRoot(t, rt, fmt.Sprintf("c%d", c))
			cur, err := rt.AssignedCursor(root)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for !cur.IsNil() {
				tag, err := rt.Field(cur, "tag")
				if err != nil {
					t.Fatalf("round %d chain %d node %d: %v", round, c, count, err)
				}
				if tag.MustInt() != int64(c*100+count) {
					t.Fatalf("round %d chain %d node %d: tag %v", round, c, count, tag)
				}
				cur, err = rt.Field(cur, "next")
				if err != nil {
					t.Fatalf("round %d chain %d node %d advance: %v", round, c, count, err)
				}
				count++
			}
			if count != per {
				t.Fatalf("round %d chain %d: %d nodes", round, c, count)
			}
		}
	}
	checkClean(t, rt)
}
