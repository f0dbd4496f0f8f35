package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"objectswap/internal/heap"
)

// liveHeapBytes is the Go heap in use once everything unreachable is gone.
func liveHeapBytes() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLiveProxyHostBytes pins what one live boundary proxy costs the host's
// own memory, beside the byte the heap accounts for it: unlinked clusters are
// built, then linked into one list, and the Go heap's growth is divided by
// the swap-cluster-proxies the links minted. A proxy pays for
//   - its block: the object header and its four slots, one allocation
//     (160 B);
//   - its slot in the heap's object index and its entry in the resident list
//     (16 B a slot at 4/3 to 8/3 slots a resident, plus 8 B);
//   - its entry in the shared-proxy index (Manager.proxies);
//   - its entry in the inbound list of its target's cluster (8 B);
//   - its count in its source's edges (8 B an edge, shared by every proxy
//     between the same two clusters).
//
// With clusters of 1 every proxy is its own edge and every cluster's lists
// are one entry long; with clusters of 32 a link inside a cluster mints
// nothing. While each proxy kept a record of its own and each cluster two
// small Go maps of its inbound proxies and outbound edges, the same links
// cost 796.7 and 754.7 B a proxy. check.sh runs it by name.
func TestLiveProxyHostBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("host-memory budgets are gated without the race detector")
	}
	for _, tc := range []struct {
		clusters, per int
		budget        float64 // B per live proxy
	}{
		{32000, 1, 285}, // measured 255.2 B
		{1000, 32, 241}, // measured 212.9 B
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.clusters, tc.per), func(t *testing.T) {
			f := newFixture(t, 0)
			objs := make([]*heap.Object, 0, tc.clusters*tc.per)
			for c := 0; c < tc.clusters; c++ {
				cluster := f.rt.Manager().NewCluster()
				for i := 0; i < tc.per; i++ {
					o, err := f.rt.NewObject(f.node, cluster)
					if err != nil {
						t.Fatal(err)
					}
					objs = append(objs, o)
				}
			}
			if err := f.rt.SetRoot("head", objs[0].RefTo()); err != nil {
				t.Fatal(err)
			}
			proxies := f.rt.Manager().ProxyCount()
			before := liveHeapBytes()
			for i := 0; i+1 < len(objs); i++ {
				if err := f.rt.SetFieldValue(objs[i].RefTo(), "next", objs[i+1].RefTo()); err != nil {
					t.Fatalf("link %d: %v", i, err)
				}
			}
			after := liveHeapBytes()
			minted := f.rt.Manager().ProxyCount() - proxies
			if want := tc.clusters - 1; minted != want {
				t.Fatalf("linking minted %d proxies, want %d", minted, want)
			}
			per := float64(after-before) / float64(minted)
			t.Logf("%d clusters of %d: %d proxies, %.1f B of Go heap each", tc.clusters, tc.per, minted, per)
			if per > tc.budget {
				t.Fatalf("a live proxy costs %.1f B of host memory, budget is %.0f B", per, tc.budget)
			}
			checkClean(t, f.rt)
			runtime.KeepAlive(objs)
		})
	}
}

// TestSwappedResidue pins what a swapped-out cluster leaves behind in the
// host's own memory, per member it shipped: lists of clusters of 32 members
// with 64 B payloads are built, every cluster is swapped out, a collection
// runs, and the Go heap's growth over the empty runtime, less the bytes the
// in-memory donor holds, is divided by the members shipped. A swapped member
// still pays for
//   - a 32nd of its cluster's one member run (16 B), the record's only
//     list of its members;
//   - a 32nd of its cluster's replacement-object (≈ 10 B) and of its cluster
//     record (≈ 13 B);
//   - the heap's object index, sized by peak residency and never shrunk
//     (≈ 36 B), and the donor's own per-key bookkeeping (≈ 5 B).
//
// While every member also had an entry in an object-to-cluster index (a Go
// map, ≈ 30 B) and an 8 B id in its cluster's sorted member list, a swapped
// member cost 118.8 and 110.4 B; while membership was also a
// map[heap.ObjID]bool per cluster and the retained copy kept a member table
// of its own, 188.6 and 187.4 B. The budgets are the measurements plus
// residueMargin. check.sh runs it by name.
func TestSwappedResidue(t *testing.T) {
	if raceEnabled {
		t.Skip("host-memory budgets are gated without the race detector")
	}
	// residueMargin is the slack over the measured residue: what Go's size
	// classes and map growth may move on another toolchain or word size.
	const residueMargin = 6.5
	for _, tc := range []struct {
		clusters int
		budget   float64 // B per swapped member
	}{
		{3125, 87.7 + residueMargin},
		{10000, 73.4 + residueMargin},
	} {
		t.Run(fmt.Sprintf("%dx32", tc.clusters), func(t *testing.T) {
			f := newFixture(t, 0)
			before := liveHeapBytes()
			members := tc.clusters * 32
			_, clusters := f.buildList(t, members, 32, 64)
			for _, c := range clusters {
				if _, err := f.rt.SwapOut(c); err != nil {
					t.Fatalf("swap-out %d: %v", c, err)
				}
			}
			f.rt.Collect()
			st, err := f.mem.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			after := liveHeapBytes()
			per := (float64(after) - float64(before) - float64(st.Used)) / float64(members)
			t.Logf("%d clusters of 32: %.1f B of Go heap per swapped member (%d B on the donor)", tc.clusters, per, st.Used)
			if per > tc.budget {
				t.Fatalf("a swapped member leaves %.1f B of host memory behind, budget is %.0f B", per, tc.budget)
			}
			checkClean(t, f.rt)
			runtime.KeepAlive(clusters)
		})
	}
}

// TestProxyBlocksBoundedByPeakResidency: the heap's pool of swept proxy
// blocks plus the live proxies never exceeds the peak proxy residency, so
// passes that mint 4 000, then 1 000, then 4 000 cursors allocate 4 000
// blocks in all, measured as the Go heap's allocation count across the three
// passes and their collections. A swept block joins the pool in the
// collection that swept it (heap.Heap.PoolSwept), so one runs between
// passes. Beside the blocks, the inbound list grows by append, and the pool
// and the sweep buffer at most once per collection (growthSlack).
// check.sh runs it by name.
func TestProxyBlocksBoundedByPeakResidency(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	const peak, growthSlack = 4000, 64
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 20, 10, 8)
	mint := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := f.rt.lockedNewProxy(clusters[0], ids[15], true); err != nil {
				t.Fatal(err)
			}
		}
	}
	proxies := f.rt.mgr.ProxyCount()
	allocs, _ := mallocs(func() {
		mint(peak)
		f.rt.Collect()
		mint(peak / 4)
		f.rt.Collect()
		mint(peak)
	})
	t.Logf("minting %d, %d and %d proxies allocated %d objects", peak, peak/4, peak, allocs)
	if got := f.rt.mgr.ProxyCount() - proxies; got != peak {
		t.Fatalf("%d proxies live after the last pass, want %d", got, peak)
	}
	if allocs < peak || allocs > peak+growthSlack {
		t.Fatalf("the three passes allocated %d objects, want the %d blocks of the peak plus at most %d", allocs, peak, growthSlack)
	}
	checkClean(t, f.rt)
}
