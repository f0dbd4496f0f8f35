package core

import (
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
		{32000, 1, 285}, // measured 272.8 B
		{1000, 32, 241}, // measured 230.5 B
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
