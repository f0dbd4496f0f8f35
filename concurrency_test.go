package objectswap

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// buildChains assembles n independent task chains, one swap-cluster each,
// rooted as chain-<i>, and returns the cluster ids.
func buildChains(t *testing.T, sys *System, cls *heap.Class, n, perChain int) []ClusterID {
	t.Helper()
	ids := make([]ClusterID, n)
	for i := 0; i < n; i++ {
		cluster := sys.NewCluster()
		ids[i] = cluster
		var prev *heap.Object
		for j := 0; j < perChain; j++ {
			o, err := sys.NewObject(cls, cluster)
			if err != nil {
				t.Fatalf("chain %d obj %d: %v", i, j, err)
			}
			title := fmt.Sprintf("chain-%d-task-%d", i, j)
			if err := sys.SetField(o.RefTo(), "title", heap.Str(title)); err != nil {
				t.Fatal(err)
			}
			if prev == nil {
				if err := sys.SetRoot(fmt.Sprintf("chain-%d", i), o.RefTo()); err != nil {
					t.Fatal(err)
				}
			} else if err := sys.SetField(prev.RefTo(), "next", o.RefTo()); err != nil {
				t.Fatal(err)
			}
			prev = o
		}
	}
	return ids
}

// checkChains walks every chain through the facade and verifies each title
// (faulting swapped clusters back in as a side effect).
func checkChains(t *testing.T, sys *System, n, perChain int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cur, err := sys.MustRoot(fmt.Sprintf("chain-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < perChain; j++ {
			out, err := sys.Invoke(cur, "title")
			if err != nil {
				t.Fatalf("chain %d task %d: %v", i, j, err)
			}
			if got, _ := out[0].Str(); got != fmt.Sprintf("chain-%d-task-%d", i, j) {
				t.Fatalf("chain %d task %d: title = %q", i, j, got)
			}
			if cur, err = sys.Field(cur, "next"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConcurrentSwapThroughFacade swaps out, collects, and swaps back in
// several distinct clusters from concurrent goroutines through the public
// facade. Under -race this exercises the runtime's phase locking: cluster
// snapshot and commit serialize, while XML encoding and device shipment of
// different clusters overlap.
func TestConcurrentSwapThroughFacade(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice("desktop", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	const chains, perChain = 8, 5
	clusters := buildChains(t, sys, cls, chains, perChain)

	var wg sync.WaitGroup
	for _, id := range clusters {
		wg.Add(1)
		go func(id ClusterID) {
			defer wg.Done()
			if _, err := sys.SwapOut(id); err != nil && !errors.Is(err, ErrClusterBusy) {
				t.Errorf("SwapOut(%d): %v", id, err)
			}
		}(id)
	}
	// A concurrent collection must coexist with in-flight swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sys.Collect()
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	sys.Collect()
	for _, info := range sys.Clusters() {
		if info.ID != RootCluster && !info.Swapped {
			t.Fatalf("cluster %d not swapped: %+v", info.ID, info)
		}
	}

	for _, id := range clusters {
		wg.Add(1)
		go func(id ClusterID) {
			defer wg.Done()
			if _, err := sys.SwapIn(id); err != nil && !errors.Is(err, ErrClusterBusy) {
				t.Errorf("SwapIn(%d): %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	checkChains(t, sys, chains, perChain)
}

// TestEvictThroughFacade frees a quarter of the heap through System.Evict,
// whose zero strategy ranks coldest first: the victims ship one at a time
// until the need is met, and every chain reads back intact.
func TestEvictThroughFacade(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice("desktop", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	const chains, perChain = 6, 4
	buildChains(t, sys, cls, chains, perChain)

	used := sys.Heap().Used()
	if err := sys.Evict(0, used/4); err != nil {
		t.Fatal(err)
	}
	if got := sys.Heap().Used(); got > used-used/4 {
		t.Fatalf("used = %d after evicting a quarter of %d", got, used)
	}
	checkChains(t, sys, chains, perChain)
}
