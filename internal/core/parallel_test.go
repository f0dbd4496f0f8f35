package core

import (
	"errors"
	"sync"
	"testing"
)

// The parallel eviction pipeline: SwapOutMany's bounded worker pool,
// EvictWith's parallel mode, and the busy reservation that keeps concurrent
// swaps of the same cluster from interleaving.

func TestSwapOutManyDistinctClusters(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 60, 10, 32)
	want := f.snapshotTags(t)

	evs, err := f.rt.SwapOutMany(clusters, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(clusters) {
		t.Fatalf("shipped %d clusters, want %d", len(evs), len(clusters))
	}
	// Events come back in input order, each covering its whole cluster.
	for i, ev := range evs {
		if ev.Cluster != clusters[i] {
			t.Fatalf("event %d for cluster %d, want %d", i, ev.Cluster, clusters[i])
		}
		if ev.Objects != 10 || ev.Bytes <= 0 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	for _, id := range clusters {
		if !f.rt.Manager().IsSwapped(id) {
			t.Fatalf("cluster %d not swapped", id)
		}
	}
	f.rt.Collect()

	// Traversal faults everything back; the graph is intact.
	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("list length after reload = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSwapOutManySkipsIneligible(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 30, 10, 16)

	if _, err := f.rt.SwapOut(clusters[0]); err != nil {
		t.Fatal(err)
	}
	empty := f.rt.Manager().NewCluster()

	// Already-swapped and empty victims are skipped, not errors; the one
	// eligible cluster still ships.
	evs, err := f.rt.SwapOutMany([]ClusterID{clusters[0], empty, clusters[2]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Cluster != clusters[2] {
		t.Fatalf("events = %+v, want one for cluster %d", evs, clusters[2])
	}
}

func TestEvictWithParallelFreesMemory(t *testing.T) {
	for _, parallelism := range []int{1, 3} {
		f := newFixture(t, 0)
		f.buildList(t, 80, 10, 256)
		before := f.rt.Heap().Used()

		need := before / 2
		if err := f.rt.EvictWith(EvictOptions{Parallelism: parallelism}, need); err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if used := f.rt.Heap().Used(); used > before-need {
			t.Fatalf("parallelism %d: used = %d, want <= %d", parallelism, used, before-need)
		}
	}
}

// TestConcurrentSwapDistinctClusters drives swap-out, collection and swap-in
// of distinct clusters from concurrent goroutines — the pipeline the paper's
// eviction overlap rests on. Run under -race this asserts the phase locking:
// snapshot/commit serialize on the swap lock while encode and shipment
// overlap freely.
func TestConcurrentSwapDistinctClusters(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 60, 10, 64)
	want := f.snapshotTags(t)

	var wg sync.WaitGroup
	for _, id := range clusters {
		wg.Add(1)
		go func(id ClusterID) {
			defer wg.Done()
			if _, err := f.rt.SwapOut(id); err != nil && !skippableVictimErr(err) {
				t.Errorf("SwapOut(%d): %v", id, err)
			}
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.rt.Collect()
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	f.rt.Collect()

	for _, id := range clusters {
		wg.Add(1)
		go func(id ClusterID) {
			defer wg.Done()
			if _, err := f.rt.SwapIn(id); err != nil && !errors.Is(err, ErrClusterLoaded) &&
				!errors.Is(err, ErrClusterBusy) {
				t.Errorf("SwapIn(%d): %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("list length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestConcurrentSameClusterSwaps hammers one cluster from several goroutines;
// the busy reservation must ensure exactly one swap-out wins per round trip
// and the graph stays consistent.
func TestConcurrentSameClusterSwaps(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 20, 10, 32)
	target := clusters[1]
	want := f.snapshotTags(t)

	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := f.rt.SwapOut(target); err != nil && !skippableVictimErr(err) {
					t.Errorf("SwapOut: %v", err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if !f.rt.Manager().IsSwapped(target) {
			t.Fatalf("round %d: cluster not swapped", round)
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := f.rt.SwapIn(target); err != nil && !errors.Is(err, ErrClusterLoaded) &&
					!errors.Is(err, ErrClusterBusy) {
					t.Errorf("SwapIn: %v", err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("list length = %d, want %d", len(got), len(want))
	}
}
