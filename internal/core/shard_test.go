package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/store"
)

func TestWithShards(t *testing.T) {
	if got := NewRuntime(heap.New(0), heap.NewRegistry()).Shards(); got != DefaultShards {
		t.Errorf("default shard count = %d, want %d", got, DefaultShards)
	}
	if got := NewRuntime(heap.New(0), heap.NewRegistry(), WithShards(3)).Shards(); got != 3 {
		t.Errorf("WithShards(3) = %d shards", got)
	}
	if got := NewRuntime(heap.New(0), heap.NewRegistry(), WithShards(0)).Shards(); got != DefaultShards {
		t.Errorf("WithShards(0) = %d shards, want default %d", got, DefaultShards)
	}
}

func TestShardIndexForBoundsAndSpread(t *testing.T) {
	for n := 1; n <= 16; n++ {
		hit := make(map[int]bool)
		for id := ClusterID(0); id < 1024; id++ {
			s := shardIndexFor(id, n)
			if s < 0 || s >= n {
				t.Fatalf("shardIndexFor(%d, %d) = %d out of range", id, n, s)
			}
			if s != shardIndexFor(id, n) {
				t.Fatalf("shardIndexFor(%d, %d) unstable", id, n)
			}
			hit[s] = true
		}
		if len(hit) != n {
			t.Errorf("n=%d: only %d of %d shards hit by 1024 consecutive ids", n, len(hit), n)
		}
	}
}

// TestEvictMarkBookkeeping pins the nesting rule of the one eviction mark: a
// nested victim keeps the oldest start time, and only the last end clears
// the mark.
func TestEvictMarkBookkeeping(t *testing.T) {
	start := time.Unix(100, 0)
	clock := obs.NewVirtualClock(start)
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithObs(obs.NewRegistry(clock)))
	if _, running := rt.EvictingSince(); running {
		t.Fatal("idle runtime reports an eviction in flight")
	}
	rt.beginEvict()
	clock.Advance(time.Second)
	rt.beginEvict()
	if since, running := rt.EvictingSince(); !running || !since.Equal(start) {
		t.Fatalf("nested victims: EvictingSince = %v, %v; want the first start %v", since, running, start)
	}
	rt.endEvict()
	if since, running := rt.EvictingSince(); !running || !since.Equal(start) {
		t.Fatalf("nested end cleared the mark early: %v, %v", since, running)
	}
	rt.endEvict()
	if _, running := rt.EvictingSince(); running {
		t.Fatal("the last end left the mark behind")
	}
}

// A single-shard runtime is the degenerate configuration (one global swap
// lock, as before sharding) and must behave identically.
func TestSingleShardRoundTrip(t *testing.T) {
	h := heap.New(0)
	devices := store.NewRegistry(store.SelectMostFree)
	if err := devices.Add("pda-neighbor", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(h, heap.NewRegistry(), WithStores(devices), WithShards(1))
	node := newNodeClass()
	rt.MustRegisterClass(node)
	c := rt.Manager().NewCluster()
	o, err := rt.NewObject(node, c)
	if err != nil {
		t.Fatal(err)
	}
	o.MustSet("tag", heap.Int(42))
	if err := rt.SetRoot("head", o.RefTo()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapOut(c); err != nil {
		t.Fatal(err)
	}
	rt.Collect()
	if _, err := rt.SwapIn(c); err != nil {
		t.Fatal(err)
	}
	v, err := rt.Field(o.RefTo(), "tag")
	if err != nil {
		t.Fatal(err)
	}
	if tag, _ := v.Int(); tag != 42 {
		t.Fatalf("tag after round trip = %d, want 42", tag)
	}
	if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestConcurrentCollectAndSwapStorm runs Collect concurrently with swap-outs
// (one goroutine per cluster) and swap-ins across many clusters, a -race
// test: no deadlock, no lost objects, and the application-visible graph
// survives intact.
func TestConcurrentCollectAndSwapStorm(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 256, 4, 16)
	want := f.snapshotTags(t)

	skippable := func(err error) bool {
		return errors.Is(err, ErrClusterBusy) || errors.Is(err, ErrClusterLoaded) ||
			errors.Is(err, ErrClusterSwapped) || errors.Is(err, ErrClusterEmpty)
	}

	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			swapOutAll(t, f.rt, clusters)
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < rounds*len(clusters)/4; i++ {
			c := clusters[rng.Intn(len(clusters))]
			if _, err := f.rt.SwapIn(c); err != nil && !skippable(err) {
				t.Errorf("swap-in %d: %v", c, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			f.rt.Collect()
		}
	}()
	wg.Wait()

	// Quiesce: everything back in, nothing lost.
	for _, c := range clusters {
		if _, err := f.rt.SwapIn(c); err != nil && !skippable(err) {
			t.Fatalf("final swap-in %d: %v", c, err)
		}
	}
	if errs := f.rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants after storm: %v", errs)
	}
	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("list length after storm = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
