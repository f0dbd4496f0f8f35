package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// TestEvictionBudget pins the cost of an eviction pass: however many victims
// it swaps out, it runs exactly one collection (the young pass that tries
// garbage first), every victim's bytes are back when its swap-out returns —
// occupancy falls swap by swap with no collection in between — and a warm
// victim walk allocates nothing of its own. check.sh runs it by name: the
// counts do not depend on the host.
func TestEvictionBudget(t *testing.T) {
	// The pass ships its victims one at a time, in ranked order: a parallelism
	// of one is the only one there is.
	t.Run("parallelism-1", func(t *testing.T) {
		bus := event.NewBus()
		h := heap.New(0)
		devices := store.NewRegistry(store.SelectMostFree)
		if err := devices.Add("d", store.NewMem(0)); err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(h, heap.NewRegistry(), WithStores(devices), WithBus(bus))
		f := &fixture{rt: rt, reg: devices, node: newNodeClass()}
		rt.MustRegisterClass(f.node)
		f.buildList(t, 80, 10, 256)
		want := f.snapshotTags(t)

		// What every completed swap-out saw: occupancy and the collection count
		// at the moment SwapOut published its event.
		type sample struct {
			used        int64
			collections uint64
		}
		var mu sync.Mutex
		var samples []sample
		bus.Subscribe(event.TopicSwapOut, func(event.Event) {
			mu.Lock()
			samples = append(samples, sample{h.Used(), h.StatsSnapshot().Collections})
			mu.Unlock()
		})

		before := h.Used()
		collections := h.StatsSnapshot().Collections
		need := before / 2
		if err := rt.EvictWith(VictimColdest, need); err != nil {
			t.Fatal(err)
		}

		if len(samples) < 2 {
			t.Fatalf("pass swapped %d victims, want at least 2", len(samples))
		}
		if got := h.StatsSnapshot().Collections - collections; got != 1 {
			t.Fatalf("pass of %d victims ran %d collections, want exactly 1", len(samples), got)
		}
		if used := h.Used(); used > before-need {
			t.Fatalf("used = %d after the pass, want <= %d", used, before-need)
		}
		prev := before
		for i, s := range samples {
			if s.collections != collections+1 {
				t.Fatalf("victim %d: %d collections so far, want the pass's one", i, s.collections-collections)
			}
			if s.used >= prev {
				t.Fatalf("victim %d: used %d, not below the %d before its swap-out", i, s.used, prev)
			}
			prev = s.used
		}
		if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
			t.Fatalf("invariants after the pass: %v", errs)
		}

		got := f.snapshotTags(t)
		if len(got) != len(want) {
			t.Fatalf("list length after reload = %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})

	// Once warm, a walk of k victims allocates nothing beyond its swap-outs:
	// the Go heap's allocation count over the whole walk equals the count
	// from the moment the walk asks about its first victim to the moment it
	// asks after its last swap-out, the span of its k SwapOut calls. The
	// candidates, their gathering and their order cost nothing.
	t.Run("warm-walk", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation budgets are gated without the race detector")
		}
		const k = 3
		f := newFixture(t, 0)
		f.buildList(t, 80, 10, 256)
		var asked []uint64
		var ms runtime.MemStats
		enough := func(n int) bool {
			runtime.ReadMemStats(&ms)
			asked = append(asked, ms.Mallocs)
			return n >= k
		}
		for round := range 4 {
			asked = slices.Grow(asked[:0], k+1)
			victims := f.rt.mgr.SelectVictims(VictimColdest)[:k]
			walk, _ := mallocs(func() {
				if n, err := f.rt.SwapOutVictims(VictimColdest, enough); err != nil || n != k {
					t.Fatalf("walk swapped %d: %v", n, err)
				}
			})
			if own := walk - (asked[k] - asked[0]); round > 0 && own != 0 {
				t.Fatalf("round %d: a walk of %d victims allocated %d objects, %d of them besides its swap-outs", round, k, walk, own)
			}
			for _, c := range victims {
				if _, err := f.rt.SwapIn(c); err != nil {
					t.Fatalf("round %d: cluster %d: %v", round, c, err)
				}
			}
		}
		checkClean(t, f.rt)
	})
}

// TestEvictionFallsBackToAFullPass: the only memory an eviction can reclaim is
// old garbage — root-cluster nodes a pass marked under a root that was then
// dropped — and every other cluster is swapped out already. The young pass
// frees none of it and no victim is left, so the eviction must find it with
// one full pass instead of reporting that nothing is left to evict.
func TestEvictionFallsBackToAFullPass(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 20, 10, 8)
	for _, c := range clusters {
		if _, err := f.rt.SwapOut(c); err != nil {
			t.Fatal(err)
		}
	}
	var garbage []heap.ObjID
	var bytes int64
	var prev *heap.Object
	for i := 0; i < 20; i++ {
		o, err := f.rt.NewObject(f.node, RootCluster)
		if err != nil {
			t.Fatal(err)
		}
		o.MustSet("payload", heap.Bytes(make([]byte, 64)))
		if prev == nil {
			err = f.rt.SetRoot("old", o.RefTo())
		} else {
			err = f.rt.SetFieldValue(prev.RefTo(), "next", o.RefTo())
		}
		if err != nil {
			t.Fatal(err)
		}
		garbage, bytes, prev = append(garbage, o.ID()), bytes+o.Size(), o
	}
	f.rt.Collect() // the nodes are old now
	if err := f.rt.SetRoot("old", heap.Nil()); err != nil {
		t.Fatal(err)
	}

	h := f.rt.h
	before, collections := h.Used(), h.StatsSnapshot().Collections
	if err := f.rt.EvictWith(VictimColdest, bytes); err != nil {
		t.Fatalf("eviction with only old garbage to reclaim: %v", err)
	}
	if used := h.Used(); used > before-bytes {
		t.Fatalf("used = %d after the eviction, want <= %d", used, before-bytes)
	}
	if got := h.StatsSnapshot().Collections - collections; got != 2 {
		t.Fatalf("eviction ran %d collections, want the young pass and the full one", got)
	}
	for _, id := range garbage {
		if h.Contains(id) {
			t.Fatalf("old garbage @%d survived the eviction", id)
		}
	}
	checkClean(t, f.rt)
}

// TestYoungPassAgainstConcurrentWrites: a walker stores references to young
// root-cluster nodes into old ones while the prefetch workers' swap-ins
// evict, each eviction running a young pass on a worker's goroutine, so the
// write barrier runs against the passes. The heap holds a few of the list's
// clusters at a time, and each round triggers the prefetch of clusters the
// walker never touches: those are the only victims. The walker writes its
// nodes' fields through the heap, as a method body does: the runtime's
// dispatch frames are not yet safe to push beside a collection on another
// goroutine (ROADMAP item 25). Every holder must lead to the node last
// stored in it, and the invariants hold. check.sh runs it ten times under
// the race detector.
func TestYoungPassAgainstConcurrentWrites(t *testing.T) {
	f := newFixture(t, 0, WithPrefetch(2, 2))
	eng := f.rt.FaultEngine()
	defer eng.Stop()
	_, clusters := f.buildList(t, 160, 10, 64)
	h := f.rt.h
	full := h.Used()
	for _, c := range clusters {
		if _, err := f.rt.SwapOut(c); err != nil {
			t.Fatal(err)
		}
	}
	holders := make([]*heap.Object, 4)
	for i := range holders {
		o, err := f.rt.NewObject(f.node, RootCluster)
		if err != nil {
			t.Fatal(err)
		}
		holders[i] = o
		if err := f.rt.SetRoot(fmt.Sprintf("holder-%d", i), o.RefTo()); err != nil {
			t.Fatal(err)
		}
	}
	next, _ := f.node.FieldIndex("next")
	f.rt.Collect() // the holders are old
	// Room for a quarter of the list, and a middleware reserve, so that a
	// reload's proxies never wait for an eviction running on another worker.
	h.SetCapacity(h.Used() + full/4 + 4096)
	h.SetReserve(4096)
	f.rt.SetEvictor(func(need int64) error { return f.rt.EvictWith(VictimColdest, need) })
	// The walker holds its fresh nodes in host code until it stores them, as
	// an application does between calls; only the nursery keeps them from a
	// pass on another goroutine until then, so their grace outlasts one young
	// pass, after which they are old.
	h.SetNurseryGrace(pressureCycles + 1)

	const rounds, fresh = 24, 8
	stored := make([]int64, len(holders))
	evictions := 0
	for round := 0; round < rounds; round++ {
		nodes := make([]heap.Value, fresh)
		for i := range nodes {
			o, err := f.rt.NewObject(f.node, RootCluster)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			o.MustSet("tag", heap.Int(int64(round*fresh+i)))
			nodes[i] = o.RefTo()
		}
		before := h.StatsSnapshot().Collections
		eng.TriggerPrefetch(uint32(clusters[round%(len(clusters)-2)]))
		for step := 0; step < 64; step++ {
			k, i := step%len(holders), (step*7+round)%fresh
			if err := holders[k].SetField(next, nodes[i]); err != nil {
				t.Fatalf("round %d step %d: %v", round, step, err)
			}
			stored[k] = int64(round*fresh + i)
		}
		eng.Quiesce()
		evictions += int(h.StatsSnapshot().Collections - before)
		for k, o := range holders {
			node, err := f.rt.Field(o.RefTo(), "next")
			if err != nil {
				t.Fatalf("round %d: holder %d: %v", round, k, err)
			}
			tag, err := f.rt.Field(node, "tag")
			if err != nil {
				t.Fatalf("round %d: holder %d's node: %v", round, k, err)
			}
			if tag.MustInt() != stored[k] {
				t.Fatalf("round %d: holder %d leads to tag %d, want %d", round, k, tag.MustInt(), stored[k])
			}
		}
		f.rt.Collect()
	}
	if evictions == 0 {
		t.Fatal("no prefetch swap-in evicted: the prefetched clusters fit the heap")
	}
	checkClean(t, f.rt)
}
