package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/telemetry"
)

// Concurrent swaps — distinct clusters from many goroutines, one cluster from
// several under the busy reservation, swaps beside collections — the eviction
// walk skipping victims that became ineligible after it ranked them, and
// whole-table reads beside a resize.

// swapOutAll swaps every cluster out from a goroutine of its own and waits
// for them all. A cluster that is active, busy, already swapped or empty is
// skipped, as the eviction walk skips it.
func swapOutAll(t testing.TB, rt *Runtime, clusters []ClusterID) {
	var wg sync.WaitGroup
	for _, id := range clusters {
		wg.Add(1)
		go func(id ClusterID) {
			defer wg.Done()
			if _, err := rt.SwapOut(id); err != nil && !skippableVictimErr(err) {
				t.Errorf("SwapOut(%d): %v", id, err)
			}
		}(id)
	}
	wg.Wait()
}

// TestSwapOutVictimsSkipsIneligible ranks four victims and, before the walk
// reaches any of them, makes three ineligible: one swapped out, one reserved
// by another operation, one emptied by a collection. The walk skips those
// three instead of failing, and ships the fourth.
func TestSwapOutVictimsSkipsIneligible(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 30, 10, 16)
	garbage := f.rt.Manager().NewCluster()
	if _, err := f.rt.NewObject(f.node, garbage); err != nil {
		t.Fatal(err)
	}
	letGo(f.rt)
	if n := len(f.rt.Manager().SelectVictims(VictimColdest)); n != 4 {
		t.Fatalf("ranked %d victims, want 4", n)
	}

	var busy *clusterState
	first := true
	// enough runs under the walk's hold of the runtime lock, so it acts
	// through the caller-locked internals.
	enough := func(int) bool {
		if first {
			first = false
			if _, err := f.rt.swapOut(clusters[0], causedBy("")); err != nil {
				t.Fatal(err)
			}
			var err error
			if busy, err = f.rt.reserve(clusters[1], resident, reservedOut, nil); err != nil {
				t.Fatal(err)
			}
			f.rt.pass(false) // garbage's one member is unreachable
		}
		return false
	}
	swapped, err := f.rt.SwapOutVictims(VictimColdest, enough)
	if busy != nil {
		f.rt.lockedSettle(busy, resident)
	}
	if err != nil {
		t.Fatalf("walk failed on an ineligible victim: %v", err)
	}
	m := f.rt.Manager()
	if swapped != 1 || !m.IsSwapped(clusters[2]) {
		t.Fatalf("walk swapped %d victims, cluster %d swapped %v; want only cluster %d",
			swapped, clusters[2], m.IsSwapped(clusters[2]), clusters[2])
	}
	if m.IsSwapped(clusters[1]) || m.IsSwapped(garbage) {
		t.Fatal("walk shipped the busy or the emptied victim")
	}
	if errs := m.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants after the walk: %v", errs)
	}
}

// TestConcurrentSwapDistinctClusters drives swap-out, collection and swap-in
// of distinct clusters from concurrent goroutines — the pipeline the paper's
// eviction overlap rests on. Run under -race this asserts the phase locking:
// snapshot/commit serialize on the runtime lock while encode and shipment
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

// TestWholeTableReadsAreOneCut holds a whole-table reader to one cut of the
// cluster table: while a resize moves members between two clusters over and
// over, every InfoAll snapshot counts each object exactly once.
func TestWholeTableReadsAreOneCut(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 64, 8, 16)
	objects := func() int {
		n := 0
		for _, info := range f.rt.Manager().InfoAll() {
			n += info.Objects
		}
		return n
	}
	want := objects()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 3000; i++ {
			fresh, err := f.rt.SplitCluster(clusters[0], ids[0:4])
			if err == nil {
				err = f.rt.MergeClusters(clusters[0], fresh)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	reads, torn := 0, 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("resize: %v", err)
			}
			if torn > 0 {
				t.Fatalf("%d of %d InfoAll snapshots did not sum to %d objects", torn, reads, want)
			}
			return
		default:
		}
		reads++
		if objects() != want {
			torn++
		}
	}
}

// TestTouchesAndCursorWalk: a resident crossing, a read in place and a write
// in place all succeed — with a tracker attached, so each one feeds a ledger,
// and a retained copy anchored, so the write marks the cluster dirty — and so
// does a B2 cursor walk: a fresh cursor on the head stepped ten times, across
// the boundary into the next cluster, re-aiming itself and moving its inbound
// entry under the runtime lock.
func TestTouchesAndCursorWalk(t *testing.T) {
	f := newFixture(t, 0, WithTelemetry(telemetry.New(obs.NewRegistry(nil))))
	ids, clusters := f.buildList(t, 20, 10, 8)
	if _, err := f.rt.SwapOut(clusters[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatal(err)
	}
	head, direct := f.head(t), heap.Ref(ids[0])

	if _, err := f.rt.Invoke(head, "tag"); err != nil { // a resident crossing
		t.Fatal(err)
	}
	if _, err := f.rt.Field(direct, "tag"); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.SetFieldValue(direct, "tag", heap.Int(-1)); err != nil {
		t.Fatal(err)
	}
	cursor, err := f.rt.AssignedCursor(head)
	for i := 0; i < 10 && err == nil; i++ { // node 0 -> node 10: into cluster 1
		var out []heap.Value
		if out, err = f.rt.Invoke(cursor, "next"); err == nil {
			cursor = out[0]
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if !f.rt.IsProxyRef(cursor) {
		t.Fatal("the cursor did not stay a proxy across the boundary")
	}
	if info, err := f.rt.Manager().Info(clusters[0]); err != nil || !info.Dirty {
		t.Fatalf("after a write in place: %+v, %v; want the cluster dirty", info, err)
	}
	if ultimate, err := f.rt.lockedUltimateOf(cursor); err != nil || ultimate != ids[10] {
		t.Fatalf("cursor designates @%d (%v), want @%d", ultimate, err, ids[10])
	}
	checkClean(t, f.rt)
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
