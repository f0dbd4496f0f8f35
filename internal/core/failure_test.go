package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"objectswap/internal/event"

	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/placement"
	"objectswap/internal/store"
)

var ctx = context.Background()

// flakyFixture builds a runtime whose only device sits behind a fault-
// injecting link (every failEvery-th operation errors).
func flakyFixture(t testing.TB, failEvery int) (*fixture, *link.Link) {
	t.Helper()
	h := heap.New(0)
	classes := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	flaky := link.Wrap(mem, link.Profile{Name: "flaky", FailEvery: failEvery}, &link.VirtualClock{})
	if err := devices.Add("flaky-neighbor", flaky); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(h, classes, WithStores(devices))
	f := &fixture{rt: rt, reg: devices, mem: mem, node: newNodeClass()}
	rt.MustRegisterClass(f.node)
	return f, flaky
}

func TestSwapOutSurvivesShipFailure(t *testing.T) {
	// Every operation fails: the Put is rejected, and the graph must be
	// untouched and fully usable afterwards.
	f, _ := flakyFixture(t, 1)
	_, clusters := f.buildList(t, 20, 10, 8)
	want := f.snapshotTags(t)

	// Depending on which operation hits the fault (the selection probe or
	// the shipment itself), the failure surfaces as ErrNoDevice or
	// ErrUnavailable; either way it must be clean.
	_, err := f.rt.SwapOut(clusters[1])
	if !errors.Is(err, store.ErrUnavailable) && !errors.Is(err, store.ErrNoDevice) {
		t.Fatalf("swap-out over dead link: %v", err)
	}
	if f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("cluster marked swapped after failed shipment")
	}
	checkClean(t, f.rt)
	got := f.snapshotTags(t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("graph damaged by failed swap-out at %d", i)
		}
	}
}

func TestSwapInRetriesAfterTransientFetchFailure(t *testing.T) {
	// Every third operation fails. A swap-in that hits the bad operation
	// errors out but leaves the swapped state intact; a retry succeeds.
	f, _ := flakyFixture(t, 3)
	_, clusters := f.buildList(t, 20, 10, 8)

	// Operation 1 = Stats (device pick), 2 = Put: swap-out succeeds with the
	// 3rd op still pending.
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	// Keep attempting the traversal until it succeeds; every failed attempt
	// must leave the middleware consistent.
	var lastErr error
	for attempt := 0; attempt < 6; attempt++ {
		tags, err := trySnapshot(f)
		if err != nil {
			lastErr = err
			checkClean(t, f.rt)
			if !f.rt.Manager().IsSwapped(clusters[1]) {
				t.Fatal("failed swap-in cleared the swapped state")
			}
			continue
		}
		if len(tags) != 20 {
			t.Fatalf("tags = %d", len(tags))
		}
		return // success
	}
	t.Fatalf("traversal never succeeded over flaky link: %v", lastErr)
}

// trySnapshot walks the list, returning an error instead of failing the test.
func trySnapshot(f *fixture) ([]int64, error) {
	var tags []int64
	cur, ok := f.rt.Root("head")
	if !ok {
		return nil, errors.New("no head")
	}
	for !cur.IsNil() {
		tag, err := f.rt.Field(cur, "tag")
		if err != nil {
			return nil, err
		}
		tags = append(tags, tag.MustInt())
		next, err := f.rt.Field(cur, "next")
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return tags, nil
}

func TestDeviceVanishesWhileHoldingCluster(t *testing.T) {
	// The device disappears from the registry entirely while holding a
	// swapped cluster: swap-in must fail cleanly; after the device returns,
	// the cluster is recoverable.
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 20, 10, 8)
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	f.reg.Remove("pda-neighbor")
	if _, err := f.rt.SwapIn(clusters[1]); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("swap-in with vanished device: %v", err)
	}
	checkClean(t, f.rt)

	// Re-attach the same store under the same name: data is still there.
	if err := f.reg.Add("pda-neighbor", f.mem); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	if got := f.snapshotTags(t); len(got) != 20 {
		t.Fatalf("recovered %d tags", len(got))
	}
}

func TestCorruptedShipmentRejectedOnReload(t *testing.T) {
	// The device returns tampered XML: swap-in must fail with a decode error
	// and leave the middleware consistent (the cluster stays swapped).
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 20, 10, 8)
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	if err := f.mem.Put(ctx, ev.Key, []byte("<swapcluster id=\"x\" version=\"1\"><object id=\"0\"")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapIn(clusters[1]); err == nil {
		t.Fatal("tampered shipment accepted")
	}
	if !f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("cluster no longer swapped after rejected shipment")
	}
	checkClean(t, f.rt)
}

func TestWrongShipmentKeyRejected(t *testing.T) {
	// The device returns a VALID document under the wrong key (mixed-up
	// storage): the key check must reject it.
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 30, 10, 8)
	ev1, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := f.rt.SwapOut(clusters[2])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	// Cross the payloads.
	d2, _ := f.mem.Get(ctx, ev2.Key)
	if err := f.mem.Put(ctx, ev1.Key, d2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapIn(clusters[1]); err == nil {
		t.Fatal("wrong shipment accepted")
	}
	if !f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("cluster no longer swapped after rejected shipment")
	}
}

// failoverFixture wires a runtime (pinned name "fo-core", so storage keys are
// reproducible) to two unlimited fault-injectable donors. The placement
// planner rendezvous-ranks the pair per key — both donors are unlimited, so
// the ranking is the pure equal-weight HRW order — and order-dependent tests
// derive it with plannedOrder and fault the top-ranked donor.
func failoverFixture(t testing.TB) (*fixture, map[string]*store.Flaky, *event.Bus) {
	t.Helper()
	h := heap.New(0)
	classes := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	flakies := map[string]*store.Flaky{
		"donor-a": store.NewFlaky(store.NewMem(0), 1),
		"donor-b": store.NewFlaky(store.NewMem(0), 1),
	}
	for name, st := range flakies {
		if err := devices.Add(name, st); err != nil {
			t.Fatal(err)
		}
	}
	bus := event.NewBus()
	rt := NewRuntime(h, classes, WithStores(devices), WithBus(bus), WithName("fo-core"))
	f := &fixture{rt: rt, reg: devices, node: newNodeClass()}
	rt.MustRegisterClass(f.node)
	return f, flakies, bus
}

// plannedOrder predicts the planner's donor ranking for the NEXT storage key
// the runtime will mint for cluster (keys embed a per-runtime generation
// sequence, so gen is 1 for the first swap-out of a fresh fixture).
func plannedOrder(f *fixture, cluster ClusterID, gen int) []string {
	key := fmt.Sprintf("%s-swapcluster-%d-gen%d", f.rt.Name(), cluster, gen)
	return placement.Order(key, []string{"donor-a", "donor-b"})
}

func TestSwapOutFailsOverToHealthyDevice(t *testing.T) {
	f, flakies, bus := failoverFixture(t)

	var failoverEvents []SwapEvent
	bus.Subscribe(event.TopicSwapFailover, func(ev event.Event) {
		if e, ok := ev.Payload.(SwapEvent); ok {
			failoverEvents = append(failoverEvents, e)
		}
	})

	_, clusters := f.buildList(t, 20, 10, 8)
	want := f.snapshotTags(t)
	// Fault the donor the planner will rank first, so the shipment must
	// extend to the second-ranked one.
	order := plannedOrder(f, clusters[1], 1)
	flakies[order[0]].FailNext(store.OpPut, -1)
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatalf("swap-out with failover: %v", err)
	}
	if ev.Device != order[1] {
		t.Fatalf("shipped to %q, want failover target %q", ev.Device, order[1])
	}
	if len(ev.Attempted) != 1 || ev.Attempted[0] != order[0] {
		t.Fatalf("attempted trail = %v, want [%s]", ev.Attempted, order[0])
	}
	if len(failoverEvents) != 1 || failoverEvents[0].Device != order[0] {
		t.Fatalf("failover events = %+v", failoverEvents)
	}
	// The payload lives on the healthy device under the same key.
	if _, err := flakies[order[1]].Get(ctx, ev.Key); err != nil {
		t.Fatalf("payload not on failover device: %v", err)
	}
	// And the cluster reloads transparently from there.
	f.rt.Collect()
	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("reloaded %d tags, want %d", len(got), len(want))
	}
	checkClean(t, f.rt)
}

func TestSwapOutNoFailoverFailsFast(t *testing.T) {
	f, flakies, _ := failoverFixture(t)
	_, clusters := f.buildList(t, 20, 10, 8)
	order := plannedOrder(f, clusters[1], 1)
	flakies[order[0]].FailNext(store.OpPut, -1)

	_, err := f.rt.SwapOut(clusters[1], WithNoFailover())
	if !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("cluster marked swapped after fail-fast rejection")
	}
	if keys, _ := flakies[order[1]].Keys(ctx); len(keys) != 0 {
		t.Fatalf("fail-fast swap-out still shipped to %v", keys)
	}
	if flakies[order[0]].Calls(store.OpPut) != 1 {
		t.Fatalf("fail-fast made %d put attempts", flakies[order[0]].Calls(store.OpPut))
	}
	if flakies[order[1]].Calls(store.OpPut) != 0 {
		t.Fatal("fail-fast shipment touched the second-ranked donor")
	}
	checkClean(t, f.rt)
}

func TestSwapOutPinnedDevice(t *testing.T) {
	f, flakies, _ := failoverFixture(t)
	flakies["donor-a"].FailNext(store.OpPut, -1)
	_, clusters := f.buildList(t, 30, 10, 8)

	// Pinning to the healthy device overrides the planner's ranking.
	ev, err := f.rt.SwapOut(clusters[1], WithDevice("donor-b"))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Device != "donor-b" || len(ev.Attempted) != 0 {
		t.Fatalf("event = %+v", ev)
	}
	if flakies["donor-a"].Calls(store.OpPut) != 0 {
		t.Fatal("pinned shipment touched the wrong device")
	}

	// Pinning to the failing device must NOT fail over.
	_, err = f.rt.SwapOut(clusters[2], WithDevice("donor-a"))
	if !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("pinned-to-dead err = %v", err)
	}
	if f.rt.Manager().IsSwapped(clusters[2]) {
		t.Fatal("cluster swapped despite pinned device failing")
	}
}

func TestSwapOutFailureWhenAllDevicesFail(t *testing.T) {
	f, flakies, _ := failoverFixture(t)
	flakies["donor-a"].FailNext(store.OpPut, -1)
	flakies["donor-b"].FailNext(store.OpPut, -1)
	_, clusters := f.buildList(t, 20, 10, 8)

	_, err := f.rt.SwapOut(clusters[1])
	if !errors.Is(err, store.ErrUnavailable) && !errors.Is(err, store.ErrNoDevice) {
		t.Fatalf("err = %v", err)
	}
	if f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("cluster marked swapped with every device failing")
	}
	checkClean(t, f.rt)
}

func TestSwapInDeadlineLeavesClusterSwapped(t *testing.T) {
	f, flakies, _ := failoverFixture(t)
	flaky := flakies["donor-a"]
	f.reg.Remove("donor-b") // single donor, so the cluster lands on donor-a
	_, clusters := f.buildList(t, 20, 10, 8)
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	// The device stops answering: a bounded swap-in must fail cleanly and
	// leave the cluster consistently swapped.
	flaky.HangOn(store.OpGet, 1)
	bounded, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := f.rt.SwapIn(clusters[1], WithContext(bounded))
	if err == nil {
		t.Fatal("swap-in over hung device succeeded")
	}
	if !f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("timed-out swap-in cleared the swapped state")
	}
	checkClean(t, f.rt)

	// A retry (only the first call hangs) recovers the cluster.
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatalf("retry after timeout: %v", err)
	}
	if got := f.snapshotTags(t); len(got) != 20 {
		t.Fatalf("recovered %d tags", len(got))
	}
}

// TestTimedOutSwapOutLeavesNoOrphan: a K=2 swap-out whose second donor hangs
// to the deadline fails its quorum after the first donor accepted the payload.
// That copy is dropped although the operation's context is spent, or — when
// the donor refuses the drop too — queued for the next collection: every
// landed byte is either gone or on the deferred-drop list.
func TestTimedOutSwapOutLeavesNoOrphan(t *testing.T) {
	for _, tc := range []struct {
		name        string
		refuseDrops int
		wantPending int
	}{
		{"drop outlives the deadline", 0, 0},
		{"refused drop is deferred", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, flakies, _ := failoverFixture(t)
			_, clusters := f.buildList(t, 20, 10, 8)
			flakies["donor-b"].HangOn(store.OpPut, 1)
			flakies["donor-a"].FailNext(store.OpDrop, tc.refuseDrops)

			bounded, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := f.rt.SwapOut(clusters[1], WithReplicas(2), WithContext(bounded))
			if !errors.Is(err, store.ErrUnavailable) {
				t.Fatalf("swap-out with a hung donor: %v", err)
			}
			if f.rt.Manager().IsSwapped(clusters[1]) {
				t.Fatal("cluster marked swapped after a failed quorum")
			}
			held := func() (n int) {
				for _, fl := range flakies {
					keys, _ := fl.Keys(ctx)
					n += len(keys)
				}
				return n
			}
			if got := f.rt.Manager().PendingDrops(); got != tc.wantPending || held() != got {
				t.Fatalf("donors hold %d payload(s), %d drop(s) pending, want both %d", held(), got, tc.wantPending)
			}
			f.rt.Collect()
			if held() != 0 || f.rt.Manager().PendingDrops() != 0 {
				t.Fatalf("after a collection donors hold %d payload(s), %d drop(s) pending",
					held(), f.rt.Manager().PendingDrops())
			}
			checkClean(t, f.rt)
		})
	}
}

func TestDropAbandonedAfterRetryBudget(t *testing.T) {
	f, flakies, bus := failoverFixture(t)
	flaky := flakies["donor-a"]
	f.reg.Remove("donor-b")
	ids, clusters := f.buildList(t, 20, 10, 8)
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	var abandoned []SwapEvent
	bus.Subscribe(event.TopicDropAbandoned, func(ev event.Event) {
		if e, ok := ev.Payload.(SwapEvent); ok {
			abandoned = append(abandoned, e)
		}
	})

	// The cluster is reloaded, written and shipped again, but the device
	// refuses to discard the copy that shipment made stale: the drop is
	// deferred, retried a bounded number of times, then abandoned.
	flaky.FailNext(store.OpDrop, -1)
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	f.dirty(t, ids[10])
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	if got := f.rt.Manager().PendingDrops(); got != 1 {
		t.Fatalf("pending drops = %d, want 1", got)
	}

	for retry := 1; retry < DefaultDropRetryLimit; retry++ {
		f.rt.Collect() // fails, requeued
		if got := f.rt.Manager().PendingDrops(); got != 1 {
			t.Fatalf("pending drops after retry %d = %d", retry, got)
		}
		if got := f.rt.Manager().AbandonedDrops(); got != 0 {
			t.Fatalf("abandoned drops after retry %d = %d", retry, got)
		}
	}
	f.rt.Collect() // the last retry: budget spent, abandoned
	if got := f.rt.Manager().PendingDrops(); got != 0 {
		t.Fatalf("pending drops after abandonment = %d", got)
	}
	if f.rt.Manager().AbandonedDrops() != 1 {
		t.Fatalf("abandoned drops = %d", f.rt.Manager().AbandonedDrops())
	}
	if len(abandoned) != 1 || abandoned[0].Device != "donor-a" {
		t.Fatalf("abandoned events = %+v", abandoned)
	}
	// Abandonment is terminal: further collections stay quiet.
	f.rt.Collect()
	if f.rt.Manager().AbandonedDrops() != 1 {
		t.Fatal("abandonment double-counted")
	}
}
