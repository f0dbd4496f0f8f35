package core

import (
	"bytes"
	"errors"
	"testing"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// replFixture wires a runtime (pinned name, default replication factor 2) to
// three unlimited fault-injectable donors.
func replFixture(t testing.TB, donors int, k int) (*fixture, map[string]*store.Flaky, *event.Bus) {
	t.Helper()
	h := heap.New(0)
	classes := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	flakies := make(map[string]*store.Flaky, donors)
	for i := 0; i < donors; i++ {
		name := string(rune('a'+i)) + "-donor"
		flakies[name] = store.NewFlaky(store.NewMem(0), 1)
		if err := devices.Add(name, flakies[name]); err != nil {
			t.Fatal(err)
		}
	}
	bus := event.NewBus()
	rt := NewRuntime(h, classes, WithStores(devices), WithBus(bus),
		WithName("repl-core"), WithDefaultReplicas(k))
	f := &fixture{rt: rt, reg: devices, node: newNodeClass()}
	rt.MustRegisterClass(f.node)
	return f, flakies, bus
}

func TestSwapOutRecordsReplicaSet(t *testing.T) {
	f, flakies, _ := replFixture(t, 3, 2)
	_, clusters := f.buildList(t, 20, 10, 8)

	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Replicas) != 2 {
		t.Fatalf("replicas = %v, want 2", ev.Replicas)
	}
	if ev.Device != ev.Replicas[0] {
		t.Fatalf("event device %q is not the primary of %v", ev.Device, ev.Replicas)
	}
	// The identical payload sits on both donors under the same key.
	var payloads [][]byte
	for _, name := range ev.Replicas {
		data, err := flakies[name].Get(ctx, ev.Key)
		if err != nil {
			t.Fatalf("replica %s: %v", name, err)
		}
		payloads = append(payloads, data)
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Fatal("replicas hold different payloads")
	}
	// The manager's view carries the full set.
	if got := f.rt.ReplicaSet(clusters[1]); len(got) != 2 || got[0] != ev.Replicas[0] {
		t.Fatalf("ReplicaSet = %v", got)
	}
	for _, info := range f.rt.Manager().InfoAll() {
		if info.ID == clusters[1] {
			if len(info.Devices) != 2 || info.Device != info.Devices[0] {
				t.Fatalf("info = %+v", info)
			}
		}
	}
}

func TestSwapInFallsThroughDeadReplica(t *testing.T) {
	f, flakies, bus := replFixture(t, 3, 2)
	_, clusters := f.buildList(t, 20, 10, 8)
	want := f.snapshotTags(t)

	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	var readRepairs []SwapEvent
	bus.Subscribe(event.TopicReadRepair, func(e event.Event) {
		if se, ok := e.Payload.(SwapEvent); ok {
			readRepairs = append(readRepairs, se)
		}
	})

	// The primary replica dies: swap-in must fall through to the survivor
	// and signal the repair loop.
	flakies[ev.Replicas[0]].FailNext(store.OpGet, -1)
	inEv, err := f.rt.SwapIn(clusters[1])
	if err != nil {
		t.Fatalf("swap-in past dead primary: %v", err)
	}
	if len(inEv.Attempted) != 1 || inEv.Attempted[0] != ev.Replicas[0] {
		t.Fatalf("attempted = %v, want [%s]", inEv.Attempted, ev.Replicas[0])
	}
	if len(readRepairs) != 1 || readRepairs[0].Cluster != clusters[1] {
		t.Fatalf("read-repair events = %+v", readRepairs)
	}
	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("recovered %d tags, want %d", len(got), len(want))
	}
	checkClean(t, f.rt)
}

func TestSwapInFailsWhenAllReplicasDead(t *testing.T) {
	f, flakies, _ := replFixture(t, 2, 2)
	_, clusters := f.buildList(t, 20, 10, 8)
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	for _, name := range ev.Replicas {
		flakies[name].FailNext(store.OpGet, -1)
	}
	if _, err := f.rt.SwapIn(clusters[1]); err == nil {
		t.Fatal("swap-in with every replica dead succeeded")
	}
	if !f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("failed swap-in cleared the swapped state")
	}
	// Both donors answer again: the cluster is recoverable.
	for _, name := range ev.Replicas {
		flakies[name].FailNext(store.OpGet, 0)
	}
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	checkClean(t, f.rt)
}

// A reload leaves the payload on every replica, as the retained copy; the
// full shipment that replaces it drops the stale copy from every one of them.
func TestRotationDropsEveryReplica(t *testing.T) {
	f, flakies, _ := replFixture(t, 3, 2)
	ids, clusters := f.buildList(t, 20, 10, 8)
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	for _, name := range ev.Replicas {
		if keys, _ := flakies[name].Keys(ctx); len(keys) != 1 || keys[0] != ev.Key {
			t.Fatalf("%s holds %v after reload, want the retained copy %q", name, keys, ev.Key)
		}
	}
	f.dirty(t, ids[10])
	again, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	if again.Clean || again.Key == ev.Key {
		t.Fatalf("written cluster left on its stale copy: %+v", again)
	}
	for name, fl := range flakies {
		for _, key := range mustKeys(t, fl) {
			if key != again.Key {
				t.Fatalf("stale copy left on %s after the rotation: %q (replicas were %v)",
					name, key, ev.Replicas)
			}
		}
	}
}

func mustKeys(t *testing.T, s store.Store) []string {
	t.Helper()
	keys, err := s.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestUnderReplicatedAndRepair(t *testing.T) {
	f, _, _ := replFixture(t, 3, 2)
	_, clusters := f.buildList(t, 20, 10, 8)
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	if under := f.rt.UnderReplicated(0); len(under) != 0 {
		t.Fatalf("healthy cluster reported under-replicated: %v", under)
	}

	// One donor disappears: the cluster is under-replicated; repair re-ships
	// to the remaining fresh donor and prunes the dead replica.
	lost := ev.Replicas[0]
	f.reg.Remove(lost)
	under := f.rt.UnderReplicated(0)
	if len(under) != 1 || under[0] != clusters[1] {
		t.Fatalf("under-replicated = %v, want [%d]", under, clusters[1])
	}

	// While a repair owns the cluster it still reads degraded — the gauge and
	// /healthz must not flicker to "whole" — and a second repair is refused.
	cs, err := f.rt.reserve(clusters[1], swappedOut, underRepair, nil)
	if err != nil {
		t.Fatal(err)
	}
	if under := f.rt.UnderReplicated(0); len(under) != 1 || under[0] != clusters[1] {
		t.Fatalf("under-replicated while under repair = %v, want [%d]", under, clusters[1])
	}
	if live, swapped := f.rt.liveReplicaTotals(); live != 1 || swapped != 1 {
		t.Fatalf("live/swapped while under repair = %d/%d, want 1/1", live, swapped)
	}
	if _, err := f.rt.RepairCluster(ctx, clusters[1], 0); !errors.Is(err, ErrClusterBusy) {
		t.Fatalf("repair of a cluster under repair: %v", err)
	}
	f.rt.settle(cs, swappedOut, nil)

	rev, err := f.rt.RepairCluster(ctx, clusters[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rev.Replicas) != 2 {
		t.Fatalf("repaired set = %v", rev.Replicas)
	}
	for _, name := range rev.Replicas {
		if name == lost {
			t.Fatalf("dead donor %s still in repaired set %v", lost, rev.Replicas)
		}
	}
	if len(rev.Attempted) != 1 || rev.Attempted[0] != lost {
		t.Fatalf("pruned = %v, want [%s]", rev.Attempted, lost)
	}
	if under := f.rt.UnderReplicated(0); len(under) != 0 {
		t.Fatalf("cluster still under-replicated after repair: %v", under)
	}

	// A second repair has nothing to do.
	if _, err := f.rt.RepairCluster(ctx, clusters[1], 0); !errors.Is(err, ErrNoRepair) {
		t.Fatalf("repair of healthy cluster: %v", err)
	}

	// The cluster reloads intact from the repaired set.
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	if got := f.snapshotTags(t); len(got) != 20 {
		t.Fatalf("recovered %d tags", len(got))
	}
	checkClean(t, f.rt)
}

func TestRepairWithNoLiveReplica(t *testing.T) {
	f, _, _ := replFixture(t, 2, 2)
	_, clusters := f.buildList(t, 20, 10, 8)
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	for _, name := range ev.Replicas {
		f.reg.Remove(name)
	}
	if _, err := f.rt.RepairCluster(ctx, clusters[1], 0); !errors.Is(err, ErrNoLiveReplica) {
		t.Fatalf("err = %v", err)
	}
	// The cluster stays swapped — recoverable when a donor returns.
	if !f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("unrepairable cluster no longer swapped")
	}
}

func TestCheckpointRoundTripsReplicaSet(t *testing.T) {
	f, _, _ := replFixture(t, 3, 2)
	_, clusters := f.buildList(t, 20, 10, 8)
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	var buf bytes.Buffer
	if err := f.rt.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh runtime sharing the same donor registry.
	h2 := heap.New(0)
	rt2 := NewRuntime(h2, heap.NewRegistry(), WithStores(f.reg),
		WithName("repl-core"), WithDefaultReplicas(2))
	rt2.MustRegisterClass(newNodeClassClone())
	if err := rt2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	got := rt2.ReplicaSet(clusters[1])
	if len(got) != len(ev.Replicas) {
		t.Fatalf("restored replica set = %v, want %v", got, ev.Replicas)
	}
	for i := range got {
		if got[i] != ev.Replicas[i] {
			t.Fatalf("restored replica set = %v, want %v", got, ev.Replicas)
		}
	}
	// The restored runtime faults the cluster in from its replicas.
	if _, err := rt2.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	checkClean(t, rt2)
}
