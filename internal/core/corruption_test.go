package core

import (
	"errors"
	"testing"

	"objectswap/internal/event"
	"objectswap/internal/store"
)

// corruptPayload flips one byte of the payload stored under key, preserving
// the format envelope — bit rot on the donor, invisible to Get.
func corruptPayload(t testing.TB, s store.Store, key string) {
	t.Helper()
	data, opts, err := store.GetWith(ctx, s, key)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := store.PutWith(ctx, s, key, data, opts); err != nil {
		t.Fatal(err)
	}
}

func TestSwapInDetectsCorruptReplica(t *testing.T) {
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

	// The primary's copy rots at rest: swap-in must convict it by checksum
	// and fall through to the intact survivor.
	corruptPayload(t, flakies[ev.Replicas[0]], ev.Key)
	inEv, err := f.rt.SwapIn(clusters[1])
	if err != nil {
		t.Fatalf("swap-in past corrupt primary: %v", err)
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

func TestSwapInFailsWhenAllReplicasCorrupt(t *testing.T) {
	f, flakies, _ := replFixture(t, 2, 2)
	_, clusters := f.buildList(t, 20, 10, 8)
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	// Save one intact copy, then rot every replica.
	intact, opts, err := store.GetWith(ctx, flakies[ev.Replicas[0]], ev.Key)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ev.Replicas {
		corruptPayload(t, flakies[name], ev.Key)
	}
	if _, err := f.rt.SwapIn(clusters[1]); !errors.Is(err, ErrCorruptReplica) {
		t.Fatalf("swap-in with every replica corrupt: %v", err)
	}
	if !f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("failed swap-in cleared the swapped state")
	}
	// One donor recovers its copy: the cluster is loadable again.
	if err := store.PutWith(ctx, flakies[ev.Replicas[1]], ev.Key, intact, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	checkClean(t, f.rt)
}

func TestRepairReplacesCorruptReplica(t *testing.T) {
	f, flakies, _ := replFixture(t, 3, 2)
	_, clusters := f.buildList(t, 20, 10, 8)
	want := f.snapshotTags(t)

	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	if len(ev.Replicas) != 2 {
		t.Fatalf("replicas = %v, want 2", ev.Replicas)
	}

	// Both donors stay reachable, so the replica set looks whole — only the
	// scrub can notice the secondary's copy rotted.
	corrupt := ev.Replicas[1]
	corruptPayload(t, flakies[corrupt], ev.Key)
	repEv, err := f.rt.RepairCluster(ctx, clusters[1], 2)
	if err != nil {
		t.Fatalf("repair of corrupt replica: %v", err)
	}
	if len(repEv.Replicas) != 2 {
		t.Fatalf("repaired set = %v, want 2 replicas", repEv.Replicas)
	}
	for _, d := range repEv.Replicas {
		if d == corrupt {
			t.Fatalf("repaired set %v still holds the corrupt donor %s", repEv.Replicas, corrupt)
		}
	}
	if len(repEv.Attempted) != 1 || repEv.Attempted[0] != corrupt {
		t.Fatalf("pruned = %v, want [%s]", repEv.Attempted, corrupt)
	}

	// A second repair finds nothing to do: every surviving copy verifies.
	if _, err := f.rt.RepairCluster(ctx, clusters[1], 2); !errors.Is(err, ErrNoRepair) {
		t.Fatalf("second repair = %v, want ErrNoRepair", err)
	}
	// The reload succeeds from the repaired set.
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	if got := f.snapshotTags(t); len(got) != len(want) {
		t.Fatalf("recovered %d tags, want %d", len(got), len(want))
	}
	checkClean(t, f.rt)
}

// TestRepairMajorityConvictsDivergentCopy exercises the no-recorded-checksum
// path (state restored from a pre-CRC checkpoint): with three live replicas,
// two identical copies out-vote the rotted one.
func TestRepairMajorityConvictsDivergentCopy(t *testing.T) {
	f, flakies, _ := replFixture(t, 4, 3)
	_, clusters := f.buildList(t, 20, 10, 8)

	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	if len(ev.Replicas) != 3 {
		t.Fatalf("replicas = %v, want 3", ev.Replicas)
	}

	// Simulate legacy state: forget the recorded checksum.
	tab := &f.rt.mgr.table
	f.rt.lock()
	tab.clusters.get(clusters[1]).retained.crc = 0
	f.rt.unlock()

	corrupt := ev.Replicas[0]
	corruptPayload(t, flakies[corrupt], ev.Key)
	repEv, err := f.rt.RepairCluster(ctx, clusters[1], 3)
	if err != nil {
		t.Fatalf("majority repair: %v", err)
	}
	for _, d := range repEv.Replicas {
		if d == corrupt {
			t.Fatalf("repaired set %v still holds the out-voted donor %s", repEv.Replicas, corrupt)
		}
	}
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	checkClean(t, f.rt)
}
