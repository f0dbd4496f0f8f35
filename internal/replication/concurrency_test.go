package replication

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// TestReplicationFaultBesidePrefetchWorkers walks a list whose head is
// replicated and swapped out and whose tail is not replicated yet, on a
// device with prefetch workers, while a second goroutine swaps the
// replicated clusters in and out and collects, and a third writes the head
// replica now and then and pushes the dirty replicas to the master. The walk's demand faults set
// the workers swapping in; its replication faults pin, install, replace
// proxies and scan the heap meanwhile, all through the runtime lock. The
// race detector checks the heap accesses of both sides, and every push
// reads whole installs: the replicas an install is still filling are not
// its to push.
func TestReplicationFaultBesidePrefetchWorkers(t *testing.T) {
	const n, shipment = 60, 5
	m := buildMaster(t, n, shipment)
	rt := newDevice(t, 0, core.WithPrefetch(2, 2))
	defer rt.FaultEngine().Stop()
	r := Attach(rt, m)
	if _, err := r.Prefetch(context.Background(), "head", n/2); err != nil {
		t.Fatal(err)
	}
	replicated := rt.Manager().Clusters()[1:]
	for _, c := range replicated {
		if _, err := rt.SwapOut(c); err != nil {
			t.Fatal(err)
		}
	}
	rt.Collect()
	head, _ := rt.Root("head")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := replicated[i%len(replicated)]
			// Busy, active and already-resident clusters refuse; the
			// attempts still take the lock beside the walk.
			_, _ = rt.SwapIn(c)
			_, _ = rt.SwapOut(c)
			rt.Collect()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%8 == 0 {
				// A user write, made in a hold of its own.
				var err error
				rt.Locked(func(x *core.Held) {
					var o *heap.Object
					if o, err = x.Deref(head); err == nil {
						err = o.SetFieldByName("tag", heap.Int(int64(i)))
					}
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := r.PushUpdates(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	out, err := rt.Invoke(head, "walk", heap.Int(1))
	close(stop)
	wg.Wait()
	rt.FaultEngine().Quiesce()
	if err != nil {
		t.Fatal(err)
	}
	if depth := out[0].MustInt(); depth != n {
		t.Fatalf("walk reached depth %d, want %d", depth, n)
	}
	if got := r.StatsSnapshot().ObjectsInstalled; got != n {
		t.Fatalf("installed %d replicas, want %d", got, n)
	}
	if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestMasterServesBesideItsRuntime writes the master's graph through its
// DirectRuntime while another goroutine serves shipments and applies
// updates: both sides take the one lock of the master's heap, so the race
// detector sees no unordered access and every write lands.
func TestMasterServesBesideItsRuntime(t *testing.T) {
	const n, rounds = 20, 200
	m := buildMaster(t, n, 5)
	ctx := context.Background()
	headID, _, err := m.FetchRoot(ctx, "head")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := m.FetchCluster(ctx, headID); err != nil {
				t.Error(err)
				return
			}
			update := &xmlcodec.Doc{Version: xmlcodec.Version, Objects: []xmlcodec.Object{{
				ID: headID, Class: "Node",
				Fields: []xmlcodec.Field{{Name: "tag", Value: xmlcodec.Value{Kind: heap.KindInt, I: int64(i)}}},
			}}}
			if err := m.apply(update); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	rt := m.Runtime()
	next, err := rt.Field(heap.Ref(headID), "next")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := rt.SetFieldValue(next, "tag", heap.Int(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Invoke(heap.Ref(headID), "walk", heap.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := m.Fetches(); got != rounds {
		t.Fatalf("served %d shipments, want %d", got, rounds)
	}
	tag, err := rt.Field(next, "tag")
	if err != nil || tag.MustInt() != 1000+rounds-1 {
		t.Fatalf("next.tag = %v, %v; want %d", tag, err, 1000+rounds-1)
	}
	if tag, _ := rt.Field(heap.Ref(headID), "tag"); tag.MustInt() != rounds-1 {
		t.Fatalf("head.tag = %v, want %d", tag, rounds-1)
	}
}

// TestInstallUnderEvictionKeepsReplicas steps along a list into a heap that
// holds about three shipments, so installing a shipment's replicas evicts
// earlier clusters, and an eviction collects. A replica is unreachable until the
// install links it: the pin its mint took keeps it through the collection.
func TestInstallUnderEvictionKeepsReplicas(t *testing.T) {
	const n, shipment = 60, 10
	m := buildMaster(t, n, shipment)
	rt := newDevice(t, 2600)
	rt.Locked(func(x *core.Held) { x.Heap().SetReserve(512) })
	rt.SetEvictor(func(need int64) error { return rt.EvictWith(core.VictimColdest, need) })
	r := Attach(rt, m)
	cur, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}
	// The host steps along the list, so only the current node is in use.
	for i := 0; i < n; i++ {
		tag, err := rt.Field(cur, "tag")
		if err == nil && tag.MustInt() != int64(i) {
			err = fmt.Errorf("tag %v", tag)
		}
		if err == nil {
			cur, err = rt.Field(cur, "next")
		}
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	var collections uint64
	rt.Locked(func(x *core.Held) { collections = x.Heap().StatsSnapshot().Collections })
	if collections == 0 {
		t.Fatal("nothing evicted: the list fits the heap")
	}
	if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestRecursiveWalkUnderEvictionKeepsReplicas walks the same list as
// TestInstallUnderEvictionKeepsReplicas, in the same heap, recursively: every
// node walked stays on the invocation stack, in use, so the cluster a
// replication fault is filling is the one cluster the evictor could take.
// Its replicas are pinned until the install links them, and a swap-out
// refuses a cluster with a pinned member, so the install keeps its cluster
// resident. Sixty nodes in use at once do not fit the heap: the walk ends
// out of memory, with the replicas it installed consistent, and never with
// a fault refused because its own cluster was swapped out under it.
func TestRecursiveWalkUnderEvictionKeepsReplicas(t *testing.T) {
	const n, shipment = 60, 10
	m := buildMaster(t, n, shipment)
	rt := newDevice(t, 2600)
	rt.Locked(func(x *core.Held) { x.Heap().SetReserve(512) })
	rt.SetEvictor(func(need int64) error { return rt.EvictWith(core.VictimColdest, need) })
	r := Attach(rt, m)
	head, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Invoke(head, "walk", heap.Int(1))
	if !errors.Is(err, heap.ErrOutOfMemory) || errors.Is(err, core.ErrClusterSwapped) {
		t.Fatalf("walk: %v, want the heap out of memory", err)
	}
	if got := r.StatsSnapshot().ObjectsInstalled; got < 2*shipment {
		t.Fatalf("installed %d replicas before running out, want at least %d", got, 2*shipment)
	}
	if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}
