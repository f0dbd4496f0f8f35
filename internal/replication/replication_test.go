package replication

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"objectswap/internal/core"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// nodeClass mirrors the list-node class of the core tests.
func nodeClass() *heap.Class {
	c := heap.NewClass("Node",
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
		heap.FieldDef{Name: "tag", Kind: heap.KindInt},
	)
	c.AddMethod("tag", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("tag")
		if err != nil {
			return nil, err
		}
		return []heap.Value{v}, nil
	})
	c.AddMethod("next", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		return []heap.Value{v}, nil
	})
	c.AddMethod("walk", func(call *heap.Call) ([]heap.Value, error) {
		depth, _ := call.Arg(0).Int()
		next, _ := call.Self.FieldByName("next")
		if next.IsNil() {
			return []heap.Value{heap.Int(depth)}, nil
		}
		return call.RT.Invoke(next, "walk", heap.Int(depth+1))
	})
	return c
}

// buildMaster creates a master holding an n-node list rooted at "head".
func buildMaster(t testing.TB, n, clusterSize int) *Master {
	t.Helper()
	reg := heap.NewRegistry()
	reg.MustRegister(nodeClass())
	m := NewMaster(reg, clusterSize)
	cls, _ := reg.Lookup("Node")
	var err error
	m.rt.WithHeap(func(h *heap.Heap) {
		var prev *heap.Object
		for i := 0; i < n && err == nil; i++ {
			var o *heap.Object
			if o, err = h.New(cls); err != nil {
				break
			}
			o.MustSet("tag", heap.Int(int64(i)))
			if prev == nil {
				h.SetRoot("head", o.RefTo())
			} else {
				prev.MustSet("next", o.RefTo())
			}
			prev = o
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newDevice builds a constrained-device runtime sharing the master's class
// registry (its own instance of the same classes).
func newDevice(t testing.TB, capacity int64, opts ...core.Option) *core.Runtime {
	t.Helper()
	reg := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	_ = devices.Add("neighbor", store.NewMem(0))
	rt := core.NewRuntime(heap.New(capacity), reg, append(opts, core.WithStores(devices))...)
	rt.MustRegisterClass(nodeClass())
	return rt
}

func TestReplicateRootCreatesFaultProxy(t *testing.T) {
	m := buildMaster(t, 30, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)

	v, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}
	if v.IsNil() {
		t.Fatal("root is nil")
	}
	// Nothing replicated yet: just one fault proxy.
	if got := r.StatsSnapshot().ObjectsInstalled; got != 0 {
		t.Fatalf("objects installed before any use: %d", got)
	}
	if rt.Manager().ObjProxyCount() != 1 {
		t.Fatalf("object-fault proxies = %d, want 1", rt.Manager().ObjProxyCount())
	}
	if _, err := r.ReplicateRoot(context.Background(), "ghost"); !errors.Is(err, ErrUnknownRoot) {
		t.Fatalf("unknown root: %v", err)
	}
}

func TestFaultReplicatesWholeCluster(t *testing.T) {
	m := buildMaster(t, 30, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	v, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}

	// First touch faults in the first 10-object cluster.
	out, err := rt.Invoke(v, "tag")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 0 {
		t.Fatalf("tag = %v", out[0])
	}
	st := r.StatsSnapshot()
	if st.ClustersFetched != 1 || st.ObjectsInstalled != 10 {
		t.Fatalf("stats after first fault: %+v", st)
	}
	if m.Fetches() != 1 {
		t.Fatalf("master fetches = %d", m.Fetches())
	}

	// The root was swept to the local replica: no fault on second use.
	head, _ := rt.Root("head")
	if _, err := rt.Invoke(head, "tag"); err != nil {
		t.Fatal(err)
	}
	if got := r.StatsSnapshot().Faults; got != 1 {
		t.Fatalf("faults = %d, want 1 (replacement failed)", got)
	}
}

func TestIncrementalWalkReplicatesOnDemand(t *testing.T) {
	m := buildMaster(t, 30, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	v, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}

	out, err := rt.Invoke(v, "walk", heap.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 30 {
		t.Fatalf("walk = %v, want 30", out[0])
	}
	st := r.StatsSnapshot()
	if st.ClustersFetched != 3 || st.ObjectsInstalled != 30 {
		t.Fatalf("stats after full walk: %+v", st)
	}
	// Three shipments → three swap-clusters (group size 1); the boundary
	// edges are mediated by swap-cluster-proxies.
	if rt.Manager().ProxyCount() == 0 {
		t.Fatal("no swap-cluster-proxies at replication-cluster boundaries")
	}
	// All object-fault proxies were replaced and are garbage now.
	rt.Collect()
	if got := rt.Manager().ObjProxyCount(); got != 0 {
		t.Fatalf("live object-fault proxies after full replication: %d", got)
	}
}

func TestGroupSizeFormsLargerSwapClusters(t *testing.T) {
	m := buildMaster(t, 40, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m, WithGroupSize(2))
	v, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(v, "walk", heap.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Four shipments, grouped two per swap-cluster → 2 swap-clusters
	// (plus the root cluster).
	clusters := rt.Manager().Clusters()
	if len(clusters) != 3 {
		t.Fatalf("clusters = %v, want root + 2", clusters)
	}
	for _, info := range rt.Manager().InfoAll() {
		if info.ID == core.RootCluster {
			continue
		}
		if info.Objects != 20 {
			t.Fatalf("swap-cluster %d holds %d objects, want 20", info.ID, info.Objects)
		}
	}
}

func TestReplicatedGraphSwapsOutAndBack(t *testing.T) {
	m := buildMaster(t, 30, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	v, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(v, "walk", heap.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Swap out the middle swap-cluster and walk again.
	clusters := rt.Manager().Clusters()
	victim := clusters[2]
	if _, err := rt.SwapOut(victim); err != nil {
		t.Fatal(err)
	}
	rt.Collect()
	head, _ := rt.Root("head")
	out, err := rt.Invoke(head, "walk", heap.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 30 {
		t.Fatalf("walk after swap cycle = %v", out[0])
	}
	// No extra master fetches: the data came back from the swapping device.
	if m.Fetches() != 3 {
		t.Fatalf("master fetches = %d, want 3", m.Fetches())
	}
}

func TestPartiallyReplicatedClusterSwapsWithRemoteEdges(t *testing.T) {
	// Replicate only the first cluster, then swap it out while it still has
	// an un-replicated (object-fault) edge; reload and continue the walk.
	m := buildMaster(t, 20, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	v, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(v, "tag"); err != nil { // replicates cluster 1 only
		t.Fatal(err)
	}
	if got := r.StatsSnapshot().ObjectsInstalled; got != 10 {
		t.Fatalf("installed = %d, want 10", got)
	}
	clusters := rt.Manager().Clusters()
	if _, err := rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	rt.Collect()
	// Walking now reloads the swapped cluster, then faults the second
	// shipment through the re-synthesized object-fault proxy.
	head, _ := rt.Root("head")
	out, err := rt.Invoke(head, "walk", heap.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 20 {
		t.Fatalf("walk = %v, want 20", out[0])
	}
}

func TestReplicationEventsPublished(t *testing.T) {
	m := buildMaster(t, 20, 10)
	reg := heap.NewRegistry()
	bus := event.NewBus()
	devices := store.NewRegistry(store.SelectMostFree)
	_ = devices.Add("neighbor", store.NewMem(0))
	rt := core.NewRuntime(heap.New(0), reg, core.WithStores(devices), core.WithBus(bus))
	rt.MustRegisterClass(nodeClass())
	r := Attach(rt, m)

	var events []ClusterEvent
	bus.Subscribe(event.TopicClusterReplicated, func(ev event.Event) {
		events = append(events, ev.Payload.(ClusterEvent))
	})
	v, _ := r.ReplicateRoot(context.Background(), "head")
	if _, err := rt.Invoke(v, "walk", heap.Int(1)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("replication events = %d, want 2", len(events))
	}
	if events[0].Objects != 10 {
		t.Fatalf("event payload: %+v", events[0])
	}
}

func TestHTTPTransport(t *testing.T) {
	m := buildMaster(t, 30, 10)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	rt := newDevice(t, 0)
	client := NewClient(srv.URL)
	r := Attach(rt, client)
	v, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.Invoke(v, "walk", heap.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 30 {
		t.Fatalf("walk over HTTP = %v", out[0])
	}
	// Error paths.
	if _, _, err := client.FetchRoot(context.Background(), "ghost"); !errors.Is(err, ErrUnknownRoot) {
		t.Fatalf("http unknown root: %v", err)
	}
	if _, err := client.FetchCluster(context.Background(), 999999); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("http unknown object: %v", err)
	}
}

func TestMasterFetchClusterErrors(t *testing.T) {
	m := buildMaster(t, 10, 5)
	if _, err := m.FetchCluster(context.Background(), 424242); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("unknown object: %v", err)
	}
	if _, _, err := m.FetchRoot(context.Background(), "nope"); !errors.Is(err, ErrUnknownRoot) {
		t.Fatalf("unknown root: %v", err)
	}
}

func TestSharedSubgraphKeepsIdentity(t *testing.T) {
	// Two master roots share a tail; replicating through both must produce
	// ONE local replica per master object (identity preserved).
	reg := heap.NewRegistry()
	reg.MustRegister(nodeClass())
	m := NewMaster(reg, 5)
	cls, _ := reg.Lookup("Node")
	m.rt.WithHeap(func(h *heap.Heap) {
		shared, _ := h.New(cls)
		shared.MustSet("tag", heap.Int(777))
		a, _ := h.New(cls)
		a.MustSet("tag", heap.Int(1)).MustSet("next", shared.RefTo())
		b, _ := h.New(cls)
		b.MustSet("tag", heap.Int(2)).MustSet("next", shared.RefTo())
		h.SetRoot("a", a.RefTo())
		h.SetRoot("b", b.RefTo())
	})

	rt := newDevice(t, 0)
	r := Attach(rt, m)
	va, err := r.ReplicateRoot(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := r.ReplicateRoot(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	na, err := rt.Field(va, "next")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := rt.Field(vb, "next")
	if err != nil {
		t.Fatal(err)
	}
	eq, err := rt.RefEqual(na, nb)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("shared master object produced two distinct replicas")
	}
	tag, err := rt.Field(na, "tag")
	if err != nil {
		t.Fatal(err)
	}
	if tag.MustInt() != 777 {
		t.Fatalf("shared tag = %v", tag)
	}
}

func TestSetGroupSizeAdaptsAtRuntime(t *testing.T) {
	m := buildMaster(t, 60, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m, WithGroupSize(3))
	if r.GroupSize() != 3 {
		t.Fatalf("group size = %d", r.GroupSize())
	}
	v, err := r.ReplicateRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}
	// Pull the first two shipments under group size 3: both join the same
	// swap-cluster.
	if _, err := rt.Invoke(v, "tag"); err != nil {
		t.Fatal(err)
	}
	head, _ := rt.Root("head")
	// Walk 15 deep to force the second shipment.
	cur := head
	for i := 0; i < 15; i++ {
		next, err := rt.Field(cur, "next")
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	clustersBefore := len(rt.Manager().Clusters())

	// Adapt: one shipment per swap-cluster from now on; the current group
	// closes immediately.
	r.SetGroupSize(1)
	r.SetGroupSize(0) // no-op
	if r.GroupSize() != 1 {
		t.Fatalf("group size after adapt = %d", r.GroupSize())
	}
	for i := 0; i < 45; i++ {
		next, err := rt.Field(cur, "next")
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	clustersAfter := len(rt.Manager().Clusters())
	// 4 more shipments arrived after the adaptation; each got its own
	// swap-cluster.
	if clustersAfter-clustersBefore < 3 {
		t.Fatalf("clusters: %d -> %d (adaptation had no effect)", clustersBefore, clustersAfter)
	}
	st := r.StatsSnapshot()
	if st.ObjectsInstalled != 60 {
		t.Fatalf("installed = %d", st.ObjectsInstalled)
	}
}

func TestMasterAccessorsAndLocalOf(t *testing.T) {
	m := buildMaster(t, 10, 5)
	if m.Runtime() == nil || m.Registry() == nil {
		t.Fatal("nil accessor")
	}
	if m.ClusterSize() != 5 {
		t.Fatalf("ClusterSize = %d", m.ClusterSize())
	}
	// Default cluster size kicks in for nonsense values.
	if NewMaster(m.Registry(), -1).ClusterSize() != 50 {
		t.Fatal("default cluster size")
	}

	rt := newDevice(t, 0)
	r := Attach(rt, m)
	headID, _, err := m.FetchRoot(context.Background(), "head")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.LocalOf(headID); ok {
		t.Fatal("LocalOf before replication")
	}
	v, _ := r.ReplicateRoot(context.Background(), "head")
	if _, err := rt.Invoke(v, "tag"); err != nil {
		t.Fatal(err)
	}
	local, ok := r.LocalOf(headID)
	if !ok || local == heap.NilID {
		t.Fatalf("LocalOf after replication = %v, %v", local, ok)
	}
}

func TestPrefetchHoardsForDisconnectedOperation(t *testing.T) {
	m := buildMaster(t, 50, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)

	// Hoard everything, then take the master away.
	n, err := r.Prefetch(context.Background(), "head", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("prefetched %d objects, want 50", n)
	}
	rt.SetFaultHandler(disconnectedHandler{})

	// Fully local traversal: no faults reach the (gone) master.
	head, _ := rt.Root("head")
	out, err := rt.Invoke(head, "walk", heap.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 50 {
		t.Fatalf("walk disconnected = %v", out[0])
	}
	// Swapping to nearby devices still works while disconnected.
	clusters := rt.Manager().Clusters()
	if _, err := rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	rt.Collect()
	out, err = rt.Invoke(head, "walk", heap.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 50 {
		t.Fatalf("walk after disconnected swap cycle = %v", out[0])
	}
}

func TestPrefetchBudget(t *testing.T) {
	m := buildMaster(t, 50, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	n, err := r.Prefetch(context.Background(), "head", 25)
	if err != nil {
		t.Fatal(err)
	}
	// Whole shipments arrive, so the budget rounds up to a multiple of 10.
	if n < 25 || n > 30 {
		t.Fatalf("prefetched %d objects for budget 25", n)
	}
	// A second prefetch with no budget completes the hoard.
	n2, err := r.Prefetch(context.Background(), "head", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n+n2 != 50 {
		t.Fatalf("total hoarded = %d", n+n2)
	}
}

// disconnectedHandler fails every fault: the master is unreachable.
type disconnectedHandler struct{}

func (disconnectedHandler) HandleFault(*core.Runtime, heap.ObjID) (heap.Value, error) {
	return heap.Nil(), errors.New("master unreachable")
}
