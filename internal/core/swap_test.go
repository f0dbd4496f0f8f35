package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/store"
	"objectswap/internal/wire"
)

// snapshotTags walks the list from the head via the swapping runtime and
// returns every node's tag — the application-visible view of the graph.
func (f *fixture) snapshotTags(t testing.TB) []int64 {
	t.Helper()
	var tags []int64
	cur := f.head(t)
	for !cur.IsNil() {
		tag, err := f.rt.Field(cur, "tag")
		if err != nil {
			t.Fatalf("snapshot at %d: %v", len(tags), err)
		}
		tags = append(tags, tag.MustInt())
		next, err := f.rt.Field(cur, "next")
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		if len(tags) > 100000 {
			t.Fatal("runaway list")
		}
	}
	return tags
}

func TestSwapOutFreesMemoryAndDetaches(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 30, 10, 64)
	h := f.rt.Heap()
	before := h.Used()

	// Resident bytes of cluster 2 (nodes 10..19).
	var clusterBytes int64
	for _, id := range ids[10:20] {
		o, _ := h.Get(id)
		clusterBytes += o.Size()
	}

	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Objects != 10 || ev.Device != "pda-neighbor" || ev.Bytes <= 0 {
		t.Fatalf("swap event = %+v", ev)
	}
	// The negotiated shipment is on the device and decodes back to a wrapper
	// document for this key (binary framing by default; the self-describing
	// payload carries its own format).
	data, err := f.mem.Get(ctx, ev.Key)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Format != string(wire.FormatBinary) {
		t.Fatalf("negotiated format = %q, want %q", ev.Format, wire.FormatBinary)
	}
	doc, err := wire.Decode(data, nil)
	if err != nil {
		t.Fatalf("device holds something that is not a wrapper document: %v", err)
	}
	if doc.ClusterID != ev.Key {
		t.Fatalf("wrapper document names %q, want %q", doc.ClusterID, ev.Key)
	}

	// Detachment completeness: the cluster is in exactly one place — no
	// member is resident once SwapOut has returned.
	for _, id := range ids[10:20] {
		if h.Contains(id) {
			t.Fatalf("swapped member @%d still resident", id)
		}
	}

	// The memory is back (minus the replacement-object) at commit, before
	// any collection runs.
	if n := h.StatsSnapshot().Collections; n != 0 {
		t.Fatalf("%d collections ran during swap-out, want 0", n)
	}
	freed := before - h.Used()
	if freed < clusterBytes-200 || freed > clusterBytes {
		t.Fatalf("freed %d bytes at commit, want about %d", freed, clusterBytes)
	}
	// A collection afterwards finds nothing of the cluster left to reclaim.
	if st := f.rt.Collect(); st.BytesFreed >= clusterBytes {
		t.Fatalf("collection after swap-out freed %d bytes: the cluster was not reclaimed at commit", st.BytesFreed)
	}
	if !f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("cluster not marked swapped")
	}
}

func TestReloadRestoresGraph(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 30, 10, 16)
	want := f.snapshotTags(t)

	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	// Touching the graph faults the cluster back in transparently.
	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("list length after reload = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("cluster still marked swapped after traversal")
	}
	// The copy stays on the device, retained: the cluster can leave on it.
	keys, _ := f.mem.Keys(ctx)
	if len(keys) != 1 || keys[0] != ev.Key {
		t.Fatalf("device holds %v after reload, want the retained copy %q", keys, ev.Key)
	}
}

func TestSwapRoundTripIsIsomorphic(t *testing.T) {
	// The paper's Figure 3 → Figure 4 → Figure 3 cycle, on a list.
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 40, 10, 8)
	want := f.snapshotTags(t)

	for cycle := 0; cycle < 3; cycle++ {
		for _, c := range clusters[1:] {
			if _, err := f.rt.SwapOut(c); err != nil {
				t.Fatalf("cycle %d cluster %d: %v", cycle, c, err)
			}
			f.rt.Collect()
			if _, err := f.rt.SwapIn(c); err != nil {
				t.Fatalf("cycle %d cluster %d: %v", cycle, c, err)
			}
		}
		got := f.snapshotTags(t)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cycle %d: tag[%d] = %d, want %d", cycle, i, got[i], want[i])
			}
		}
	}
	// Original object identities are preserved across the cycles.
	o, err := f.rt.Heap().Get(ids[15])
	if err != nil {
		t.Fatalf("node 15 lost its identity: %v", err)
	}
	tag, _ := o.FieldByName("tag")
	if tag.MustInt() != 15 {
		t.Fatalf("node 15 tag = %v", tag)
	}
}

func TestSwapInExplicitAndErrors(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 20, 10, 8)

	if _, err := f.rt.SwapOut(RootCluster); !errors.Is(err, ErrRootCluster) {
		t.Errorf("swap root: %v", err)
	}
	if _, err := f.rt.SwapOut(ClusterID(999)); !errors.Is(err, ErrUnknownCluster) {
		t.Errorf("swap unknown: %v", err)
	}
	empty := f.rt.Manager().NewCluster()
	if _, err := f.rt.SwapOut(empty); err == nil {
		t.Error("swap empty cluster: want error")
	}
	if _, err := f.rt.SwapIn(clusters[1]); !errors.Is(err, ErrClusterLoaded) {
		t.Errorf("swap-in loaded: %v", err)
	}
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapOut(clusters[1]); !errors.Is(err, ErrClusterSwapped) {
		t.Errorf("double swap-out: %v", err)
	}
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	// No store provider at all.
	bare := NewRuntime(heap.New(0), heap.NewRegistry())
	bare.MustRegisterClass(newNodeClass())
	c := bare.Manager().NewCluster()
	o, _ := bare.NewObject(newNodeClassClone(), c)
	_ = o
	if _, err := bare.SwapOut(c); !errors.Is(err, ErrNoStores) {
		t.Errorf("no stores: %v", err)
	}
}

// newNodeClassClone returns a second registered-compatible class instance for
// the bare-runtime test above (class instances cannot be shared across
// registries once registered).
func newNodeClassClone() *heap.Class { return newNodeClass() }

func TestOutboundEdgesKeepDownstreamAlive(t *testing.T) {
	// Cluster A references cluster B; B is reachable ONLY through A. While A
	// is swapped out, its replacement-object must keep B alive (conservative
	// whole-cluster reachability). When the last reference to A disappears,
	// both die and the device copy is dropped.
	f := newFixture(t, 0)
	ca := f.rt.Manager().NewCluster()
	cb := f.rt.Manager().NewCluster()
	a, _ := f.rt.NewObject(f.node, ca)
	b, _ := f.rt.NewObject(f.node, cb)
	if err := f.rt.SetFieldValue(a.RefTo(), "next", b.RefTo()); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.SetRoot("a", a.RefTo()); err != nil {
		t.Fatal(err)
	}
	bID := b.ID()

	ev, err := f.rt.SwapOut(ca)
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	if !f.rt.Heap().Contains(bID) {
		t.Fatal("downstream cluster B collected while A swapped (outbound edge lost)")
	}

	// Drop the root: A's inbound proxy and replacement become garbage; B
	// follows; the device is told to drop the XML.
	f.rt.Heap().DelRoot("a")
	f.rt.Collect()
	if f.rt.Heap().Contains(bID) {
		t.Fatal("B survived after the whole subgraph died")
	}
	if _, err := f.mem.Get(ctx, ev.Key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("device still holds dropped cluster: %v", err)
	}
	if f.rt.Manager().IsSwapped(ca) {
		t.Fatal("dead swapped cluster still tracked")
	}
}

func TestSwapEventsPublished(t *testing.T) {
	bus := event.NewBus()
	h := heap.New(0)
	devices := store.NewRegistry(store.SelectMostFree)
	_ = devices.Add("d", store.NewMem(0))
	rt := NewRuntime(h, heap.NewRegistry(), WithStores(devices), WithBus(bus))
	node := newNodeClass()
	rt.MustRegisterClass(node)

	var outs, ins, drops []SwapEvent
	bus.Subscribe(event.TopicSwapOut, func(ev event.Event) {
		outs = append(outs, ev.Payload.(SwapEvent))
	})
	bus.Subscribe(event.TopicSwapIn, func(ev event.Event) {
		ins = append(ins, ev.Payload.(SwapEvent))
	})
	bus.Subscribe(event.TopicSwapDrop, func(ev event.Event) {
		drops = append(drops, ev.Payload.(SwapEvent))
	})

	c := rt.Manager().NewCluster()
	o, _ := rt.NewObject(node, c)
	if err := rt.SetRoot("x", o.RefTo()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapOut(c); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapIn(c); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapOut(c); err != nil {
		t.Fatal(err)
	}
	h.DelRoot("x")
	rt.Collect()

	if len(outs) != 2 || len(ins) != 1 || len(drops) != 1 {
		t.Fatalf("events: %d outs, %d ins, %d drops", len(outs), len(ins), len(drops))
	}
	if outs[0].Cluster != c || drops[0].Cluster != c {
		t.Fatalf("event payloads: %+v %+v", outs[0], drops[0])
	}
}

func TestProxiesCreatedWhileSwappedTargetReplacement(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 20, 10, 8)
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	// Create a new proxy to a member of the swapped cluster (e.g. the app
	// stores a reference it got earlier into a fresh root).
	pid, err := f.rt.proxyFor(RootCluster, ids[15])
	if err != nil {
		t.Fatal(err)
	}
	if err := f.rt.SetRoot("late", heap.Ref(pid)); err != nil {
		t.Fatal(err)
	}
	// Invoking it faults the cluster in.
	late, _ := f.rt.Root("late")
	tag, err := f.rt.Invoke(late, "tag")
	if err != nil {
		t.Fatal(err)
	}
	if tag[0].MustInt() != 15 {
		t.Fatalf("late proxy reached tag %v, want 15", tag[0])
	}
}

func TestSwapOutFailsCleanlyWhenNoDeviceFits(t *testing.T) {
	h := heap.New(0)
	devices := store.NewRegistry(store.SelectMostFree)
	_ = devices.Add("tiny", store.NewMem(16)) // too small for any payload, whatever the key length
	rt := NewRuntime(h, heap.NewRegistry(), WithStores(devices))
	node := newNodeClass()
	rt.MustRegisterClass(node)
	c := rt.Manager().NewCluster()
	o, _ := rt.NewObject(node, c)
	if err := rt.SetRoot("x", o.RefTo()); err != nil {
		t.Fatal(err)
	}
	used := h.Used()
	if _, err := rt.SwapOut(c); !errors.Is(err, store.ErrNoDevice) {
		t.Fatalf("want ErrNoDevice, got %v", err)
	}
	// Graph untouched; replacement rolled back; a shipment that never landed
	// frees nothing.
	if rt.Manager().IsSwapped(c) {
		t.Fatal("cluster marked swapped after failure")
	}
	if !h.Contains(o.ID()) {
		t.Fatal("member freed although its shipment failed")
	}
	if h.Used() != used {
		t.Fatalf("used %d after failed swap-out, want the %d before it", h.Used(), used)
	}
	rt.Collect()
	if h.Used() > used {
		t.Fatalf("leaked middleware objects: used %d > %d", h.Used(), used)
	}
	tags, err := rt.Invoke(mustRoot(t, rt, "x"), "tag")
	if err != nil || tags[0].MustInt() != 0 {
		t.Fatalf("graph damaged by failed swap-out: %v %v", tags, err)
	}
}

func mustRoot(t testing.TB, rt *Runtime, name string) heap.Value {
	t.Helper()
	v, ok := rt.Root(name)
	if !ok {
		t.Fatalf("missing root %s", name)
	}
	return v
}

func TestSwapOutOfActiveClusterRefused(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 20, 10, 8)
	victim := clusters[0]

	// A method that, mid-flight, tries to swap out its own cluster.
	evil := heap.NewClass("Evil", heap.FieldDef{Name: "peer", Kind: heap.KindRef})
	var rtRef = f.rt
	evil.AddMethod("selfswap", func(call *heap.Call) ([]heap.Value, error) {
		_, err := rtRef.SwapOut(victim)
		if err != nil {
			return []heap.Value{heap.Str(err.Error())}, nil
		}
		return []heap.Value{heap.Str("")}, nil
	})
	f.rt.MustRegisterClass(evil)
	e, err := f.rt.NewObject(evil, victim)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.rt.Invoke(e.RefTo(), "selfswap")
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := out[0].Str()
	if !strings.Contains(msg, "in-flight") {
		t.Fatalf("self-swap not refused: %q", msg)
	}
}

func TestDropRetryWhenDeviceUnreachable(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 20, 10, 8)
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	// Kill the last reference to the swapped cluster, then make the device
	// unreachable before the collection that would drop the XML.
	// Cut the boundary edge: node 9's next.
	cur := f.head(t)
	for i := 0; i < 9; i++ {
		next, err := f.rt.Field(cur, "next")
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if err := f.rt.SetFieldValue(cur, "next", heap.Nil()); err != nil {
		t.Fatal(err)
	}

	f.reg.SetAvailable("pda-neighbor", false)
	f.rt.Collect()
	if f.rt.Manager().PendingDrops() != 1 {
		t.Fatalf("pending drops = %d, want 1", f.rt.Manager().PendingDrops())
	}
	// Device comes back; next collection retries and succeeds.
	f.reg.SetAvailable("pda-neighbor", true)
	f.rt.Collect()
	if f.rt.Manager().PendingDrops() != 0 {
		t.Fatalf("pending drops = %d, want 0", f.rt.Manager().PendingDrops())
	}
	if _, err := f.mem.Get(ctx, ev.Key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("XML not dropped after retry: %v", err)
	}
}

func TestEvictorOnAllocationPressure(t *testing.T) {
	// A heap with room for roughly two 10-node clusters (plus middleware
	// objects): building four clusters forces the coldest ones out through
	// the evictor, and reading everything back forces reload-evictions too.
	node := newNodeClass()
	h := heap.New(3200)
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	_ = devices.Add("d", mem)
	rt := NewRuntime(h, heap.NewRegistry(), WithStores(devices))
	rt.MustRegisterClass(node)
	rt.SetEvictor(func(need int64) error { return rt.EvictWith(EvictOptions{}, need) })

	const numClusters, perCluster = 4, 10
	var clusters []ClusterID
	for c := 0; c < numClusters; c++ {
		cl := rt.Manager().NewCluster()
		clusters = append(clusters, cl)
		var prev *heap.Object
		for i := 0; i < perCluster; i++ {
			o, err := rt.NewObject(node, cl)
			if err != nil {
				t.Fatalf("cluster %d obj %d: %v", c, i, err)
			}
			o.MustSet("tag", heap.Int(int64(c*100+i)))
			if prev == nil {
				if err := rt.SetRoot(fmt.Sprintf("head-%d", c), o.RefTo()); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := rt.SetFieldValue(prev.RefTo(), "next", o.RefTo()); err != nil {
					t.Fatal(err)
				}
			}
			prev = o
		}
	}
	// At least one earlier cluster must have been swapped out to make room.
	swapped := 0
	for _, cl := range clusters {
		if rt.Manager().IsSwapped(cl) {
			swapped++
		}
	}
	if swapped == 0 {
		t.Fatal("no cluster evicted under pressure")
	}
	// Every chain is still fully readable through its root; reloads may
	// themselves need to evict other clusters.
	for c := 0; c < numClusters; c++ {
		cur := mustRoot(t, rt, fmt.Sprintf("head-%d", c))
		for i := 0; i < perCluster; i++ {
			out, err := rt.Invoke(cur, "tag")
			if err != nil {
				t.Fatalf("cluster %d node %d: %v", c, i, err)
			}
			if out[0].MustInt() != int64(c*100+i) {
				t.Fatalf("cluster %d node %d tag = %v", c, i, out[0])
			}
			next, err := rt.Field(cur, "next")
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		if !cur.IsNil() {
			t.Fatalf("cluster %d chain longer than built", c)
		}
	}
}

// Property: arbitrary swap-out/swap-in sequences on a random multi-cluster
// graph never change the application-visible list of tags.
func TestPropSwapSequencesPreserveGraph(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := newFixture(t, 0)
		n := 10 + r.Intn(40)
		per := 3 + r.Intn(7)
		_, clusters := f.buildList(t, n, per, 8)
		want := f.snapshotTags(t)

		for step := 0; step < 12; step++ {
			c := clusters[r.Intn(len(clusters))]
			if f.rt.Manager().IsSwapped(c) {
				if _, err := f.rt.SwapIn(c); err != nil {
					t.Logf("seed %d: swap-in %d: %v", seed, c, err)
					return false
				}
			} else {
				if _, err := f.rt.SwapOut(c); err != nil {
					t.Logf("seed %d: swap-out %d: %v", seed, c, err)
					return false
				}
				if r.Intn(2) == 0 {
					f.rt.Collect()
				}
			}
		}
		got := f.snapshotTags(t)
		if len(got) != len(want) {
			t.Logf("seed %d: len %d != %d", seed, len(got), len(want))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: tag[%d] %d != %d", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
