package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// newNodeClass builds the list-node class used throughout the core tests. Its
// methods exercise every interception path: plain scalar passing ("walk"),
// reference returns ("next", "fetch"), and reference arguments ("setNext").
// "next", "walk", "fetch" and "outer" are bench.NodeClass's Figure 5 methods
// and return through Return; "tag" keeps the old form, a fresh result slice.
func newNodeClass() *heap.Class {
	c := heap.NewClass("Node",
		heap.FieldDef{Name: "payload", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
		heap.FieldDef{Name: "tag", Kind: heap.KindInt},
	)
	c.AddMethod("next", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		return call.Return(v), nil
	})
	c.AddMethod("tag", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("tag")
		if err != nil {
			return nil, err
		}
		return []heap.Value{v}, nil
	})
	// walk: Test A1's recursion — pass an int down the whole list.
	c.AddMethod("walk", func(call *heap.Call) ([]heap.Value, error) {
		depth, err := call.Arg(0).Int()
		if err != nil {
			return nil, err
		}
		next, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		if next.IsNil() {
			return call.Return(heap.Int(depth)), nil
		}
		return call.RT.Invoke(next, "walk", heap.Int(depth+1))
	})
	// fetch: Test A2's inner recursion — return a reference k positions
	// ahead (or the last node).
	c.AddMethod("fetch", func(call *heap.Call) ([]heap.Value, error) {
		k, err := call.Arg(0).Int()
		if err != nil {
			return nil, err
		}
		next, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		if k <= 0 || next.IsNil() {
			return call.Return(call.Self.RefTo()), nil
		}
		return call.RT.Invoke(next, "fetch", heap.Int(k-1))
	})
	// outer: Test A2's outer recursion — per step, an inner recursion of
	// depth 10 whose reference is dropped, then advance.
	c.AddMethod("outer", func(call *heap.Call) ([]heap.Value, error) {
		depth, err := call.Arg(0).Int()
		if err != nil {
			return nil, err
		}
		if _, err := call.RT.Invoke(call.Self.RefTo(), "fetch", heap.Int(10)); err != nil {
			return nil, err
		}
		next, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		if next.IsNil() {
			return call.Return(heap.Int(depth)), nil
		}
		return call.RT.Invoke(next, "outer", heap.Int(depth+1))
	})
	// setNext: reference-argument interception.
	c.AddMethod("setNext", func(call *heap.Call) ([]heap.Value, error) {
		if err := call.RT.SetFieldValue(call.Self.RefTo(), "next", call.Arg(0)); err != nil {
			return nil, err
		}
		return nil, nil
	})
	return c
}

// fixture bundles a runtime wired to an in-memory device registry; opts are
// applied after the registry.
type fixture struct {
	rt   *Runtime
	reg  *store.Registry
	mem  *store.Mem
	node *heap.Class
}

// The caller-locked internals, each under one hold of the runtime lock as an
// exported entry takes it: aids for tests that call them directly.

func (rt *Runtime) lockedProxyFor(src ClusterID, target heap.ObjID) (heap.ObjID, error) {
	rt.lock()
	defer rt.unlock()
	return rt.proxyFor(src, target, rt.mgr.clusterOf(target))
}

func (rt *Runtime) lockedNewProxy(src ClusterID, target heap.ObjID, cursor bool) (heap.ObjID, error) {
	rt.lock()
	defer rt.unlock()
	return rt.newProxy(src, target, rt.mgr.clusterOf(target), cursor)
}

func (rt *Runtime) lockedReserve(id ClusterID, from, to residency) (*clusterState, error) {
	rt.lock()
	defer rt.unlock()
	return rt.reserve(id, from, to, nil)
}

func (rt *Runtime) lockedSettle(cs *clusterState, to residency) {
	rt.lock()
	defer rt.unlock()
	rt.settle(cs, to, nil)
}

// inHold runs fn on rt's heap inside one hold of the runtime lock: the one
// way a test reads the heap or writes an object, as host code does
// (Held.Heap). The lockcount build checks the hold at every heap entry.
func inHold(rt *Runtime, fn func(h *heap.Heap)) {
	rt.Locked(func(x *Held) { fn(x.Heap()) })
}

func (rt *Runtime) lockedContains(id heap.ObjID) bool {
	rt.lock()
	defer rt.unlock()
	return rt.h.Contains(id)
}

func (rt *Runtime) lockedUltimateOf(v heap.Value) (heap.ObjID, error) {
	rt.lock()
	defer rt.unlock()
	d, err := rt.ultimateOf(v)
	return d.ultimate, err
}

func newFixture(t testing.TB, capacity int64, opts ...Option) *fixture {
	t.Helper()
	h := heap.New(capacity)
	classes := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	if err := devices.Add("pda-neighbor", mem); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(h, classes, append([]Option{WithStores(devices)}, opts...)...)
	f := &fixture{rt: rt, reg: devices, mem: mem, node: newNodeClass()}
	rt.MustRegisterClass(f.node)
	return f
}

// buildList creates n chained nodes, perCluster per swap-cluster, each with a
// payload of payloadLen bytes, and installs the head as root "head". It
// returns the node ids in list order and the cluster ids used. It holds the
// nodes in a scope until they are linked, so it leaves no host root behind.
func (f *fixture) buildList(t testing.TB, n, perCluster, payloadLen int) ([]heap.ObjID, []ClusterID) {
	t.Helper()
	var clusters []ClusterID
	ids := make([]heap.ObjID, n)
	_ = f.rt.Scope(func() error {
		var objs []*heap.Object
		for i := 0; i < n; i++ {
			if i%perCluster == 0 {
				clusters = append(clusters, f.rt.Manager().NewCluster())
			}
			o, err := f.rt.NewObject(f.node, clusters[len(clusters)-1])
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
			payload := make([]byte, payloadLen)
			for j := range payload {
				payload[j] = byte(i)
			}
			f.rt.Locked(func(*Held) { o.MustSet("payload", heap.Bytes(payload)).MustSet("tag", heap.Int(int64(i))) })
			ids[i] = o.ID()
			objs = append(objs, o)
		}
		for i := 0; i < n-1; i++ {
			if err := f.rt.SetFieldValue(objs[i].RefTo(), "next", objs[i+1].RefTo()); err != nil {
				t.Fatalf("link %d: %v", i, err)
			}
		}
		if err := f.rt.SetRoot("head", objs[0].RefTo()); err != nil {
			t.Fatal(err)
		}
		return nil
	})
	return ids, clusters
}

// letGo drops every reference rt handed to host code, as the close of the
// last open scope does.
func letGo(rt *Runtime) { _ = rt.Scope(func() error { return nil }) }

// dirty rewrites object id's first field with the value it already holds: a
// write the observer sees, so the object's cluster ships at its next swap-out
// instead of leaving on its retained copy, and everything reads as before.
func (f *fixture) dirty(t testing.TB, id heap.ObjID) {
	t.Helper()
	var err error
	f.rt.Locked(func(x *Held) {
		var o *heap.Object
		if o, err = x.Heap().Get(id); err == nil {
			err = o.SetField(0, o.Field(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) head(t testing.TB) heap.Value {
	t.Helper()
	v, ok := f.rt.Root("head")
	if !ok {
		t.Fatal("missing head root")
	}
	return v
}

func TestBoundaryEdgesGetProxies(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 30, 10, 8)
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	// Two boundary edges inside the list, plus the root → cluster-1 edge.
	if got := f.rt.Manager().ProxyCount(); got != 3 {
		t.Fatalf("proxy count = %d, want 3", got)
	}
	if !f.rt.IsProxyRef(f.head(t)) {
		t.Error("root should hold a proxy (cluster-0 → cluster-1 edge)")
	}
}

func TestIntraClusterEdgesAreDirect(t *testing.T) {
	f := newFixture(t, 0)
	ids, _ := f.buildList(t, 10, 10, 8)
	// Single cluster: no boundary edges except the root.
	if got := f.rt.Manager().ProxyCount(); got != 1 {
		t.Fatalf("proxy count = %d, want 1 (root only)", got)
	}
	var o *heap.Object
	inHold(f.rt, func(h *heap.Heap) { o, _ = h.Get(ids[0]) })
	next, _ := o.FieldByName("next")
	if next.MustRef() != ids[1] {
		t.Fatalf("intra-cluster edge not direct: %v", next)
	}
}

func TestWalkMatchesDirectRuntime(t *testing.T) {
	for _, per := range []int{3, 7, 20, 100} {
		per := per
		t.Run(fmt.Sprintf("per=%d", per), func(t *testing.T) {
			f := newFixture(t, 0)
			f.buildList(t, 100, per, 8)
			out, err := f.rt.Invoke(f.head(t), "walk", heap.Int(1))
			if err != nil {
				t.Fatal(err)
			}
			if out[0].MustInt() != 100 {
				t.Fatalf("walk depth = %v, want 100", out[0])
			}
		})
	}
}

func TestProxyReuseAcrossSamePair(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 20, 10, 8)
	before := f.rt.Manager().ProxyCount()

	// Add a second reference from cluster 1 to the same head of cluster 2:
	// must reuse the existing boundary proxy.
	var src *heap.Object
	inHold(f.rt, func(h *heap.Heap) { src, _ = h.Get(ids[3]) })
	if err := f.rt.SetFieldValue(src.RefTo(), "next", heap.Ref(ids[10])); err != nil {
		t.Fatal(err)
	}
	if got := f.rt.Manager().ProxyCount(); got != before {
		t.Fatalf("proxy count = %d, want %d (reuse)", got, before)
	}
	// Confirm both fields hold the same proxy object.
	var a, b *heap.Object
	inHold(f.rt, func(h *heap.Heap) {
		a, _ = h.Get(ids[9])
		b, _ = h.Get(ids[3])
	})
	av, _ := a.FieldByName("next")
	bv, _ := b.FieldByName("next")
	if av.MustRef() != bv.MustRef() {
		t.Fatalf("distinct proxies for same (src,target): %v vs %v", av, bv)
	}
	_ = clusters
}

func TestDismantleIntoOwnCluster(t *testing.T) {
	f := newFixture(t, 0)
	ids, _ := f.buildList(t, 20, 10, 8)
	// Node 5 (cluster 1) gets a reference to node 2 (cluster 1) that arrives
	// as a proxy-free direct ref even if expressed via the head proxy chain.
	out, err := f.rt.Invoke(f.head(t), "fetch", heap.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	// Result returned to cluster 0 — head's proxy source — so fetch(2)
	// (a cluster-1 object) must be mediated for cluster 0.
	if !f.rt.IsProxyRef(out[0]) {
		t.Fatalf("cross-cluster return not proxied: %v", out[0])
	}
	eq, err := f.rt.RefEqual(out[0], heap.Ref(ids[2]))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("fetch(2) did not reach node 2")
	}

	// Now store that (cluster-0-mediated) value into a cluster-1 object's
	// field: interception must dismantle it back to a direct reference.
	var n5 *heap.Object
	inHold(f.rt, func(h *heap.Heap) { n5, _ = h.Get(ids[5]) })
	if err := f.rt.SetFieldValue(n5.RefTo(), "next", out[0]); err != nil {
		t.Fatal(err)
	}
	nv, _ := n5.FieldByName("next")
	if nv.MustRef() != ids[2] {
		t.Fatalf("reference into own cluster not dismantled: %v", nv)
	}
}

func TestCrossClusterReturnCreatesAndReusesProxy(t *testing.T) {
	f := newFixture(t, 0)
	_, _ = f.buildList(t, 40, 10, 8)
	before := f.rt.Manager().ProxyCount()
	// fetch(15) from the head reaches node 15 in cluster 2. The returned
	// reference crosses two boundaries on its way back — the cluster-2→1
	// proxy in the middle of the list and the cluster-1→0 head proxy — and
	// each crossing mediates it with a fresh proxy (exactly the behaviour
	// the paper describes for Test A2's inner recursions).
	out1, err := f.rt.Invoke(f.head(t), "fetch", heap.Int(15))
	if err != nil {
		t.Fatal(err)
	}
	after1 := f.rt.Manager().ProxyCount()
	if after1 != before+2 {
		t.Fatalf("proxies after first fetch = %d, want %d", after1, before+2)
	}
	// The same fetch again must reuse the registered proxy.
	out2, err := f.rt.Invoke(f.head(t), "fetch", heap.Int(15))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.rt.Manager().ProxyCount(); got != after1 {
		t.Fatalf("proxies after second fetch = %d, want %d (reuse)", got, after1)
	}
	if out1[0].MustRef() != out2[0].MustRef() {
		t.Fatal("same (src,target) pair produced different proxies")
	}
}

func TestFieldAccessThroughProxy(t *testing.T) {
	f := newFixture(t, 0)
	ids, _ := f.buildList(t, 20, 10, 8)
	// head is a proxy (cluster 0 → cluster 1).
	tag, err := f.rt.Field(f.head(t), "tag")
	if err != nil {
		t.Fatal(err)
	}
	if tag.MustInt() != 0 {
		t.Fatalf("tag via proxy = %v", tag)
	}
	// Reference-valued field read through a proxy is mediated for cluster 0.
	next, err := f.rt.Field(f.head(t), "next")
	if err != nil {
		t.Fatal(err)
	}
	if next.IsNil() {
		t.Fatal("next is nil")
	}
	// node 1 is in cluster 1; the reader is cluster 0 → proxy.
	if !f.rt.IsProxyRef(next) {
		t.Fatalf("field read not mediated: %v", next)
	}
	eq, _ := f.rt.RefEqual(next, heap.Ref(ids[1]))
	if !eq {
		t.Fatal("field read reached wrong node")
	}
	// Writing through a proxy translates into the target's cluster.
	if err := f.rt.SetFieldValue(f.head(t), "tag", heap.Int(99)); err != nil {
		t.Fatal(err)
	}
	var o *heap.Object
	inHold(f.rt, func(h *heap.Heap) { o, _ = h.Get(ids[0]) })
	tv, _ := o.FieldByName("tag")
	if tv.MustInt() != 99 {
		t.Fatalf("write through proxy lost: %v", tv)
	}
}

func TestRefEqualIdentity(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 30, 10, 8)
	// Build two distinct proxies to node 10 from two different clusters.
	p1, err := f.rt.lockedProxyFor(RootCluster, ids[10])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.rt.lockedProxyFor(ClusterID(clusters[2]), ids[10])
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("test needs two distinct proxies")
	}
	eq, err := f.rt.RefEqual(heap.Ref(p1), heap.Ref(p2))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("two proxies to the same object must compare equal")
	}
	eq, _ = f.rt.RefEqual(heap.Ref(p1), heap.Ref(ids[11]))
	if eq {
		t.Fatal("proxy to node 10 equals node 11")
	}
	eq, _ = f.rt.RefEqual(heap.Ref(p1), heap.Ref(ids[10]))
	if !eq {
		t.Fatal("proxy vs direct reference to same object must compare equal")
	}
	// Nil handling and fallback for non-references.
	if eq, _ := f.rt.RefEqual(heap.Nil(), heap.Nil()); !eq {
		t.Fatal("nil == nil")
	}
	if eq, _ := f.rt.RefEqual(heap.Nil(), heap.Ref(ids[0])); eq {
		t.Fatal("nil != ref")
	}
	if eq, _ := f.rt.RefEqual(heap.Int(3), heap.Int(3)); !eq {
		t.Fatal("scalar fallback")
	}
}

func TestAssignOptimizationAvoidsProxyChurn(t *testing.T) {
	f := newFixture(t, 0)
	const n = 60
	f.buildList(t, n, 10, 8)

	// B1 pattern: iterate via a global variable; each step creates a fresh
	// proxy (distinct target, source cluster 0).
	base := f.rt.Manager().ProxyCount()
	cur := f.head(t)
	for i := 0; i < n-1; i++ {
		out, err := f.rt.Invoke(cur, "next") // each return mediated for cluster 0

		if err != nil {
			t.Fatal(err)
		}
		if out[0].IsNil() {
			t.Fatalf("list ended early at %d", i)
		}
		cur = out[0]
		if err := f.rt.SetRoot("cursor", cur); err != nil {
			t.Fatal(err)
		}
	}
	churn := f.rt.Manager().ProxyCount() - base
	if churn < n/2 {
		t.Fatalf("B1 churn = %d proxies, expected many (≥%d)", churn, n/2)
	}

	// B2 pattern: the same iteration with the assign optimization reuses the
	// single cursor proxy.
	f.rt.Collect() // drop the churned proxies
	base = f.rt.Manager().ProxyCount()
	cur = f.head(t)
	if err := f.rt.Assign(cur); err != nil {
		t.Fatal(err)
	}
	firstProxy := cur.MustRef()
	steps := 0
	for {
		out, err := f.rt.Invoke(cur, "next")
		if err != nil {
			t.Fatal(err)
		}
		if out[0].IsNil() {
			break
		}
		cur = out[0]
		steps++
		if steps < n-10 && cur.MustRef() != firstProxy {
			t.Fatalf("assign mode did not return self at step %d", steps)
		}
		if steps > n {
			t.Fatal("runaway iteration")
		}
	}
	if steps != n-1 {
		t.Fatalf("iterated %d steps, want %d", steps, n-1)
	}
	created := f.rt.Manager().ProxyCount() - base
	if created > 0 {
		t.Fatalf("B2 created %d proxies, want 0", created)
	}
	if err := f.rt.Assign(heap.Ref(1234567)); err == nil {
		t.Fatal("Assign on dangling ref: want error")
	}
	o, _ := f.rt.NewObject(f.node, f.rt.Manager().NewCluster())
	if err := f.rt.Assign(o.RefTo()); !errors.Is(err, ErrNotProxy) {
		t.Fatalf("Assign on non-proxy: got %v, want ErrNotProxy", err)
	}
}

func TestAssignDismantlesIntoSourceCluster(t *testing.T) {
	f := newFixture(t, 0)
	// Two nodes: a in cluster 1, b in cluster 0 (root cluster). A proxy from
	// cluster 0 to a, in assign mode, returning a reference to b (cluster 0)
	// must dismantle to a direct reference — not patch itself.
	c1 := f.rt.Manager().NewCluster()
	a, _ := f.rt.NewObject(f.node, c1)
	b, _ := f.rt.NewObject(f.node, RootCluster)
	if err := f.rt.SetFieldValue(a.RefTo(), "next", b.RefTo()); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.SetRoot("a", a.RefTo()); err != nil {
		t.Fatal(err)
	}
	av, _ := f.rt.Root("a")
	if err := f.rt.Assign(av); err != nil {
		t.Fatal(err)
	}
	out, err := f.rt.Invoke(av, "next")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustRef() != b.ID() {
		t.Fatalf("assign return into source cluster = %v, want direct @%d", out[0], b.ID())
	}
}

func TestNewObjectValidation(t *testing.T) {
	f := newFixture(t, 0)
	if _, err := f.rt.NewObject(f.node, ClusterID(999)); !errors.Is(err, ErrUnknownCluster) {
		t.Fatalf("unknown cluster: got %v", err)
	}
	unreg := heap.NewClass("Ghost")
	if _, err := f.rt.NewObject(unreg, RootCluster); err == nil {
		t.Fatal("unregistered class: want error")
	}
	// A class that only shares a registered name would swap out and never
	// reload: the install reads the registered class's fields.
	namesake := heap.NewClass(f.node.Name, heap.FieldDef{Name: "other", Kind: heap.KindInt})
	if _, err := f.rt.NewObject(namesake, f.rt.Manager().NewCluster()); err == nil {
		t.Fatal("unregistered class sharing a registered name: want error")
	}
	if err := f.rt.RegisterClass(f.node); err == nil {
		t.Fatal("duplicate RegisterClass: want error")
	}
	if err := f.rt.RegisterClass(f.rt.proxyClass); err == nil {
		t.Fatal("registering middleware class: want error")
	}
}

// TestTraceAndKeyText: trace ids are built by appending into an operation's
// record (or, for an id too long for it, a buffer of its own) and storage
// keys into a stack buffer, and read exactly as their format strings do — a
// trace's sequence as at least eight hex digits, a key's cluster and
// generation in decimal — for short and long device names, and sequences
// past the padding. The id, its context and its flight-recorder label agree.
func TestTraceAndKeyText(t *testing.T) {
	for _, name := range []string{"dev1", "dev1234", "a-device-name-longer-than-the-forty-eight-byte-buffer-it-starts-in"} {
		rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithName(name))
		for _, seq := range []uint64{0, 0xfe, 0x1234567, 0xfffffffe, 1 << 40} {
			rt.traceSeq.Store(seq)
			for _, phases := range []int{0, 3, 5, 6} {
				var p op
				p.begin(rt, &opSwapIn, 1, context.Background())
				rt.traceSeq.Store(seq)
				p.handOut(phases)
				want := fmt.Sprintf("%s-%08x", name, seq+1)
				if p.trace != want || obs.TraceFrom(p.ctx) != want || p.span.Trace() != want {
					t.Fatalf("trace %q (context %q, span %q), want %q", p.trace, obs.TraceFrom(p.ctx), p.span.Trace(), want)
				}
				if len(p.phases) != phases {
					t.Fatalf("a record for %d phases holds %d", phases, len(p.phases))
				}
			}
			rt.keyseq.Store(seq)
			for _, c := range []ClusterID{1, 4294967295} {
				if got, want := rt.nextKey(c), fmt.Sprintf("%s-swapcluster-%d-gen%d", name, c, seq+1); got != want {
					t.Fatalf("key %q, want %q", got, want)
				}
				rt.keyseq.Store(seq)
			}
		}
	}
}

// TestDefaultNamesAreFixedWidth: two default-named runtimes whose sequence
// numbers lie on either side of a digit boundary (the next two powers of ten
// past the process's count, so no name is handed out twice) mint storage
// keys of equal length, so how many runtimes a process made before does not
// change how many bytes its shipments carry.
func TestDefaultNamesAreFixedWidth(t *testing.T) {
	for range 2 {
		seq, boundary := atomic.LoadUint64(&runtimeSeq), uint64(10)
		for boundary <= seq+2 {
			boundary *= 10
		}
		atomic.AddUint64(&runtimeSeq, boundary-2-seq) // forward only
		a := NewRuntime(heap.New(0), heap.NewRegistry())
		b := NewRuntime(heap.New(0), heap.NewRegistry())
		ka, kb := a.nextKey(7), b.nextKey(7)
		if len(a.Name()) != len("dev")+12 || len(ka) != len(kb) {
			t.Fatalf("default names %q and %q mint keys %q and %q", a.Name(), b.Name(), ka, kb)
		}
	}
}
