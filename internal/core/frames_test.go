package core

import (
	"errors"
	"testing"

	"objectswap/internal/baseline"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

var errDive = errors.New("dive hit bottom")

// frameClass builds the frame-lifetime fixture, a list node with buildList's
// fields. "echo" returns its own arguments. "walk"(depth, acc) recurses along
// the list; at every node with a successor it asks the successor to echo
// (depth, depth²), makes a second echo call before reading that answer, and
// adds 1000·depth + depth² to acc — so a clobbered echo shows in the result.
// "dive"(k) recurses until k runs out and panics there (a negative k never
// does), passing every Call it gets to onCall.
func frameClass(onCall func(*heap.Call)) *heap.Class {
	c := heap.NewClass("FrameNode",
		heap.FieldDef{Name: "payload", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
		heap.FieldDef{Name: "tag", Kind: heap.KindInt},
	)
	c.AddMethod("echo", func(call *heap.Call) ([]heap.Value, error) { return call.Args, nil })
	c.AddMethod("walk", func(call *heap.Call) ([]heap.Value, error) {
		depth, acc := call.Arg(0).MustInt(), call.Arg(1).MustInt()
		next, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		if next.IsNil() {
			return []heap.Value{heap.Int(depth), heap.Int(acc)}, nil
		}
		echo, err := call.RT.Invoke(next, "echo", heap.Int(depth), heap.Int(depth*depth))
		if err != nil {
			return nil, err
		}
		if _, err := call.RT.Invoke(next, "echo", heap.Int(-1), heap.Int(-1)); err != nil {
			return nil, err
		}
		acc += 1000*echo[0].MustInt() + echo[1].MustInt()
		return call.RT.Invoke(next, "walk", heap.Int(depth+1), heap.Int(acc))
	})
	c.AddMethod("dive", func(call *heap.Call) ([]heap.Value, error) {
		if onCall != nil {
			onCall(call)
		}
		k := call.Arg(0).MustInt()
		if k == 0 {
			panic(errDive)
		}
		next, err := call.Self.FieldByName("next")
		if err != nil || next.IsNil() {
			return nil, err
		}
		return call.RT.Invoke(next, "dive", heap.Int(k-1))
	})
	return c
}

// newFrameFixture builds an n-node list of frameClass nodes, perCluster to a
// swap-cluster, rooted at "head" (a proxy from the root cluster).
func newFrameFixture(t *testing.T, n, perCluster int, onCall func(*heap.Call)) (*fixture, []heap.ObjID) {
	t.Helper()
	f := newFixture(t, 0)
	f.node = frameClass(onCall)
	f.rt.MustRegisterClass(f.node)
	ids, _ := f.buildList(t, n, perCluster, 8)
	return f, ids
}

// walkWant is what "walk"(1, 0) returns on an n-node list.
func walkWant(n int64) []int64 {
	var acc int64
	for d := int64(1); d < n; d++ {
		acc += 1000*d + d*d
	}
	return []int64{n, acc}
}

func sameInts(got []heap.Value, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if v, err := got[i].Int(); err != nil || v != w {
			return false
		}
	}
	return true
}

// A method body that panics four frames down, across three cluster
// boundaries, leaves nothing behind once the host recovers: depth 0, an empty
// GC-root stack, every Call it passed through released, clean invariants —
// and the next invocation gets depth 1's Call back holding its own receiver
// and arguments.
func TestPanickingMethodUnwindsFrames(t *testing.T) {
	type visit struct {
		call *heap.Call
		self heap.ObjID
		arg  int64
	}
	var seen []visit
	f, ids := newFrameFixture(t, 8, 2, func(c *heap.Call) {
		seen = append(seen, visit{c, c.Self.ID(), c.Arg(0).MustInt()})
	})
	rt := f.rt

	func() {
		defer func() {
			if r := recover(); r != errDive {
				t.Fatalf("recovered %v, want %v", r, errDive)
			}
		}()
		_, _ = rt.Invoke(f.head(t), "dive", heap.Int(3))
	}()
	if len(seen) != 4 {
		t.Fatalf("saw %d calls, want 4", len(seen))
	}
	if rt.depth != 0 || len(rt.stack) != 0 {
		t.Fatalf("frame not unwound: depth %d, stack %v", rt.depth, rt.stack)
	}
	for i, v := range seen {
		if v.call.Self != nil || v.call.Args != nil {
			t.Errorf("Call at depth %d kept self %v, args %v", i+1, v.call.Self, v.call.Args)
		}
	}
	checkClean(t, rt)

	first := seen[0].call
	seen = nil
	if _, err := rt.Invoke(f.head(t), "dive", heap.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(ids) {
		t.Fatalf("saw %d calls, want %d", len(seen), len(ids))
	}
	if v := seen[0]; v.call != first || v.self != ids[0] || v.arg != -1 {
		t.Fatalf("depth 1 after the panic: same Call %v, self @%d, arg %d; want the same Call, @%d, -1",
			v.call == first, v.self, v.arg, ids[0])
	}
	checkClean(t, rt)
}

// The three invokers that share heap.Frames — the direct runtime, the
// swapping runtime, and the per-object baseline — return the same answer on
// one recursion, and it is the right one: every echo a walk step reads
// aliases its argument buffer and outlives the step's next nested call. The
// swapping runtime runs it with the whole list in one cluster and with every
// hop behind a swap-cluster-proxy.
func TestRuntimesAgreeOnRecursion(t *testing.T) {
	const n = 40
	want := walkWant(n)
	cls := frameClass(nil)
	walk := func(inv heap.Invoker, head heap.Value) []heap.Value {
		t.Helper()
		out, err := inv.Invoke(head, "walk", heap.Int(1), heap.Int(0))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	h := heap.New(0)
	var head heap.Value
	var prev *heap.Object
	for i := 0; i < n; i++ {
		o, err := h.New(cls)
		if err != nil {
			t.Fatal(err)
		}
		if prev == nil {
			head = o.RefTo()
		} else {
			prev.MustSet("next", o.RefTo())
		}
		prev = o
	}
	direct := walk(heap.NewDirectRuntime(h), head)

	swapping := map[int][]heap.Value{}
	for _, per := range []int{n, 1} {
		f, _ := newFrameFixture(t, n, per, nil)
		swapping[per] = walk(f.rt, f.head(t))
		checkClean(t, f.rt)
	}

	reg := heap.NewRegistry()
	reg.MustRegister(cls)
	p := baseline.NewPerObject(heap.New(0), reg, store.NewMem(0))
	refs := make([]heap.Value, n)
	for i := range refs {
		ref, err := p.NewObject(cls)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
		if i > 0 {
			if err := p.SetFieldValue(refs[i-1], "next", ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	perObject := walk(p, refs[0])

	results := map[string][]heap.Value{"direct": direct, "per-object": perObject,
		"swapping, one cluster": swapping[n], "swapping, one object per cluster": swapping[1]}
	for name, got := range results {
		if !sameInts(got, want) {
			t.Errorf("%s runtime: walk returned %v, want %v", name, got, want)
		}
	}
}

// TestNestedInvokeAllocatesNothing: a chain of resident nested invocations,
// started with an argument slice the host already holds, allocates nothing —
// no Call, no argument array, no result. check.sh runs it by name.
func TestNestedInvokeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	f, ids := newFrameFixture(t, 10, 10, nil)
	start := heap.Ref(ids[0])
	args := []heap.Value{heap.Int(-1)}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.rt.Invoke(start, "dive", args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ten nested resident invocations allocate %.0f objects, want 0", allocs)
	}
}

// TestFig5A1AllocationsFlat: Figure 5's A1 (bench.NodeClass's "walk" is
// newNodeClass's) over clusters of 20 allocates the same at 1 000 and 2 000
// objects — the host's argument array and the last node's result, not two
// objects per visit. check.sh runs it by name.
func TestFig5A1AllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	a1 := func(n int) float64 {
		f := newFixture(t, 0)
		f.buildList(t, n, 20, 64)
		head := f.head(t)
		return testing.AllocsPerRun(5, func() {
			out, err := f.rt.Invoke(head, "walk", heap.Int(1))
			if err != nil || out[0].MustInt() != int64(n) {
				t.Fatalf("A1 on %d objects: %v, %v", n, out, err)
			}
		})
	}
	small, big := a1(1000), a1(2000)
	if small != big || small > 2 {
		t.Fatalf("A1 allocates %.0f objects over 1 000 nodes and %.0f over 2 000; want the same, at most 2", small, big)
	}
}

// TestNewProxyAllocatesTwo: minting a swap-cluster-proxy allocates the proxy
// object and its field vector, nothing else — its finalizer is bound once per
// runtime and is the object's first. check.sh runs it by name.
func TestNewProxyAllocatesTwo(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 20, 10, 8)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.rt.newProxy(clusters[0], ids[15], true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("newProxy allocates %.0f objects, want 2", allocs)
	}
}
