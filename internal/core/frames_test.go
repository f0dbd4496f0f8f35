package core

import (
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"objectswap/internal/baseline"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

var errDive = errors.New("dive hit bottom")

// frameClass builds the frame-lifetime fixture, a list node with buildList's
// fields. "echo" returns its own arguments through Return, "tail" all but the
// first in the old form (a slice of its Args), and "swap" its two arguments
// swapped through Return. "walk"(depth, acc) recurses along the list; at every
// node with a successor it asks the successor to echo (depth, depth²) and to
// tail (-1, depth), makes a second echo call before reading either answer, and
// adds 1000·depth + depth² + depth to acc — so a clobbered result shows in the
// sum. "later" makes a nested call on its successor before it reads its Args,
// then returns them. "dive"(k) recurses until k runs out and panics there (a
// negative k never does), passing every Call it gets to onCall.
func frameClass(onCall func(*heap.Call)) *heap.Class {
	c := heap.NewClass("FrameNode",
		heap.FieldDef{Name: "payload", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
		heap.FieldDef{Name: "tag", Kind: heap.KindInt},
	)
	c.AddMethod("echo", func(call *heap.Call) ([]heap.Value, error) { return call.Return(call.Args...), nil })
	c.AddMethod("tail", func(call *heap.Call) ([]heap.Value, error) { return call.Args[1:], nil })
	c.AddMethod("swap", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Arg(1), call.Arg(0)), nil
	})
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
		tail, err := call.RT.Invoke(next, "tail", heap.Int(-1), heap.Int(depth))
		if err != nil {
			return nil, err
		}
		if _, err := call.RT.Invoke(next, "echo", heap.Int(-1), heap.Int(-1)); err != nil {
			return nil, err
		}
		acc += 1000*echo[0].MustInt() + echo[1].MustInt() + tail[0].MustInt()
		return call.RT.Invoke(next, "walk", heap.Int(depth+1), heap.Int(acc))
	})
	c.AddMethod("later", func(call *heap.Call) ([]heap.Value, error) {
		next, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		if _, err := call.RT.Invoke(next, "echo", heap.Int(-1), heap.Int(-1)); err != nil {
			return nil, err
		}
		return call.Return(call.Args...), nil
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
		acc += 1000*d + d*d + d
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

// frameRuntime is one invoker over an n-node list, tagged 0 to n-1, and the
// reference its host code starts from.
type frameRuntime struct {
	inv  heap.Invoker
	head heap.Value
}

// directList links n fresh objects of cls on a direct runtime, the Figure 5
// floor.
func directList(t *testing.T, cls *heap.Class, n int) frameRuntime {
	t.Helper()
	h := heap.New(0)
	var head heap.Value
	var prev *heap.Object
	for i := 0; i < n; i++ {
		o, err := h.New(cls)
		if err != nil {
			t.Fatal(err)
		}
		o.MustSet("tag", heap.Int(int64(i)))
		if prev == nil {
			head = o.RefTo()
		} else {
			prev.MustSet("next", o.RefTo())
		}
		prev = o
	}
	return frameRuntime{heap.NewDirectRuntime(h), head}
}

// frameRuntimes builds the four invokers that share heap.Frames over n
// frameClass nodes: the direct runtime, the per-object baseline, and the
// swapping runtime with the whole list in one cluster and with every hop
// behind a swap-cluster-proxy.
func frameRuntimes(t *testing.T, n int) map[string]frameRuntime {
	t.Helper()
	cls := frameClass(nil)
	rts := map[string]frameRuntime{"direct": directList(t, cls, n)}
	for name, per := range map[string]int{"swapping, one cluster": n, "swapping, one object per cluster": 1} {
		f, _ := newFrameFixture(t, n, per, nil)
		rts[name] = frameRuntime{f.rt, f.head(t)}
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
		if err := p.SetFieldValue(ref, "tag", heap.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := p.SetFieldValue(refs[i-1], "next", ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	rts["per-object"] = frameRuntime{p, refs[0]}
	return rts
}

// The three invokers that share heap.Frames return the same answer on one
// recursion that mixes results returned through Return with old-form ones,
// and it is the right one: every echo and tail a walk step reads outlives the
// step's next nested call, whether it came back in the callee's arena or in
// the step's own argument slots. The swapping runtime runs it with the whole
// list in one cluster and with every hop behind a swap-cluster-proxy.
func TestRuntimesAgreeOnRecursion(t *testing.T) {
	const n = 40
	want := walkWant(n)
	for name, r := range frameRuntimes(t, n) {
		got, err := r.inv.Invoke(r.head, "walk", heap.Int(1), heap.Int(0))
		if err != nil {
			t.Fatalf("%s runtime: %v", name, err)
		}
		if !sameInts(got, want) {
			t.Errorf("%s runtime: walk returned %v, want %v", name, got, want)
		}
		if rt, ok := r.inv.(*Runtime); ok {
			checkClean(t, rt)
		}
	}
}

// Host code may pass the results of one call straight back as the arguments
// of the next, on every runtime, to a method that makes a nested call before
// it reads them, and through a proxy that translates them: a reference goes
// around three times and still names the head, an integer keeps its value. A
// runtime that resets its depth-1 arena in place under those arguments
// returns -1s.
func TestHostPassesResultBack(t *testing.T) {
	for name, r := range frameRuntimes(t, 4) {
		out, err := r.inv.Invoke(r.head, "swap", heap.Int(1), r.head)
		if err == nil {
			out, err = r.inv.Invoke(r.head, "later", out...)
		}
		if err == nil {
			out, err = r.inv.Invoke(r.head, "swap", out...)
		}
		if err != nil {
			t.Fatalf("%s runtime: %v", name, err)
		}
		if len(out) != 2 || !out[0].Equal(heap.Int(1)) || !out[1].IsRef() {
			t.Fatalf("%s runtime: results passed back twice read %v, want [1 <head>]", name, out)
		}
		if tag, err := r.inv.Field(out[1], "tag"); err != nil || !tag.Equal(heap.Int(0)) {
			t.Errorf("%s runtime: the reference passed back reads tag %v (%v), want the head's 0", name, tag, err)
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
// objects — the host's argument array, not two objects per visit, and not the
// last node's result, which returns through its frame. check.sh runs it by
// name.
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
	if small != big || small > 1 {
		t.Fatalf("A1 allocates %.0f objects over 1 000 nodes and %.0f over 2 000; want the same, at most 1", small, big)
	}
}

// TestFloorA2AllocatesAtMostOne: a whole A2 pass — 1 000 outer steps, each
// with an inner recursion ten deep that returns a reference — on the direct
// runtime, the Figure 5 floor, allocates at most the host's argument array:
// every result returns through a frame. check.sh runs it by name.
func TestFloorA2AllocatesAtMostOne(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	const n = 1000
	floor := directList(t, newNodeClass(), n)
	allocs := testing.AllocsPerRun(5, func() {
		out, err := floor.inv.Invoke(floor.head, "outer", heap.Int(1))
		if err != nil || out[0].MustInt() != n {
			t.Fatalf("A2 on the floor: %v, %v", out, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("an A2 pass on the floor allocates %.0f objects, want at most 1", allocs)
	}
}

// TestB1StepAllocatesOne: one step of Figure 5's B1 — "next" through the
// cursor's proxy, whose reference result is translated for the root cluster
// — allocates, with no swept block to reissue, the proxy it mints for that
// result, one object with its field vector inside, and nothing else: neither
// the body's result slice nor intercept's translated copy. check.sh runs it
// by name.
func TestB1StepAllocatesOne(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	f := newFixture(t, 0)
	f.buildList(t, 1000, 10, 8)
	cur := f.head(t)
	allocs := testing.AllocsPerRun(200, func() {
		out, err := f.rt.Invoke(cur, "next")
		if err != nil || !out[0].IsRef() {
			t.Fatalf("B1 step: %v, %v", out, err)
		}
		cur = out[0]
	})
	if allocs != 1 {
		t.Fatalf("a B1 step allocates %.0f objects, want 1", allocs)
	}
}

// TestB1PassReusesSweptProxies: once one B1 pass over 1 000 objects in
// clusters of 10 has been followed by a Collect, a further pass plus its
// Collect allocates at most one object: each of its 999 proxies is a block
// the last collection swept and gave back before it returned, the sweep list
// is the heap's buffer at its size already, and the inbound lists compact in
// place. check.sh runs it by name.
func TestB1PassReusesSweptProxies(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	const n = 1000
	f := newFixture(t, 0)
	f.buildList(t, n, 10, 8)
	pass := func() {
		cur := f.head(t)
		for i := 1; i < n; i++ {
			out, err := f.rt.Invoke(cur, "next")
			if err != nil || !out[0].IsRef() {
				t.Fatalf("B1 step %d: %v, %v", i, out, err)
			}
			cur = out[0]
		}
		if st := f.rt.Collect(); st.Reclaimed < n-1 {
			t.Fatalf("the Collect after a B1 pass reclaimed %d objects, want at least %d", st.Reclaimed, n-1)
		}
	}
	pass()
	allocs := testing.AllocsPerRun(5, pass)
	t.Logf("a warm B1 pass plus its Collect allocates %.2f objects", allocs)
	if allocs > 1 {
		t.Fatalf("a warm B1 pass plus its Collect allocates %.2f objects, want at most 1", allocs)
	}
	checkClean(t, f.rt)
}

// TestB2StepAllocatesNothing: one step of Figure 5's B2 — "next" through an
// assign-mode cursor, which patches itself onto the result — allocates
// nothing: the patched cursor returns through the frame. check.sh runs it by
// name.
func TestB2StepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	f := newFixture(t, 0)
	f.buildList(t, 1000, 10, 8)
	cur, err := f.rt.AssignedCursor(f.head(t))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		out, err := f.rt.Invoke(cur, "next")
		if err != nil || !out[0].Equal(cur) {
			t.Fatalf("B2 step: %v, %v; want the cursor %v back", out, err, cur)
		}
	})
	if allocs != 0 {
		t.Fatalf("a B2 step allocates %.0f objects, want 0", allocs)
	}
}

// stackProbe records, at every level of a dive, the address of a local in a
// frame of fixed size, so consecutive addresses lie one nesting level of
// dispatch apart on the Go stack.
type stackProbe struct{ addrs []uintptr }

func (p *stackProbe) onCall(*heap.Call) {
	var local byte
	p.addrs = append(p.addrs, uintptr(unsafe.Pointer(&local)))
}

// perLevel dives to the end of the list through inv twice with the collector
// off and returns the Go stack bytes per level of the second dive: by then
// the goroutine stack has grown to full depth, and nothing copies or shrinks
// it while it is read.
func (p *stackProbe) perLevel(t *testing.T, r frameRuntime) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for run := 0; run < 2; run++ {
		p.addrs = p.addrs[:0]
		if _, err := r.inv.Invoke(r.head, "dive", heap.Int(-1)); err != nil {
			t.Fatal(err)
		}
	}
	first, last := p.addrs[0], p.addrs[len(p.addrs)-1]
	return float64(first-last) / float64(len(p.addrs)-1)
}

// TestStackPerLevel: a nesting level of dispatch — a method body, Caller's
// Invoke, the runtime's Invoke and the class's — takes no more Go stack on
// the swapping runtime (a resident recursion) and on the direct runtime than
// it did before results returned into the frame: 664 and 632 bytes on
// linux/amd64 with Go 1.24. Figure 5's A1 and A2 recurse 10 000 deep, so a
// byte per level is 10 kB of goroutine stack. A recursion in which every
// level crosses a proxy is logged, not gated. check.sh runs it by name.
func TestStackPerLevel(t *testing.T) {
	if raceEnabled {
		t.Skip("stack budgets are gated without the race detector")
	}
	if runtime.GOARCH != "amd64" || !strings.HasPrefix(runtime.Version(), "go1.24") {
		t.Skip("the stack budgets are frame sizes the Go 1.24 amd64 compiler lays out")
	}
	const n = 1000
	var probe stackProbe
	f, _ := newFrameFixture(t, n, n, probe.onCall)
	swapping := probe.perLevel(t, frameRuntime{f.rt, f.head(t)})
	fc, _ := newFrameFixture(t, n, 1, probe.onCall)
	crossing := probe.perLevel(t, frameRuntime{fc.rt, fc.head(t)})
	direct := probe.perLevel(t, directList(t, frameClass(probe.onCall), n))
	t.Logf("Go stack per level: swapping %.0f B (crossing at every level %.0f B), direct %.0f B", swapping, crossing, direct)
	if swapping > 664 || direct > 632 {
		t.Fatalf("a nesting level takes %.0f B of Go stack on the swapping runtime and %.0f B on the direct one; want at most 664 and 632",
			swapping, direct)
	}
}

// TestNewProxyAllocatesOne: minting a swap-cluster-proxy with no swept block
// to reissue allocates the proxy object, whose field vector is part of the
// same allocation, and nothing else — the heap keeps no per-object record
// beside it, and the inbound list and edge counts it joins grow amortized.
// check.sh runs it by name.
func TestNewProxyAllocatesOne(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 20, 10, 8)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.rt.lockedNewProxy(clusters[0], ids[15], true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("newProxy allocates %.0f objects, want 1", allocs)
	}
}
