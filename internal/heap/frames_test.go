package heap

import (
	"errors"
	"testing"
)

var errDive = errors.New("dive hit bottom")

// frameNodeClass builds a list node for the frame-lifetime tests. "echo"
// returns its own arguments and "tail" all but the first, both in the old
// form (a slice of Args); "swap" returns its two arguments swapped through
// Return. "pair" asks its successor for three such results, one after
// another, and only then reads them; "swaps" asks its successor to swap (1, 2)
// and then to swap that answer back, and returns both; "later" makes a nested
// call before it reads its Args, then returns them; "dive" recurses along the
// list and panics when its count runs out (a negative count never does),
// passing every Call it gets to onCall.
func frameNodeClass(onCall func(*Call)) *Class {
	c := NewClass("FrameNode", FieldDef{Name: "next", Kind: KindRef})
	c.AddMethod("echo", func(call *Call) ([]Value, error) { return call.Args, nil })
	c.AddMethod("tail", func(call *Call) ([]Value, error) { return call.Args[1:], nil })
	c.AddMethod("swap", func(call *Call) ([]Value, error) { return call.Return(call.Arg(1), call.Arg(0)), nil })
	c.AddMethod("pair", func(call *Call) ([]Value, error) {
		next, _ := call.Self.FieldByName("next")
		a, err := call.RT.Invoke(next, "echo", Int(1), Int(2))
		if err != nil {
			return nil, err
		}
		b, err := call.RT.Invoke(next, "tail", Int(3), Int(4))
		if err != nil {
			return nil, err
		}
		c, err := call.RT.Invoke(next, "swap", Int(5), Int(6))
		if err != nil {
			return nil, err
		}
		return call.Return(a[0], a[1], b[0], c[0], c[1]), nil
	})
	c.AddMethod("swaps", func(call *Call) ([]Value, error) {
		next, _ := call.Self.FieldByName("next")
		a, err := call.RT.Invoke(next, "swap", Int(1), Int(2))
		if err != nil {
			return nil, err
		}
		b, err := call.RT.Invoke(next, "swap", a...)
		if err != nil {
			return nil, err
		}
		return call.Return(a[0], a[1], b[0], b[1]), nil
	})
	c.AddMethod("later", func(call *Call) ([]Value, error) {
		next, _ := call.Self.FieldByName("next")
		if _, err := call.RT.Invoke(next, "echo", Int(-1), Int(-1)); err != nil {
			return nil, err
		}
		return call.Return(call.Args...), nil
	})
	c.AddMethod("dive", func(call *Call) ([]Value, error) {
		if onCall != nil {
			onCall(call)
		}
		k := call.Arg(0).MustInt()
		if k == 0 {
			panic(errDive)
		}
		next, _ := call.Self.FieldByName("next")
		if next.IsNil() {
			return nil, nil
		}
		return call.RT.Invoke(next, "dive", Int(k-1))
	})
	return c
}

// frameList links n fresh objects of c through "next".
func frameList(t *testing.T, h *Heap, c *Class, n int) []*Object {
	t.Helper()
	objs := make([]*Object, n)
	for i := range objs {
		o, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
		if i > 0 {
			objs[i-1].MustSet("next", o.RefTo())
		}
	}
	return objs
}

// wantInts fails the test unless got holds exactly the integers want.
func wantInts(t *testing.T, what string, got []Value, want ...int64) {
	t.Helper()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		v, err := got[i].Int()
		ok = err == nil && v == want[i]
	}
	if !ok {
		t.Fatalf("%s returned %v, want %v", what, got, want)
	}
}

// A callee that returns its Args hands back the caller's arena slots, and one
// that returns through Return hands back its own frame's arena. The caller's
// next nested call refills both, so each result must have been copied into
// the caller's arena by then — a pool that hands results through returns
// 5, 6 for the first pair.
func TestCallerCopiesResultAliasingArgs(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	objs := frameList(t, h, frameNodeClass(nil), 2)
	out, err := rt.Invoke(objs[0].RefTo(), "pair")
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, "pair", out, 1, 2, 4, 6, 5)
}

// Return reads all its arguments before it writes one, so a body can return
// its Args swapped; and the first of two results from the same callee frame
// survives the second, so a body can pass one result straight back as the
// next call's arguments — one result buffer per depth returns 1, 2 for a.
func TestReturnSwapsAcrossNestedCalls(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	objs := frameList(t, h, frameNodeClass(nil), 2)
	out, err := rt.Invoke(objs[0].RefTo(), "swaps")
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, "swaps", out, 2, 1, 1, 2)
}

// Host code may pass the result of one call straight back as the arguments of
// the next, to a method that makes a nested call before it reads them: the
// result lives in depth 1's arena, which the next call resets, so Enter must
// move the arguments out of the nested call's way — an arena reset in place
// returns -1, -1.
func TestHostPassesResultBack(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	objs := frameList(t, h, frameNodeClass(nil), 2)
	head := objs[0].RefTo()
	out, err := rt.Invoke(head, "swap", Int(1), Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if out, err = rt.Invoke(head, "later", out...); err != nil {
		t.Fatal(err)
	}
	wantInts(t, "later", out, 2, 1)
	if out, err = rt.Invoke(head, "swap", out...); err != nil {
		t.Fatal(err)
	}
	wantInts(t, "swap", out, 1, 2)
}

// After a normal return a pooled Call keeps its results and nothing else: the
// outer Call's arena holds exactly pair's five results where pair returned
// them, and the inner one only the last nested call's two — the nested
// calls' arguments and the results pair copied are gone.
func TestFramesKeepOnlyResults(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	objs := frameList(t, h, frameNodeClass(nil), 2)
	out, err := rt.Invoke(objs[0].RefTo(), "pair")
	if err != nil {
		t.Fatal(err)
	}
	for d, want := range []int{len(out), 2} {
		c := rt.frames.calls[d]
		if c.Self != nil || c.Args != nil || len(c.rt.buf) != 0 {
			t.Errorf("Call at depth %d kept self %v, args %v, buffer %v", d+1, c.Self, c.Args, c.rt.buf)
		}
		kept := 0
		for _, v := range c.rt.buf[:cap(c.rt.buf)] {
			if !v.IsNil() {
				kept++
			}
		}
		if kept != want {
			t.Errorf("Call at depth %d keeps %d values, want %d: %v", d+1, kept, want, c.rt.buf[:cap(c.rt.buf)])
		}
	}
	if _, ok := offset(out, rt.frames.calls[0].rt.buf); !ok {
		t.Errorf("pair's results %v do not live in depth 1's arena", out)
	}
	wantInts(t, "pair", out, 1, 2, 4, 6, 5)
}

// A method that panics unwinds every frame it was nested in: the depth is
// back to 0, no pooled Call keeps a receiver or an argument, and the next
// invocation at depth 1 gets the same Call, holding its own receiver and
// arguments.
func TestFramesReleasedOnPanic(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	type visit struct {
		call *Call
		self *Object
		arg  int64
	}
	var seen []visit
	objs := frameList(t, h, frameNodeClass(func(c *Call) {
		seen = append(seen, visit{c, c.Self, c.Arg(0).MustInt()})
	}), 5)

	func() {
		defer func() {
			if r := recover(); r != errDive {
				t.Fatalf("recovered %v, want %v", r, errDive)
			}
		}()
		_, _ = rt.Invoke(objs[0].RefTo(), "dive", Int(3))
	}()
	if len(seen) != 4 || rt.depth != 0 {
		t.Fatalf("saw %d calls, depth %d after the panic; want 4, 0", len(seen), rt.depth)
	}
	for i, c := range rt.frames.calls {
		if c.Self != nil || c.Args != nil || len(c.rt.buf) != 0 {
			t.Errorf("Call at depth %d kept self %v, args %v, buffer %v", i+1, c.Self, c.Args, c.rt.buf)
		}
		for _, v := range c.rt.buf[:cap(c.rt.buf)] {
			if !v.IsNil() {
				t.Errorf("Call at depth %d kept %v in its buffer", i+1, v)
			}
		}
	}

	first := seen[0].call
	seen = nil
	if _, err := rt.Invoke(objs[3].RefTo(), "dive", Int(-1)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("saw %d calls, want 2", len(seen))
	}
	if v := seen[0]; v.call != first || v.self != objs[3] || v.arg != -1 {
		t.Fatalf("depth 1 after the panic: same Call %v, self @%d, arg %d; want the same Call, @%d, -1",
			v.call == first, v.self.ID(), v.arg, objs[3].ID())
	}
}
