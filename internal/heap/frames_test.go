package heap

import (
	"errors"
	"testing"
)

var errDive = errors.New("dive hit bottom")

// frameNodeClass builds a list node for the frame-lifetime tests. "echo"
// returns its own arguments and "tail" all but the first; "pair" asks its
// successor for three such results, one after another, and only then reads
// them; "dive" recurses along the list and panics when its count runs out
// (a negative count never does), passing every Call it gets to onCall.
func frameNodeClass(onCall func(*Call)) *Class {
	c := NewClass("FrameNode", FieldDef{Name: "next", Kind: KindRef})
	c.AddMethod("echo", func(call *Call) ([]Value, error) { return call.Args, nil })
	c.AddMethod("tail", func(call *Call) ([]Value, error) { return call.Args[1:], nil })
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
		c, err := call.RT.Invoke(next, "echo", Int(5), Int(6))
		if err != nil {
			return nil, err
		}
		return []Value{a[0], a[1], b[0], c[0], c[1]}, nil
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

// A callee that returns its Args hands back the caller's argument buffer. The
// caller's next nested call refills that buffer, so the first result must
// have been copied out by then — a pool without the check returns 5, 6 for
// the first pair.
func TestCallerCopiesResultAliasingArgs(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	objs := frameList(t, h, frameNodeClass(nil), 2)
	out, err := rt.Invoke(objs[0].RefTo(), "pair")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 4, 5, 6}
	if len(out) != len(want) {
		t.Fatalf("pair returned %v, want %v", out, want)
	}
	for i, w := range want {
		if out[i].MustInt() != w {
			t.Fatalf("pair returned %v, want %v", out, want)
		}
	}
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
