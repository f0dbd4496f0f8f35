package heap

import (
	"errors"
	"testing"
)

// counterClass defines a class whose methods exercise dispatch, argument
// passing, field mutation and nested invocation through the Call's Invoker.
func counterClass() *Class {
	c := NewClass("Counter",
		FieldDef{Name: "count", Kind: KindInt},
		FieldDef{Name: "peer", Kind: KindRef},
	)
	c.AddMethod("incr", func(call *Call) ([]Value, error) {
		n, err := call.Self.FieldByName("count")
		if err != nil {
			return nil, err
		}
		step := int64(1)
		if !call.Arg(0).IsNil() {
			step, err = call.Arg(0).Int()
			if err != nil {
				return nil, err
			}
		}
		if err := call.Self.SetFieldByName("count", Int(n.MustInt()+step)); err != nil {
			return nil, err
		}
		return []Value{Int(n.MustInt() + step)}, nil
	})
	c.AddMethod("pokePeer", func(call *Call) ([]Value, error) {
		peer, err := call.Self.FieldByName("peer")
		if err != nil {
			return nil, err
		}
		// Nested invocation goes back through the Invoker, so middleware
		// interposition (when present) applies transitively.
		return call.RT.Invoke(peer, "incr", Int(10))
	})
	c.AddMethod("boom", func(*Call) ([]Value, error) {
		return nil, errors.New("boom")
	})
	return c
}

func TestDirectInvoke(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	c := counterClass()
	o, _ := h.New(c)

	out, err := rt.Invoke(o.RefTo(), "incr")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].MustInt() != 1 {
		t.Fatalf("incr returned %v", out)
	}
	out, err = rt.Invoke(o.RefTo(), "incr", Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 6 {
		t.Fatalf("incr(5) returned %v", out)
	}
}

func TestNestedInvokeThroughCall(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	c := counterClass()
	a, _ := h.New(c)
	b, _ := h.New(c)
	_ = a.SetFieldByName("peer", b.RefTo())

	out, err := rt.Invoke(a.RefTo(), "pokePeer")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 10 {
		t.Fatalf("pokePeer returned %v", out)
	}
	n, _ := b.FieldByName("count")
	if n.MustInt() != 10 {
		t.Fatalf("peer count = %v", n)
	}
}

func TestInvokeErrors(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	o, _ := h.New(counterClass())

	if _, err := rt.Invoke(Nil(), "incr"); !errors.Is(err, ErrNilTarget) {
		t.Errorf("nil target: got %v, want ErrNilTarget", err)
	}
	if _, err := rt.Invoke(Int(1), "incr"); !errors.Is(err, ErrBadKind) {
		t.Errorf("non-ref target: got %v, want ErrBadKind", err)
	}
	if _, err := rt.Invoke(Ref(9999), "incr"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("dangling target: got %v, want ErrNoSuchObject", err)
	}
	if _, err := rt.Invoke(o.RefTo(), "ghost"); !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("missing method: got %v, want ErrNoSuchMethod", err)
	}
	if _, err := rt.Invoke(o.RefTo(), "boom"); err == nil || err.Error() != "boom" {
		t.Errorf("method error not propagated: %v", err)
	}
}

func TestDirectFieldAccess(t *testing.T) {
	h := New(0)
	rt := NewDirectRuntime(h)
	o, _ := h.New(counterClass())

	if err := rt.SetFieldValue(o.RefTo(), "count", Int(7)); err != nil {
		t.Fatal(err)
	}
	v, err := rt.Field(o.RefTo(), "count")
	if err != nil || v.MustInt() != 7 {
		t.Fatalf("Field = %v, %v", v, err)
	}
	if _, err := rt.Field(Nil(), "count"); !errors.Is(err, ErrNilTarget) {
		t.Errorf("nil target field read: %v", err)
	}
	if err := rt.SetFieldValue(Nil(), "count", Int(1)); !errors.Is(err, ErrNilTarget) {
		t.Errorf("nil target field write: %v", err)
	}
	if _, err := rt.Field(o.RefTo(), "ghost"); !errors.Is(err, ErrNoSuchField) {
		t.Errorf("missing field read: %v", err)
	}
	if _, err := rt.Field(Ref(9999), "count"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("dangling field read: %v", err)
	}
	if err := rt.SetFieldValue(Ref(9999), "count", Int(1)); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("dangling field write: %v", err)
	}
	if _, err := rt.Field(Int(3), "count"); !errors.Is(err, ErrBadKind) {
		t.Errorf("non-ref field read: %v", err)
	}
	if err := rt.SetFieldValue(Int(3), "count", Int(1)); !errors.Is(err, ErrBadKind) {
		t.Errorf("non-ref field write: %v", err)
	}
}

func TestDeepRecursionThroughInvoker(t *testing.T) {
	// The Figure 5 benchmarks recurse 10000 deep through the Invoker; make
	// sure the runtime sustains that.
	h := New(0)
	rt := NewDirectRuntime(h)
	c := NewClass("R", FieldDef{Name: "next", Kind: KindRef})
	c.AddMethod("walk", func(call *Call) ([]Value, error) {
		depth := call.Arg(0).MustInt()
		next, _ := call.Self.FieldByName("next")
		if next.IsNil() {
			return []Value{Int(depth)}, nil
		}
		return call.RT.Invoke(next, "walk", Int(depth+1))
	})
	const n = 10000
	objs := make([]*Object, n)
	for i := range objs {
		objs[i], _ = h.New(c)
	}
	for i := 0; i < n-1; i++ {
		_ = objs[i].SetFieldByName("next", objs[i+1].RefTo())
	}
	out, err := rt.Invoke(objs[0].RefTo(), "walk", Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != n {
		t.Fatalf("depth = %v, want %d", out[0], n)
	}
}
