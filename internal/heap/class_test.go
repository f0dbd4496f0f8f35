package heap

import (
	"errors"
	"fmt"
	"testing"
)

// TestClassLookupBySlot: every declared field name resolves to its slot and
// every declared method name to its body, names built at run time as well as
// the declared strings themselves; an unknown name fails with ErrNoSuchField
// or ErrNoSuchMethod and the text it always had; a duplicate field or method
// panics.
func TestClassLookupBySlot(t *testing.T) {
	const n = 14
	var fields []FieldDef
	for i := 0; i < n; i++ {
		fields = append(fields, FieldDef{Name: fmt.Sprintf("f%d", i), Kind: KindInt})
	}
	c := NewClass("Wide", fields...)
	for i := 0; i < n; i++ {
		c.AddMethod(fmt.Sprintf("m%d", i), func(call *Call) ([]Value, error) {
			return call.Return(Int(int64(i))), nil
		})
	}
	h := New(0)
	o, err := h.New(c)
	if err != nil {
		t.Fatal(err)
	}
	frames := NewFrames(nil)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i) // not the declared string
		if slot, ok := c.FieldIndex(name); !ok || slot != i {
			t.Fatalf("FieldIndex(%q) = %d, %v; want slot %d", name, slot, ok, i)
		}
		if slot, ok := c.FieldIndex(fields[i].Name); !ok || slot != i {
			t.Fatalf("FieldIndex of the declared %q = %d, %v; want slot %d", fields[i].Name, slot, ok, i)
		}
		if err := o.SetFieldByName(name, Int(int64(10*i))); err != nil {
			t.Fatal(err)
		}
		if v, err := o.FieldByName(name); err != nil || !v.Equal(Int(int64(10*i))) {
			t.Fatalf("FieldByName(%q) = %v, %v; want %d", name, v, err, 10*i)
		}
		method := fmt.Sprintf("m%d", i)
		body, err := c.Method(method)
		if err != nil {
			t.Fatalf("Method(%q): %v", method, err)
		}
		res, err := body(frames.Enter(1, o, nil))
		frames.Leave(1, res)
		if err != nil || len(res) != 1 || !res[0].Equal(Int(int64(i))) {
			t.Fatalf("Method(%q) runs body %v, %v; want the body of slot %d", method, res, err, i)
		}
		res, err = c.Invoke(method, frames.Enter(1, o, nil))
		frames.Leave(1, res)
		if err != nil || len(res) != 1 || !res[0].Equal(Int(int64(i))) {
			t.Fatalf("Invoke(%q) = %v, %v; want the body of slot %d", method, res, err, i)
		}
	}

	if _, ok := c.FieldIndex("f14"); ok {
		t.Fatal("FieldIndex found an undeclared field")
	}
	if _, err := o.FieldByName("nope"); !errors.Is(err, ErrNoSuchField) || err.Error() != "heap: no such field: Wide.nope" {
		t.Fatalf("FieldByName of an unknown name: %v", err)
	}
	if err := o.SetFieldByName("nope", Int(1)); !errors.Is(err, ErrNoSuchField) || err.Error() != "heap: no such field: Wide.nope" {
		t.Fatalf("SetFieldByName of an unknown name: %v", err)
	}
	if _, err := c.Method("f0"); !errors.Is(err, ErrNoSuchMethod) || err.Error() != "heap: no such method: Wide.f0" {
		t.Fatalf("Method of a field's name: %v", err)
	}
	if _, err := c.Invoke("nope", frames.Enter(1, o, nil)); !errors.Is(err, ErrNoSuchMethod) || err.Error() != "heap: no such method: Wide.nope" {
		t.Fatalf("Invoke of an unknown name: %v", err)
	}
	frames.Leave(1, nil)

	panics := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	panics("a duplicate field", func() { NewClass("Dup", FieldDef{Name: "a"}, FieldDef{Name: "b"}, FieldDef{Name: "a"}) })
	panics("a duplicate method", func() { c.AddMethod("m3", func(*Call) ([]Value, error) { return nil, nil }) })
}
