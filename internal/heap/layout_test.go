package heap

import (
	"fmt"
	"testing"
	"unsafe"
)

// scalarClass declares n fields whose kinds cycle through int, float and bool.
func scalarClass(n int) *Class {
	kinds := []Kind{KindInt, KindFloat, KindBool}
	defs := make([]FieldDef, n)
	for i := range defs {
		defs[i] = FieldDef{Name: fmt.Sprintf("f%d", i), Kind: kinds[i%len(kinds)]}
	}
	return NewClass(fmt.Sprintf("Scalar%d", n), defs...)
}

// scalar returns a value for field j of a scalarClass that encodes x.
func scalar(j, x int) Value {
	switch j % 3 {
	case 0:
		return Int(int64(x))
	case 1:
		return Float(float64(x) + 0.5)
	default:
		return Bool(x%2 == 1)
	}
}

// TestObjectLayouts: an object of every inline field count is one block that
// holds its header and its slots, and an object of a larger class gets a
// vector of its own. Either way its slots start zeroed to their kinds, a write
// to one object never shows in another, and the managed heap accounts every
// object as it always has: a header plus one slot per field. The header
// itself is 64 bytes.
func TestObjectLayouts(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Object{}) = %d, want 64", got)
	}
	const count = 6
	for n := 0; n <= maxInlineFields+2; n++ {
		c := scalarClass(n)
		h := New(0)
		objs := make([]*Object, count)
		for i := range objs {
			o, err := h.New(c)
			if err != nil {
				t.Fatal(err)
			}
			if o.NumFields() != n || cap(o.fields) != n {
				t.Fatalf("%d fields: object has %d slots, capacity %d", n, o.NumFields(), cap(o.fields))
			}
			for j := 0; j < n; j++ {
				if k := o.Field(j).Kind(); k != c.Field(j).Kind {
					t.Fatalf("%d fields: fresh slot %d holds a %s, want a zero %s", n, j, k, c.Field(j).Kind)
				}
			}
			if want := int64(objectOverhead + n*valueOverhead); o.Size() != want {
				t.Fatalf("%d fields: object accounts %d B, want %d", n, o.Size(), want)
			}
			objs[i] = o
		}
		used := h.Used()
		if want := int64(count * (objectOverhead + n*valueOverhead)); used != want {
			t.Fatalf("%d fields: Used %d, want %d", n, used, want)
		}
		for i, o := range objs {
			for j := 0; j < n; j++ {
				if err := o.SetField(j, scalar(j, 100*i+j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, o := range objs {
			for j := 0; j < n; j++ {
				if got, want := o.Field(j), scalar(j, 100*i+j); !got.Equal(want) {
					t.Fatalf("%d fields: object %d slot %d reads %v, want %v", n, i, j, got, want)
				}
			}
		}
		if h.Used() != used {
			t.Fatalf("%d fields: Used moved from %d to %d on fixed-size writes", n, used, h.Used())
		}
	}
}

// TestBatchSlabFallback: members staged from one slab sit side by side, and a
// member the slab has no room left for gets a vector of its own. Once
// installed, no member's write shows in another, and the heap holds exactly
// what batches of one and SetField would have built.
func TestBatchSlabFallback(t *testing.T) {
	small, big := scalarClass(2), scalarClass(7)
	classes := []*Class{small, big, small, small, big}
	b := MakeBatch(len(classes), 2+7+2) // the fourth and fifth members overflow
	for i, c := range classes {
		fields := b.Add(ObjID(10+i), c)
		for j := range fields {
			fields[j] = scalar(j, 100*i+j)
		}
	}
	batched, stepwise := New(0), New(0)
	if _, err := batched.InstallBatch(&b); err != nil {
		t.Fatal(err)
	}
	installed := make([]*Object, len(classes))
	for i, c := range classes {
		var err error
		if installed[i], err = batched.Get(ObjID(10 + i)); err != nil {
			t.Fatal(err)
		}
		o, err := installOne(stepwise, ObjID(10+i), c)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < c.NumFields(); j++ {
			if err := o.SetField(j, scalar(j, 100*i+j)); err != nil {
				t.Fatal(err)
			}
		}
		if installed[i].Size() != o.Size() || cap(installed[i].fields) != c.NumFields() {
			t.Fatalf("member %d: %d B, capacity %d; stepwise %d B, want capacity %d",
				i, installed[i].Size(), cap(installed[i].fields), o.Size(), c.NumFields())
		}
	}
	if batched.Used() != stepwise.Used() {
		t.Fatalf("batch Used %d, stepwise %d", batched.Used(), stepwise.Used())
	}
	for i, o := range installed {
		for j := 0; j < o.NumFields(); j++ {
			if err := o.SetField(j, scalar(j, -100*i-j-1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, o := range installed {
		for j := 0; j < o.NumFields(); j++ {
			if got, want := o.Field(j), scalar(j, -100*i-j-1); !got.Equal(want) {
				t.Fatalf("member %d slot %d reads %v, want %v", i, j, got, want)
			}
		}
	}
}
