package xmlcodec

import (
	"fmt"
	"testing"

	"objectswap/internal/heap"
)

// TestMixedClusterInstallsLikeOneByOne: a cluster of two classes whose first
// record is of the smaller one installs the state that batches of one plus
// SetField build,
// however its field slab was sized — from the records' own field counts (what
// Doc.Stage and a frame header give), from the object count times the first
// record's class, or not at all — so members that find the slab used up fall
// back to vectors of their own without touching a neighbour.
func TestMixedClusterInstallsLikeOneByOne(t *testing.T) {
	reg, node := testClasses() // seven fields
	pair := reg.MustRegister(heap.NewClass("Pair",
		heap.FieldDef{Name: "tag", Kind: heap.KindInt},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	))
	const n = 7
	src := heap.New(0)
	objs := make([]*heap.Object, n)
	for i := range objs {
		cls := pair
		if i%3 == 1 {
			cls = node
		}
		o, err := src.New(cls)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	for i, o := range objs {
		o.MustSet("tag", heap.Int(int64(10*i))).MustSet("next", objs[(i+1)%n].RefTo())
		if o.Class() == node {
			o.MustSet("label", heap.Str(fmt.Sprintf("node %d", i))).
				MustSet("payload", heap.Bytes([]byte{byte(i), 1, 2})).
				MustSet("links", heap.List(heap.Int(int64(i)), objs[0].RefTo()))
		}
	}
	doc, err := EncodeObjects("mixed", objs, internalOnly)
	if err != nil {
		t.Fatal(err)
	}

	// The oracle: the same objects restored one batch of one and one
	// SetField at a time.
	want := heap.New(0)
	for _, o := range objs {
		b := heap.MakeBatch(1, o.NumFields())
		b.Add(o.ID(), o.Class())
		if _, err := want.InstallBatch(&b); err != nil {
			t.Fatal(err)
		}
		r, err := want.Get(o.ID())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < o.NumFields(); j++ {
			if err := r.SetField(j, o.Field(j)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for name, slots := range map[string]int{
		"record fields":      -1,
		"objects x first":    n * pair.NumFields(),
		"one member's worth": pair.NumFields(),
		"no slab":            0,
	} {
		got := heap.New(0)
		var installed int
		if slots < 0 {
			installed, err = doc.Install(got, reg, nil)
		} else {
			var in *Installer
			if in, err = NewInstaller(reg, doc.ClusterID, doc.Version, n, slots); err != nil {
				t.Fatal(err)
			}
			for i := range doc.Objects {
				if err := in.Add(&doc.Objects[i]); err != nil {
					t.Fatal(err)
				}
			}
			installed, err = in.Install(got, nil)
		}
		if err != nil || installed != n {
			t.Fatalf("%s: installed %d objects, %v", name, installed, err)
		}
		// Writing every member's tag must leave every other member's alone.
		for i, w := range objs {
			o, err := got.Get(w.ID())
			if err != nil {
				t.Fatal(err)
			}
			if err := o.SetFieldByName("tag", heap.Int(int64(10*i))); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range objs {
			g, err := got.Get(w.ID())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r, _ := want.Get(w.ID())
			if g.Class() != r.Class() || g.Size() != r.Size() {
				t.Fatalf("%s: @%d is %s of %d B, want %s of %d B", name, w.ID(), g.Class().Name, g.Size(), r.Class().Name, r.Size())
			}
			for j := 0; j < r.NumFields(); j++ {
				if !g.Field(j).Equal(r.Field(j)) {
					t.Fatalf("%s: @%d.%s = %v, want %v", name, w.ID(), r.Class().Field(j).Name, g.Field(j), r.Field(j))
				}
			}
		}
		if got.Used() != want.Used() || got.Len() != want.Len() {
			t.Fatalf("%s: %d objects, Used %d; want %d, %d", name, got.Len(), got.Used(), want.Len(), want.Used())
		}
	}
}
