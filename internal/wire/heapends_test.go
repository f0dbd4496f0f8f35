package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// The heap-driven ends — Encoder.EncodeObjects out of a heap, Stage and
// Installer.Install into one — are checked against the Doc path, which is the
// oracle: same frames byte for byte, same heap state afterwards.

// foreignRefs gives slot and remote references a resident stand-in, so a
// cluster holding them can live in a bare heap and be wrapped again: the
// decoder maps each distinct reference to a made-up object id, the encoder
// maps the id back.
type foreignRefs struct {
	byID map[heap.ObjID]xmlcodec.Value
	ids  map[string]heap.ObjID
}

func newForeignRefs() *foreignRefs {
	return &foreignRefs{byID: map[heap.ObjID]xmlcodec.Value{}, ids: map[string]heap.ObjID{}}
}

func (f *foreignRefs) decode(v xmlcodec.Value) (heap.Value, error) {
	key := fmt.Sprintf("%d/%d/%d/%s", v.RefClass, v.Slot, v.Target, v.Class)
	id, ok := f.ids[key]
	if !ok {
		id = heap.ObjID(1<<40 + len(f.ids))
		f.ids[key] = id
		f.byID[id] = v
	}
	return heap.Ref(id), nil
}

func (f *foreignRefs) encode(members map[heap.ObjID]bool) xmlcodec.RefEncoder {
	return func(id heap.ObjID) (xmlcodec.Value, error) {
		if members[id] {
			return xmlcodec.InternalRef(id), nil
		}
		if v, ok := f.byID[id]; ok {
			return v, nil
		}
		return xmlcodec.Value{}, fmt.Errorf("unclassified reference @%d", id)
	}
}

// docClasses synthesizes, for a document, classes its objects could be
// instances of: every object of a class must list the same fields with the
// same kinds in the same order (what a real shipment looks like). ok is false
// for documents no heap could have produced, which the heap ends then sit
// out: irregular classes, nil internal references, foreign-looking ids.
func docClasses(doc *xmlcodec.Doc) (reg *heap.Registry, ok bool) {
	defs := map[string][]heap.FieldDef{}
	seen := map[heap.ObjID]bool{}
	var regular func(v *xmlcodec.Value) bool
	regular = func(v *xmlcodec.Value) bool {
		if v.Kind == heap.KindRef && v.RefClass == xmlcodec.RefInternal && v.Target == heap.NilID {
			return false // a heap holds this as nil and wraps it as nil
		}
		for i := range v.List {
			if !regular(&v.List[i]) {
				return false
			}
		}
		return true
	}
	for i := range doc.Objects {
		o := &doc.Objects[i]
		if o.Class == "" || o.ID == heap.NilID || o.ID >= 1<<40 || seen[o.ID] {
			return nil, false
		}
		seen[o.ID] = true
		fields := make([]heap.FieldDef, len(o.Fields))
		names := map[string]bool{}
		for j := range o.Fields {
			f := &o.Fields[j]
			if names[f.Name] || !regular(&f.Value) {
				return nil, false
			}
			names[f.Name] = true
			fields[j] = heap.FieldDef{Name: f.Name, Kind: f.Value.Kind}
			if f.Value.Kind == heap.KindNil {
				fields[j].Kind = heap.KindRef // any kind that holds nil
			}
		}
		if prev, known := defs[o.Class]; known {
			if len(prev) != len(fields) {
				return nil, false
			}
			for j := range prev {
				if prev[j] != fields[j] {
					return nil, false
				}
			}
			continue
		}
		defs[o.Class] = fields
	}
	reg = heap.NewRegistry()
	for name, fields := range defs {
		reg.MustRegister(heap.NewClass(name, fields...))
	}
	return reg, true
}

// sameHeapState compares two heaps object by object: identities, classes,
// field values, accounted sizes, Used, and who is still in the nursery.
func sameHeapState(t testing.TB, what string, got, want *heap.Heap) {
	t.Helper()
	ids := want.IDs()
	if g := got.IDs(); fmt.Sprint(g) != fmt.Sprint(ids) {
		t.Fatalf("%s: resident %v, want %v", what, g, ids)
	}
	for _, id := range ids {
		g, _ := got.Get(id)
		w, _ := want.Get(id)
		if g.Class().Name != w.Class().Name || g.Size() != w.Size() {
			t.Fatalf("%s: @%d is %s of %d B, want %s of %d B", what, id, g.Class().Name, g.Size(), w.Class().Name, w.Size())
		}
		for i := 0; i < w.NumFields(); i++ {
			if !g.Field(i).Equal(w.Field(i)) {
				t.Fatalf("%s: @%d.%s = %v, want %v", what, id, w.Class().Field(i).Name, g.Field(i), w.Field(i))
			}
		}
	}
	if got.Used() != want.Used() {
		t.Fatalf("%s: Used %d, want %d", what, got.Used(), want.Used())
	}
	// Nothing is rooted: whatever survives a collection is in the nursery.
	for cycle := 1; cycle <= nurseryGrace+1; cycle++ {
		got.Collect()
		want.Collect()
		if g, w := got.IDs(), want.IDs(); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: after %d collections resident %v, want %v", what, cycle, g, w)
		}
	}
}

const nurseryGrace = 2

func nurseryHeap() *heap.Heap {
	h := heap.New(0)
	h.SetNurseryGrace(nurseryGrace)
	return h
}

// checkHeapEnds is the third party of the cross-format fuzzers. For a
// document a heap could have produced: installing a frame directly (Stage)
// and through Decode + Doc.Install leaves two heaps in the same state — every
// installed string, which Stage's reads out of the frame it was handed,
// equal to the Doc path's byte for byte once the Go heap has been collected —
// and encoding out of that heap gives the frame Encode gives for the
// document, byte for byte. A frame whose install is refused is left
// referred to by nothing.
func checkHeapEnds(t *testing.T, doc *xmlcodec.Doc) {
	t.Helper()
	reg, ok := docClasses(doc)
	if !ok {
		return
	}
	for _, id := range []FormatID{FormatBinary, FormatFlate, FormatXML} {
		frame, err := Encode(id, doc, nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", id, err)
		}
		refs := newForeignRefs()

		viaDoc := nurseryHeap()
		back, err := Decode(frame, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", id, err)
		}
		_, docErr := back.Install(viaDoc, reg, refs.decode)

		direct := nurseryHeap()
		handed, released := handedOver(frame)
		staged, err := Stage(handed, reg)
		handed = nil
		if err == nil {
			if staged.ClusterID != doc.ClusterID {
				t.Fatalf("%s: staged cluster %q, want %q", id, staged.ClusterID, doc.ClusterID)
			}
			_, err = staged.Install(direct, refs.decode)
		}
		if (err == nil) != (docErr == nil) {
			t.Fatalf("%s: direct install: %v, Doc.Install: %v", id, err, docErr)
		}
		if err != nil {
			// Both refused (a reference to a non-member): nothing may be left.
			if staged != nil {
				staged.Release()
			}
			if direct.Len() != 0 || direct.Used() != 0 || viaDoc.Len() != 0 || viaDoc.Used() != 0 {
				t.Fatalf("%s: refused install left %d/%d objects resident", id, direct.Len(), viaDoc.Len())
			}
			if !released() {
				t.Fatalf("%s: the frame of a refused install is still referred to", id)
			}
			return
		}
		staged.Release()
		runtime.GC()

		members := map[heap.ObjID]bool{}
		objs := make([]*heap.Object, len(doc.Objects))
		for i := range doc.Objects {
			members[doc.Objects[i].ID] = true
			if objs[i], err = direct.Get(doc.Objects[i].ID); err != nil {
				t.Fatal(err)
			}
		}
		enc := NewEncoder()
		got, err := enc.EncodeObjects(id, doc.ClusterID, objs, refs.encode(members))
		if err != nil {
			t.Fatalf("%s: encode from the heap: %v", id, err)
		}
		if doc.Version == xmlcodec.Version && !bytes.Equal(got, frame) {
			t.Fatalf("%s: frame encoded from the heap differs from the document's:\n got:  %q\n want: %q", id, got, frame)
		}
		enc.Release()
		sameHeapState(t, string(id), direct, viaDoc)
	}
}

// TestHeapEndsOnWireFixture runs the third party over the package's standing
// document: all eight kinds, nested lists, internal, slot and remote
// references.
func TestHeapEndsOnWireFixture(t *testing.T) {
	if _, ok := docClasses(testDoc(5)); !ok {
		t.Fatal("the fixture document is not one a heap could produce: the heap ends sat this test out")
	}
	checkHeapEnds(t, testDoc(5))
	checkHeapEnds(t, testDoc(1))
	checkHeapEnds(t, &xmlcodec.Doc{ClusterID: "empty", Version: xmlcodec.Version})
}

// TestWarmEncodeObjectsAllocatesNothing: once an encoder has encoded a
// cluster, encoding it again in the binary format allocates nothing — the
// source the walk reads the objects from lives in the encoder — and the
// encoder keeps no object or classifier once the call returns.
func TestWarmEncodeObjectsAllocatesNothing(t *testing.T) {
	h := heap.New(0)
	c := heap.NewClass("EncNode",
		heap.FieldDef{Name: "name", Kind: heap.KindString},
		heap.FieldDef{Name: "n", Kind: heap.KindInt},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
		heap.FieldDef{Name: "tags", Kind: heap.KindList},
	)
	objs := make([]*heap.Object, 32)
	members := map[heap.ObjID]bool{}
	for i := range objs {
		o, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		o.MustSet("name", heap.Str(fmt.Sprintf("node-%d", i))).MustSet("n", heap.Int(int64(i))).
			MustSet("tags", heap.List(heap.Int(1), heap.Str("x")))
		if i > 0 {
			objs[i-1].MustSet("next", o.RefTo())
		}
		objs[i], members[o.ID()] = o, true
	}
	encodeRef := newForeignRefs().encode(members)
	var e Encoder
	encode := func() {
		if _, err := e.EncodeObjects(FormatBinary, "cluster-1", objs, encodeRef); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Fatalf("a warm EncodeObjects allocates %v objects, want 0", allocs)
	}
	if e.src.objs != nil || e.src.encodeRef != nil || e.src.wrap != nil {
		t.Fatal("the encoder keeps its last source past the call")
	}
}
