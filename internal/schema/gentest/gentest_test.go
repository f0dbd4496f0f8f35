package gentest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/schema"
	"objectswap/internal/store"
	"objectswap/internal/wire"
	"objectswap/internal/xmlcodec"
)

// TestGeneratedFilesInSync is the golden-file gate: regenerating from
// model.go must reproduce the committed output byte for byte. A failure means
// either the generator changed (rerun `go generate ./internal/schema/gentest`
// and commit) or a generated file was hand-edited.
func TestGeneratedFilesInSync(t *testing.T) {
	src, err := os.ReadFile("model.go")
	if err != nil {
		t.Fatal(err)
	}
	s, err := schema.ParseGoSource("model.go", src)
	if err != nil {
		t.Fatal(err)
	}
	files, err := schema.GenerateFiles(s)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"record_gen.go": true, "register_gen.go": true, "schema_gen.xml": true}
	for _, f := range files {
		if !want[f.Name] {
			t.Errorf("unexpected generated file %s", f.Name)
		}
		delete(want, f.Name)
		disk, err := os.ReadFile(f.Name)
		if err != nil {
			t.Fatalf("%s: %v (rerun go generate ./internal/schema/gentest)", f.Name, err)
		}
		if !bytes.Equal(disk, f.Data) {
			t.Errorf("%s is stale — rerun go generate ./internal/schema/gentest", f.Name)
		}
	}
	for name := range want {
		t.Errorf("generator no longer emits %s", name)
	}
}

// synthesizedRecordClass hand-builds the Record class as application code
// would: the same fields and accessor names, each method an AddMethod closure
// that reads its field by name.
func synthesizedRecordClass() *heap.Class {
	c := heap.NewClass("Record", recordFieldDefs[:]...)
	for i := range recordFieldDefs {
		name := recordFieldDefs[i].Name
		suffix := strings.ToUpper(name[:1]) + name[1:]
		c.AddMethod("get"+suffix, func(call *heap.Call) ([]heap.Value, error) {
			v, err := call.Self.FieldByName(name)
			if err != nil {
				return nil, err
			}
			return []heap.Value{v}, nil
		})
		c.AddMethod("set"+suffix, func(call *heap.Call) ([]heap.Value, error) {
			return nil, call.RT.SetFieldValue(call.Self.RefTo(), name, call.Arg(0))
		})
	}
	return c
}

func newRuntime() *core.Runtime {
	devices := store.NewRegistry(store.SelectMostFree)
	_ = devices.Add("d", store.NewMem(0))
	return core.NewRuntime(heap.New(0), heap.NewRegistry(), core.WithStores(devices))
}

// TestGeneratedAccessorsAgree: a generated class is the hand-built class. The
// obicomp Record and synthesizedRecordClass have the same method names, the
// same field layout and the same proxy-class method set, and the same
// accessor script in two identical runtimes traces the same results.
func TestGeneratedAccessorsAgree(t *testing.T) {
	gen, syn := NewRecordClass(), synthesizedRecordClass()

	if g, s := gen.MethodNames(), syn.MethodNames(); !reflect.DeepEqual(g, s) {
		t.Fatalf("method sets differ: generated %v vs synthesized %v", g, s)
	}
	if g, s := gen.Fields(), syn.Fields(); !reflect.DeepEqual(g, s) {
		t.Fatalf("field layouts differ: generated %v vs synthesized %v", g, s)
	}
	for i := range recordFieldDefs {
		name := recordFieldDefs[i].Name
		gi, gok := gen.FieldIndex(name)
		si, sok := syn.FieldIndex(name)
		if gi != si || gok != sok {
			t.Fatalf("FieldIndex(%q): generated (%d,%v) vs synthesized (%d,%v)", name, gi, gok, si, sok)
		}
	}

	run := func(c *heap.Class) []string {
		rt := newRuntime()
		rt.MustRegisterClass(c)
		c1, c2 := rt.Manager().NewCluster(), rt.Manager().NewCluster()
		a, err := rt.NewObject(c, c1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rt.NewObject(c, c2)
		if err != nil {
			t.Fatal(err)
		}
		script := []struct {
			method string
			args   []heap.Value
		}{
			{"setTitle", []heap.Value{heap.Str("alpha")}},
			{"setSeq", []heap.Value{heap.Int(-42)}},
			{"setWeight", []heap.Value{heap.Float(2.5)}},
			{"setDirty", []heap.Value{heap.Bool(true)}},
			{"setBlob", []heap.Value{heap.Bytes([]byte{1, 2, 3})}},
			{"setNext", []heap.Value{b.RefTo()}}, // cross-cluster: must be mediated
			{"setTags", []heap.Value{heap.List(heap.Str("hot"), heap.Int(7))}},
			{"getTitle", nil}, {"getSeq", nil}, {"getWeight", nil},
			{"getDirty", nil}, {"getBlob", nil}, {"getTags", nil},
			{"getMissing", nil}, // unknown method: same error on both
		}
		var trace []string
		for _, step := range script {
			out, err := rt.Invoke(a.RefTo(), step.method, step.args...)
			trace = append(trace, fmt.Sprintf("%s -> %v err=%v", step.method, out, err))
		}
		// The mediated cross-cluster reference must be a proxy in both
		// worlds, of the same proxy class; record the interception outcome,
		// not the unstable IDs.
		nv, err := a.FieldByName("next")
		trace = append(trace, fmt.Sprintf("next proxied=%v err=%v", rt.IsProxyRef(nv), err))
		var p *heap.Object
		rt.Locked(func(x *core.Held) { p, err = x.Heap().Get(nv.MustRef()) })
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, fmt.Sprintf("proxy class %s methods %v", p.Class().Name, p.Class().MethodNames()))
		return trace
	}

	got, want := run(gen), run(syn)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accessor traces diverge:\ngenerated:   %v\nsynthesized: %v", got, want)
	}
}

// TestHeapDrivenEndsWithGeneratedClass checks the swap path's heap-driven
// ends against the Doc path on a seeded cluster that mixes the generated
// Record class with a hand-built class, and covers all eight kinds, nested
// lists, and internal, slot and remote references. Out: the frame encoded straight from the heap
// equals wire.Encode of xmlcodec.EncodeObjects, byte for byte, in binary and
// binary+flate. Back: installing that frame directly and through
// Decode + Doc.Install leaves two heaps with equal objects and equal Used.
func TestHeapDrivenEndsWithGeneratedClass(t *testing.T) {
	record := NewRecordClass()
	misc := heap.NewClass("Misc",
		heap.FieldDef{Name: "nothing", Kind: heap.KindRef},
		heap.FieldDef{Name: "nest", Kind: heap.KindList},
		heap.FieldDef{Name: "slot", Kind: heap.KindRef},
		heap.FieldDef{Name: "far", Kind: heap.KindRef},
	)
	reg := heap.NewRegistry()
	reg.MustRegister(record)
	reg.MustRegister(misc)

	rng := rand.New(rand.NewSource(15))
	h := heap.New(0)
	const n = 12
	var objs []*heap.Object
	for i := 0; i < n; i++ {
		cls := record
		if i%4 == 3 {
			cls = misc
		}
		o, err := h.New(cls)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	// Stand-ins outside the cluster: two reached through replacement slots,
	// two un-replicated (remote) ones.
	var outside []heap.ObjID
	for i := 0; i < 4; i++ {
		o, err := h.New(misc)
		if err != nil {
			t.Fatal(err)
		}
		outside = append(outside, o.ID())
	}
	members := map[heap.ObjID]bool{}
	for _, o := range objs {
		members[o.ID()] = true
	}
	member := func() heap.Value { return objs[rng.Intn(n)].RefTo() }
	for i, o := range objs {
		if o.Class() == record {
			blob := make([]byte, rng.Intn(300))
			rng.Read(blob)
			o.MustSet("title", heap.Str(fmt.Sprintf("rec-%d-%x", i, rng.Int63()))).
				MustSet("seq", heap.Int(rng.Int63()-1<<62)).
				MustSet("weight", heap.Float(rng.NormFloat64())).
				MustSet("dirty", heap.Bool(i%2 == 0)).
				MustSet("blob", heap.Bytes(blob)).
				MustSet("next", member()).
				MustSet("tags", heap.List(heap.Str("hot"), heap.Int(int64(i)), heap.Ref(outside[i%2])))
			continue
		}
		o.MustSet("nest", heap.List(
			member(), heap.Nil(), heap.Bool(true), heap.Float(-0.5), heap.Bytes([]byte{1, 2, 3}),
			heap.List(heap.Str("deep"), heap.List(heap.Ref(outside[2]), member()), heap.List()),
			heap.Ref(outside[1]),
		)).MustSet("slot", heap.Ref(outside[i%2])).MustSet("far", heap.Ref(outside[2+i%2]))
	}
	encodeRef := func(id heap.ObjID) (xmlcodec.Value, error) {
		switch {
		case members[id]:
			return xmlcodec.InternalRef(id), nil
		case id == outside[0] || id == outside[1]:
			return xmlcodec.SlotRef(int(id - outside[0])), nil
		case id == outside[2] || id == outside[3]:
			return xmlcodec.RemoteRefOf(id+1000, "Misc"), nil
		}
		return xmlcodec.Value{}, fmt.Errorf("unclassified @%d", id)
	}
	decodeRef := func(v xmlcodec.Value) (heap.Value, error) {
		if v.RefClass == xmlcodec.RefSlot {
			return heap.Ref(outside[v.Slot]), nil
		}
		return heap.Ref(v.Target - 1000), nil
	}

	const key = "gentest-heap-ends"
	doc, err := xmlcodec.EncodeObjects(key, objs, encodeRef)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []wire.FormatID{wire.FormatBinary, wire.FormatFlate} {
		want, err := wire.Encode(format, doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		enc := wire.NewEncoder()
		got, err := enc.EncodeObjects(format, key, objs, encodeRef)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: frame encoded from the heap differs from the Doc path's", format)
		}
		enc.Release()

		direct, viaDoc := heap.New(0), heap.New(0)
		staged, err := wire.Stage(want, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := staged.Install(direct, decodeRef); err != nil {
			t.Fatal(err)
		}
		back, err := wire.Decode(want, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := back.Install(viaDoc, reg, decodeRef); err != nil {
			t.Fatal(err)
		}
		if direct.Used() != viaDoc.Used() || direct.Len() != n {
			t.Fatalf("%s: direct install: %d objects, Used %d; via Doc: %d objects, Used %d",
				format, direct.Len(), direct.Used(), viaDoc.Len(), viaDoc.Used())
		}
		for _, o := range objs {
			d, err := direct.Get(o.ID())
			if err != nil {
				t.Fatal(err)
			}
			v, err := viaDoc.Get(o.ID())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < o.NumFields(); i++ {
				if !d.Field(i).Equal(o.Field(i)) || !v.Field(i).Equal(o.Field(i)) {
					t.Fatalf("%s: @%d.%s: direct %v, via Doc %v, shipped %v",
						format, o.ID(), o.Class().Field(i).Name, d.Field(i), v.Field(i), o.Field(i))
				}
			}
			if d.Size() != o.Size() || v.Size() != o.Size() {
				t.Fatalf("%s: @%d sized %d direct, %d via Doc, %d when shipped", format, o.ID(), d.Size(), v.Size(), o.Size())
			}
		}
	}
}
