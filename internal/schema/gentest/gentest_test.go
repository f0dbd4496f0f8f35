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

// synthesizedRecordClass hand-builds the closure-table equivalent of the
// generated Record class: same fields, same accessor names, with every method
// going through AddMethod closures and the default registration-time ops.
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

// TestGeneratedAccessorsAgree drives the generated static-dispatch class and
// the hand-synthesized closure class through the same accessor script in two
// identical runtimes and requires identical observable behavior — the
// cross-oracle for dispatch: obicomp output must be indistinguishable from
// the closures it replaces.
func TestGeneratedAccessorsAgree(t *testing.T) {
	gen, syn := NewRecordClass(), synthesizedRecordClass()

	if g, s := gen.MethodNames(), syn.MethodNames(); !reflect.DeepEqual(g, s) {
		t.Fatalf("method sets differ: generated %v vs synthesized %v", g, s)
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
		// worlds; record the interception outcome, not the unstable IDs.
		nv, err := a.FieldByName("next")
		trace = append(trace, fmt.Sprintf("next proxied=%v err=%v", rt.IsProxyRef(nv), err))
		return trace
	}

	got, want := run(gen), run(syn)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accessor traces diverge:\ngenerated:   %v\nsynthesized: %v", got, want)
	}
}

// recordDoc builds a shipment document of n Record objects exercising all
// seven compiled field kinds.
func recordDoc(n int) *xmlcodec.Doc {
	payload := make([]byte, 192)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	doc := &xmlcodec.Doc{ClusterID: "gentest-swapcluster", Version: xmlcodec.Version}
	for i := 0; i < n; i++ {
		id := heap.ObjID(i + 1)
		doc.Objects = append(doc.Objects, xmlcodec.Object{
			ID:    id,
			Class: "Record",
			Fields: []xmlcodec.Field{
				{Name: "title", Value: xmlcodec.Value{Kind: heap.KindString, S: fmt.Sprintf("rec-%d", i)}},
				{Name: "seq", Value: xmlcodec.Value{Kind: heap.KindInt, I: int64(i)*31 - 7}},
				{Name: "weight", Value: xmlcodec.Value{Kind: heap.KindFloat, F: float64(i) * 0.25}},
				{Name: "dirty", Value: xmlcodec.Value{Kind: heap.KindBool, B: i%2 == 1}},
				{Name: "blob", Value: xmlcodec.Value{Kind: heap.KindBytes, Data: payload}},
				{Name: "next", Value: xmlcodec.InternalRef(heap.ObjID(i%n + 1))},
				{Name: "tags", Value: xmlcodec.Value{Kind: heap.KindList, List: []xmlcodec.Value{
					{Kind: heap.KindString, S: "hot"},
					{Kind: heap.KindInt, I: int64(i)},
				}}},
			},
		})
	}
	return doc
}

func recordCodecs() *wire.ClassCodecs {
	cc := wire.NewClassCodecs()
	cc.Bind(recordOps{}.WireCodec())
	return cc
}

// TestGeneratedCodecByteIdentical: the committed generated codec must write
// the same OBW bytes as the generic reflective path and decode them back to
// the same document.
func TestGeneratedCodecByteIdentical(t *testing.T) {
	doc := recordDoc(16)
	cc := recordCodecs()
	for _, format := range []wire.FormatID{wire.FormatBinary, wire.FormatFlate} {
		generic, err := wire.Encode(format, doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := wire.Encode(format, doc, &wire.EncodeOpts{Codecs: cc})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(generic, gen) {
			t.Fatalf("%s: generated codec changed the frame bytes", format)
		}
		back, err := wire.Decode(gen, &wire.DecodeOpts{Codecs: cc})
		if err != nil {
			t.Fatal(err)
		}
		wantXML, err := doc.Encode()
		if err != nil {
			t.Fatal(err)
		}
		gotXML, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotXML, wantXML) {
			t.Fatalf("%s: generated codec decode diverged from the document", format)
		}
	}
}

// FuzzGeneratedCodec fuzzes field payloads through the committed generated
// codec: whatever the values, the frame bytes must match the generic path
// exactly and decode losslessly.
func FuzzGeneratedCodec(f *testing.F) {
	f.Add("alpha", int64(1), 0.5, true, []byte{9, 8, 7}, uint8(3))
	f.Add("", int64(-1<<40), -0.0, false, []byte{}, uint8(1))
	f.Add("uni\x00code \"&<>\"", int64(1<<62), 1e300, true, []byte{0xff}, uint8(5))
	f.Fuzz(func(t *testing.T, title string, seq int64, weight float64, dirty bool, blob []byte, n uint8) {
		objs := int(n%7) + 1
		doc := recordDoc(objs)
		for i := range doc.Objects {
			fs := doc.Objects[i].Fields
			fs[0].Value = xmlcodec.Value{Kind: heap.KindString, S: title}
			fs[1].Value = xmlcodec.Value{Kind: heap.KindInt, I: seq + int64(i)}
			fs[2].Value = xmlcodec.Value{Kind: heap.KindFloat, F: weight}
			fs[3].Value = xmlcodec.Value{Kind: heap.KindBool, B: dirty}
			fs[4].Value = xmlcodec.Value{Kind: heap.KindBytes, Data: blob}
		}
		oracle, err := doc.Encode()
		if err != nil {
			t.Skip("oracle rejects document")
		}
		cc := recordCodecs()
		generic, err := wire.Encode(wire.FormatBinary, doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := wire.Encode(wire.FormatBinary, doc, &wire.EncodeOpts{Codecs: cc})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(generic, gen) {
			t.Fatal("generated codec changed the frame bytes")
		}
		back, err := wire.Decode(gen, &wire.DecodeOpts{Codecs: cc})
		if err != nil {
			t.Fatal(err)
		}
		backXML, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(backXML, oracle) {
			t.Fatal("generated codec decode diverged from the XML oracle")
		}
	})
}

// TestGenBenchSmoke is the generated-code gate, in counts that are the same
// on any host: decoding a 64-Record shipment through the generated codec must
// allocate strictly less than the generic path (the borrowed-blob contract
// saves the arena copy), and one accessor call through the generated static
// switch must allocate no more than through the closure table it replaces.
func TestGenBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-code smoke skipped in -short mode")
	}
	data, err := wire.Encode(wire.FormatBinary, recordDoc(64), nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeAllocs := func(opts *wire.DecodeOpts) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := wire.Decode(data, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	generic, generated := decodeAllocs(nil), decodeAllocs(&wire.DecodeOpts{Codecs: recordCodecs()})
	t.Logf("decode: generic %.0f allocs, generated %.0f allocs", generic, generated)
	if generated >= generic {
		t.Fatalf("generated decode allocates %.0f/op, generic %.0f/op — the specialized codec must allocate strictly less",
			generated, generic)
	}

	dispatchAllocs := func(c *heap.Class) float64 {
		rt := newRuntime()
		rt.MustRegisterClass(c)
		o, err := rt.NewObject(c, rt.Manager().NewCluster())
		if err != nil {
			t.Fatal(err)
		}
		ref := o.RefTo()
		if _, err := rt.Invoke(ref, "setSeq", heap.Int(77)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := rt.Invoke(ref, "getSeq"); err != nil {
				t.Fatal(err)
			}
		})
	}
	gen, syn := dispatchAllocs(NewRecordClass()), dispatchAllocs(synthesizedRecordClass())
	t.Logf("dispatch: generated %.0f allocs, synthesized %.0f allocs", gen, syn)
	if gen > syn {
		t.Fatalf("generated dispatch allocates %.0f/call, synthesized closures %.0f/call", gen, syn)
	}
}

// TestHeapDrivenEndsWithGeneratedClass checks the swap path's heap-driven
// ends against the Doc path on a seeded cluster that mixes the generated
// Record class (its codec handed one reused record per object) with a
// synthesized class, and covers all eight kinds, nested lists, and internal,
// slot and remote references. Out: the frame encoded straight from the heap
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
	cc := recordCodecs()
	for _, format := range []wire.FormatID{wire.FormatBinary, wire.FormatFlate} {
		want, err := wire.Encode(format, doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, codecs := range []*wire.ClassCodecs{cc, nil} {
			enc := wire.NewEncoder()
			got, err := enc.EncodeObjects(format, key, objs, encodeRef, &wire.EncodeOpts{Codecs: codecs})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (codecs %v): frame encoded from the heap differs from the Doc path's", format, codecs != nil)
			}
			enc.Release()
		}

		direct, viaDoc := heap.New(0), heap.New(0)
		staged, err := wire.Stage(want, reg, &wire.DecodeOpts{Codecs: cc})
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
