package wire

import (
	"bytes"
	"fmt"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// recordCodec is a hand-written ClassCodec for the testDoc "Record" layout —
// the exact shape cmd/obicomp generates: per-slot typed stanzas with a
// generic fallback per value, and a whole-object generic fallback when the
// frame's field count disagrees with the compiled layout.
type recordCodec struct{}

func (recordCodec) ClassName() string { return "Record" }

func (recordCodec) Encode(e Enc, o *xmlcodec.Object) error {
	fs := o.Fields
	if len(fs) != 10 {
		return e.Fields(fs)
	}
	for j := range fs {
		e.Field(fs[j].Name)
		v := &fs[j].Value
		switch j {
		case 0:
			if v.Kind == heap.KindString {
				e.Str(v.S)
				continue
			}
		case 1:
			if v.Kind == heap.KindInt {
				e.Int(v.I)
				continue
			}
		case 2:
			if v.Kind == heap.KindFloat {
				e.Float(v.F)
				continue
			}
		case 3:
			if v.Kind == heap.KindBool {
				e.Bool(v.B)
				continue
			}
		case 4:
			if v.Kind == heap.KindBytes {
				e.Bytes(v.Data)
				continue
			}
		}
		if err := e.Value(v); err != nil {
			return err
		}
	}
	return nil
}

func (recordCodec) Decode(d Dec, o *xmlcodec.Object) error {
	fs := o.Fields
	if len(fs) != 10 {
		return d.Fields(fs)
	}
	var err error
	for j := range fs {
		if fs[j].Name, err = d.Name(); err != nil {
			return err
		}
		v := &fs[j].Value
		switch j {
		case 0:
			err = d.Str(v)
		case 1:
			err = d.Int(v)
		case 2:
			err = d.Float(v)
		case 3:
			err = d.Bool(v)
		case 4:
			err = d.Bytes(v)
		default:
			err = d.Value(v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// delegatingCodec routes everything through the generic fallbacks — the
// degenerate (but valid) codec a generator could emit for any class.
type delegatingCodec struct{ name string }

func (c delegatingCodec) ClassName() string { return c.name }
func (c delegatingCodec) Encode(e Enc, o *xmlcodec.Object) error {
	return e.Fields(o.Fields)
}
func (c delegatingCodec) Decode(d Dec, o *xmlcodec.Object) error {
	return d.Fields(o.Fields)
}

func recordCodecs() *ClassCodecs {
	cc := NewClassCodecs()
	cc.Bind(recordCodec{})
	return cc
}

// TestClassCodecByteIdentical asserts the ClassCodec contract directly: the
// same document encodes to the same payload bytes with and without the class
// codec, for every binary-family format.
func TestClassCodecByteIdentical(t *testing.T) {
	doc := testDoc(8)
	cc := recordCodecs()
	for _, id := range []FormatID{FormatBinary, FormatFlate} {
		plain, err := Encode(id, doc, nil)
		if err != nil {
			t.Fatalf("%s: generic encode: %v", id, err)
		}
		fast, err := Encode(id, doc, &EncodeOpts{Codecs: cc})
		if err != nil {
			t.Fatalf("%s: codec encode: %v", id, err)
		}
		if !bytes.Equal(plain, fast) {
			t.Fatalf("%s: class codec changed payload bytes", id)
		}
	}
	delta := &xmlcodec.Doc{ClusterID: "gen2", Version: doc.Version, Objects: doc.Objects[:3]}
	plain, err := Encode(FormatDelta, delta, &EncodeOpts{BaseKey: "gen1", Removed: []heap.ObjID{7}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Encode(FormatDelta, delta, &EncodeOpts{BaseKey: "gen1", Removed: []heap.ObjID{7}, Codecs: cc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, fast) {
		t.Fatal("delta: class codec changed payload bytes")
	}
}

// TestClassCodecDecode asserts a codec-assisted decode yields the same model
// as the generic decode, whichever side encoded the frame.
func TestClassCodecDecode(t *testing.T) {
	doc := testDoc(8)
	cc := recordCodecs()
	want := normalize(t, doc)
	for _, id := range []FormatID{FormatBinary, FormatFlate} {
		data, err := Encode(id, doc, &EncodeOpts{Codecs: cc})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []*DecodeOpts{nil, {Codecs: cc}} {
			back, err := Decode(data, opts)
			if err != nil {
				t.Fatalf("%s: decode: %v", id, err)
			}
			if !bytes.Equal(normalize(t, back), want) {
				t.Fatalf("%s: codec decode changed document", id)
			}
		}
	}
}

// TestClassCodecLayoutDrift feeds the codec objects whose field layout does
// NOT match its compiled expectation — wrong kinds, wrong count — and
// asserts the fallback arms keep the bytes identical to the generic path.
func TestClassCodecLayoutDrift(t *testing.T) {
	doc := &xmlcodec.Doc{ClusterID: "drift", Version: xmlcodec.Version}
	// Right count, wrong kinds in the typed slots.
	wrongKinds := xmlcodec.Object{ID: 1, Class: "Record"}
	for j := 0; j < 10; j++ {
		wrongKinds.Fields = append(wrongKinds.Fields, xmlcodec.Field{
			Name:  fmt.Sprintf("f%d", j),
			Value: xmlcodec.InternalRef(heap.ObjID(j + 1)),
		})
	}
	// Wrong count entirely.
	wrongCount := xmlcodec.Object{ID: 2, Class: "Record", Fields: []xmlcodec.Field{
		{Name: "only", Value: xmlcodec.Value{Kind: heap.KindString, S: "one"}},
	}}
	doc.Objects = append(doc.Objects, wrongKinds, wrongCount)

	cc := recordCodecs()
	plain, err := Encode(FormatBinary, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Encode(FormatBinary, doc, &EncodeOpts{Codecs: cc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, fast) {
		t.Fatal("fallback arms changed payload bytes")
	}
	back, err := Decode(plain, &DecodeOpts{Codecs: cc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalize(t, back), normalize(t, doc)) {
		t.Fatal("fallback decode changed document")
	}
}

// FuzzCrossClassCodec is the cross-oracle for the class-codec plane: for any
// document the XML oracle accepts, encoding with class codecs bound (typed
// for "N" and "Record", fully delegating for every other class present) must
// produce byte-identical frames to the generic path, and codec-assisted
// decodes of those frames must reproduce the oracle rendering.
func FuzzCrossClassCodec(f *testing.F) {
	seeds := []string{
		`<swapcluster id="c" version="1"><object id="1" class="Record"><field name="x" kind="int">7</field></object></swapcluster>`,
		`<swapcluster id="c" version="1"><object id="1" class="N"><field name="r" kind="ref" target="2"/><field name="b" kind="bytes">aGVsbG8=</field></object></swapcluster>`,
		`<swapcluster id="c" version="1"><object id="1" class="A"/><object id="2" class="B"><field name="p" kind="ref" target="1"/></object></swapcluster>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	if data, err := testDoc(3).Encode(); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := xmlcodec.Decode(data)
		if err != nil {
			return
		}
		want, err := doc.Encode()
		if err != nil {
			t.Fatalf("oracle re-encode: %v", err)
		}
		cc := recordCodecs()
		cc.Bind(typedNCodec{})
		for i := range doc.Objects {
			name := doc.Objects[i].Class
			if _, bound := cc.Lookup(name); !bound {
				cc.Bind(delegatingCodec{name: name})
			}
		}
		// Third party: the heap-driven ends hand the codecs one reused record
		// per object, and must agree with both.
		checkHeapEnds(t, doc, cc)
		for _, id := range []FormatID{FormatBinary, FormatFlate} {
			plain, err := Encode(id, doc, nil)
			if err != nil {
				t.Fatalf("%s: generic encode: %v", id, err)
			}
			fast, err := Encode(id, doc, &EncodeOpts{Codecs: cc})
			if err != nil {
				t.Fatalf("%s: codec encode: %v", id, err)
			}
			if !bytes.Equal(plain, fast) {
				t.Fatalf("%s: class codec diverged from generic bytes", id)
			}
			back, err := Decode(fast, &DecodeOpts{Codecs: cc})
			if err != nil {
				t.Fatalf("%s: codec decode: %v", id, err)
			}
			out, err := back.Encode()
			if err != nil {
				t.Fatalf("%s: re-encode: %v", id, err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("%s: codec decode diverged:\n got:  %s\n want: %s", id, out, want)
			}
		}
	})
}

// typedNCodec compiles a two-field layout (int, ref) for class "N". Fuzz
// documents rarely match it, so this mostly exercises the drift fallbacks.
type typedNCodec struct{}

func (typedNCodec) ClassName() string { return "N" }

func (typedNCodec) Encode(e Enc, o *xmlcodec.Object) error {
	fs := o.Fields
	if len(fs) != 2 {
		return e.Fields(fs)
	}
	e.Field(fs[0].Name)
	if v := &fs[0].Value; v.Kind == heap.KindInt {
		e.Int(v.I)
	} else if err := e.Value(v); err != nil {
		return err
	}
	e.Field(fs[1].Name)
	return e.Value(&fs[1].Value)
}

func (typedNCodec) Decode(d Dec, o *xmlcodec.Object) error {
	fs := o.Fields
	if len(fs) != 2 {
		return d.Fields(fs)
	}
	var err error
	if fs[0].Name, err = d.Name(); err != nil {
		return err
	}
	if err = d.Int(&fs[0].Value); err != nil {
		return err
	}
	if fs[1].Name, err = d.Name(); err != nil {
		return err
	}
	return d.Value(&fs[1].Value)
}
