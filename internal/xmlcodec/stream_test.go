package xmlcodec

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"objectswap/internal/heap"
)

// crossDoc builds a document exercising every wire construct: all scalar
// kinds, a base64 payload, all three reference classes and nested lists.
func crossDoc() *Doc {
	return &Doc{
		ClusterID: `node-a-swapcluster-7-gen2 <&">`,
		Version:   Version,
		Objects: []Object{
			{
				ID:    3,
				Class: "Person",
				Fields: []Field{
					{Name: "name", Value: Value{Kind: heap.KindString, S: "  Ada <&> \"Lovelace\"\t\n  "}},
					{Name: "age", Value: Value{Kind: heap.KindInt, I: -36}},
					{Name: "score", Value: Value{Kind: heap.KindFloat, F: 3.14159e-7}},
					{Name: "active", Value: Value{Kind: heap.KindBool, B: true}},
					{Name: "photo", Value: Value{Kind: heap.KindBytes, Data: []byte("\x00\x01\xfe\xffbinary payload that is long enough to span lines")}},
					{Name: "empty", Value: Value{Kind: heap.KindNil}},
					{Name: "friend", Value: InternalRef(9)},
					{Name: "away", Value: SlotRef(2)},
					{Name: "far", Value: RemoteRefOf(4096, "Person")},
					{Name: "bare", Value: RemoteRef(17)},
					{Name: "tags", Value: Value{Kind: heap.KindList, List: []Value{
						{Kind: heap.KindString, S: "x"},
						InternalRef(3),
						{Kind: heap.KindList, List: []Value{{Kind: heap.KindInt, I: 0}}},
						{Kind: heap.KindList},
					}}},
				},
			},
			{
				ID:    9,
				Class: "Person",
				Fields: []Field{
					{Name: "name", Value: Value{Kind: heap.KindString, S: ""}},
					{Name: "photo", Value: Value{Kind: heap.KindBytes}},
				},
			},
		},
	}
}

// TestCrossCodecRoundTrip is the compatibility contract: documents rendered
// by the historical reflection encoder must decode identically through the
// streaming decoder, and compact streaming output must decode identically
// through the legacy reflection decoder.
func TestCrossCodecRoundTrip(t *testing.T) {
	doc := crossDoc()

	indented, err := doc.EncodeIndent()
	if err != nil {
		t.Fatalf("EncodeIndent: %v", err)
	}
	compact, err := doc.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	fromIndented, err := Decode(indented)
	if err != nil {
		t.Fatalf("streaming decode of indented form: %v", err)
	}
	fromCompact, err := decodeLegacy(compact)
	if err != nil {
		t.Fatalf("legacy decode of compact form: %v", err)
	}
	viaLegacy, err := decodeLegacy(indented)
	if err != nil {
		t.Fatalf("legacy decode of indented form: %v", err)
	}
	viaStream, err := Decode(compact)
	if err != nil {
		t.Fatalf("streaming decode of compact form: %v", err)
	}

	if !reflect.DeepEqual(fromIndented, viaLegacy) {
		t.Errorf("streaming and legacy decoders disagree on indented text:\n stream: %+v\n legacy: %+v", fromIndented, viaLegacy)
	}
	if !reflect.DeepEqual(fromCompact, viaStream) {
		t.Errorf("streaming and legacy decoders disagree on compact text:\n legacy: %+v\n stream: %+v", fromCompact, viaStream)
	}
	if !reflect.DeepEqual(viaStream, fromIndented) {
		t.Errorf("compact and indented forms decode differently:\n compact: %+v\n indented: %+v", viaStream, fromIndented)
	}
	// Decoded documents must be an encode fixpoint: re-encoding reproduces the
	// compact text byte for byte (nil vs empty slices may differ in memory, so
	// the wire form is the equality that matters).
	reEncoded, err := viaStream.Encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(reEncoded, compact) {
		t.Errorf("re-encoding a decoded document changed the wire text:\n got:  %s\n want: %s", reEncoded, compact)
	}
}

// TestCompactSmallerThanIndented pins the shipment-size win: the compact form
// of the same document must be strictly smaller than the pretty-printed one.
func TestCompactSmallerThanIndented(t *testing.T) {
	doc := crossDoc()
	indented, err := doc.EncodeIndent()
	if err != nil {
		t.Fatal(err)
	}
	compact, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) >= len(indented) {
		t.Fatalf("compact form (%d bytes) not smaller than indented (%d bytes)", len(compact), len(indented))
	}
	if !strings.Contains(string(compact), "<swapcluster ") {
		t.Fatalf("compact form lost the wrapper element: %q", compact)
	}
}

// appendDoc renders doc record by record onto dst, the way the wire
// package's XML codec does from a heap.
func appendDoc(dst []byte, doc *Doc) ([]byte, error) {
	dst = AppendHeader(dst, doc.ClusterID, doc.Version)
	for i := range doc.Objects {
		var err error
		if dst, err = AppendObject(dst, &doc.Objects[i]); err != nil {
			return nil, err
		}
	}
	return AppendTrailer(dst), nil
}

// TestAppendMatchesEncode: the record-at-a-time form appends exactly
// Encode's text behind whatever dst already holds.
func TestAppendMatchesEncode(t *testing.T) {
	doc := crossDoc()
	want, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("kept:")
	got, err := appendDoc(bytes.Clone(prefix), doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("appended form differs from Encode:\n got:  %s\n want: %s%s", got, prefix, want)
	}
}

// TestAppendPropagatesEncodeError: a value no element can carry fails the
// record, and Encode with it.
func TestAppendPropagatesEncodeError(t *testing.T) {
	doc := crossDoc()
	doc.Objects[1].Fields[0].Value.List = nil
	doc.Objects[1].Fields[0].Value.Kind = heap.Kind(250)
	if _, err := AppendObject(nil, &doc.Objects[1]); err == nil {
		t.Fatal("AppendObject accepted an unencodable kind")
	}
	if _, err := doc.Encode(); err == nil {
		t.Fatal("Encode accepted an unencodable kind")
	}
}

// TestAppendReusesBuffer: rendered into a buffer with room, the append form
// allocates nothing and rewrites the same text every time.
func TestAppendReusesBuffer(t *testing.T) {
	doc := crossDoc()
	want, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(want))
	allocs := testing.AllocsPerRun(4, func() {
		if buf, err = appendDoc(buf[:0], doc); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(buf, want) {
		t.Fatal("reused buffer content differs from Encode")
	}
	if allocs != 0 {
		t.Fatalf("append form allocated %.0f times per document into a buffer with room", allocs)
	}
}

// TestStreamDecoderLeniency mirrors the reflection decoder's tolerance for
// unknown elements and attributes and self-closing vs open-close forms.
func TestStreamDecoderLeniency(t *testing.T) {
	text := `<?xml version="1.0"?>
<!-- produced by a third party -->
<swapcluster id="c" version="1" vendor="acme">
  <meta generator="acme-tool"/>
  <object id="5" class="Box" extra="yes">
    <annotation>ignored</annotation>
    <field name="n" kind="int" unit="mm"> 42 </field>
    <field name="s" kind="string"></field>
    <field name="l" kind="list">
      <item kind="bool">true</item>
      <note/>
    </field>
  </object>
</swapcluster>trailing junk`
	doc, err := Decode([]byte(text))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if doc.ClusterID != "c" || len(doc.Objects) != 1 {
		t.Fatalf("unexpected doc shape: %+v", doc)
	}
	o := doc.Objects[0]
	if o.ID != 5 || o.Class != "Box" || len(o.Fields) != 3 {
		t.Fatalf("unexpected object shape: %+v", o)
	}
	if o.Fields[0].Value.I != 42 {
		t.Errorf("int field: got %d", o.Fields[0].Value.I)
	}
	if o.Fields[1].Value.Kind != heap.KindString || o.Fields[1].Value.S != "" {
		t.Errorf("empty string field: got %+v", o.Fields[1].Value)
	}
	if l := o.Fields[2].Value; l.Kind != heap.KindList || len(l.List) != 1 || !l.List[0].B {
		t.Errorf("list field: got %+v", o.Fields[2].Value)
	}
}

func TestStreamDecoderRejects(t *testing.T) {
	cases := map[string]string{
		"wrong root":    `<?xml version="1.0"?><notacluster id="c" version="1"/>`,
		"bad version":   `<swapcluster id="c" version="9"/>`,
		"junk version":  `<swapcluster id="c" version="x"/>`,
		"no version":    `<swapcluster id="c"/>`,
		"nil object id": `<swapcluster id="c" version="1"><object id="0" class="Box"/></swapcluster>`,
		"bad object id": `<swapcluster id="c" version="1"><object id="q" class="Box"/></swapcluster>`,
		"no class":      `<swapcluster id="c" version="1"><object id="3"/></swapcluster>`,
		"bad kind":      `<swapcluster id="c" version="1"><object id="3" class="Box"><field name="f" kind="wat"/></object></swapcluster>`,
		"truncated":     `<swapcluster id="c" version="1"><object id="3" class="Box">`,
		"not xml":       `swapcluster`,
	}
	for label, text := range cases {
		if _, err := Decode([]byte(text)); err == nil {
			t.Errorf("%s: decode accepted %q", label, text)
		}
	}
}

// TestEscapeParity feeds hostile strings through both encoders and checks the
// decoders agree, including encoding/xml's U+FFFD replacement of characters
// XML cannot carry.
func TestEscapeParity(t *testing.T) {
	samples := []string{
		"plain",
		`quotes " and ' mixed`,
		"angle <brackets> & ampersand",
		"tab\tnewline\ncarriage\rreturn",
		"control\x01char and del\x7f",
		"invalid utf8 \xff\xfe tail",
		"high plane \U0001F600 ok",
		"]]> cdata terminator",
		strings.Repeat("&<>\"'\r\n\t", 40),
	}
	for _, s := range samples {
		doc := &Doc{ClusterID: s, Version: Version, Objects: []Object{{
			ID: 1, Class: s + "C",
			Fields: []Field{{Name: "v", Value: Value{Kind: heap.KindString, S: s}}},
		}}}
		indented, err := doc.EncodeIndent()
		if err != nil {
			t.Fatalf("%q: EncodeIndent: %v", s, err)
		}
		compact, err := doc.Encode()
		if err != nil {
			t.Fatalf("%q: Encode: %v", s, err)
		}
		a, err := Decode(indented)
		if err != nil {
			t.Fatalf("%q: decode indented: %v", s, err)
		}
		b, err := Decode(compact)
		if err != nil {
			t.Fatalf("%q: decode compact: %v", s, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%q: encoders diverge after decode:\n indented: %+v\n compact:  %+v", s, a, b)
		}
	}
}
