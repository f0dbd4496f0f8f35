package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// testDoc mirrors the xmlcodec benchmark document: the field mix a
// swap-cluster typically carries.
func testDoc(objs int) *xmlcodec.Doc {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	doc := &xmlcodec.Doc{ClusterID: "wire-swapcluster-1-gen1", Version: xmlcodec.Version}
	for i := 0; i < objs; i++ {
		id := heap.ObjID(i + 1)
		next := heap.ObjID(i%objs + 1)
		doc.Objects = append(doc.Objects, xmlcodec.Object{
			ID:    id,
			Class: "Record",
			Fields: []xmlcodec.Field{
				{Name: "title", Value: xmlcodec.Value{Kind: heap.KindString, S: fmt.Sprintf("record #%d with \"quoted\" & <angled> text", i)}},
				{Name: "seq", Value: xmlcodec.Value{Kind: heap.KindInt, I: int64(i)*7919 - 500}},
				{Name: "weight", Value: xmlcodec.Value{Kind: heap.KindFloat, F: float64(i) * 0.125}},
				{Name: "dirty", Value: xmlcodec.Value{Kind: heap.KindBool, B: i%2 == 0}},
				{Name: "blob", Value: xmlcodec.Value{Kind: heap.KindBytes, Data: payload}},
				{Name: "gone", Value: xmlcodec.Value{Kind: heap.KindNil}},
				{Name: "next", Value: xmlcodec.InternalRef(next)},
				{Name: "out", Value: xmlcodec.SlotRef(i % 4)},
				{Name: "home", Value: xmlcodec.RemoteRefOf(heap.ObjID(100000+i), "Record")},
				{Name: "tags", Value: xmlcodec.Value{Kind: heap.KindList, List: []xmlcodec.Value{
					{Kind: heap.KindString, S: "hot"},
					{Kind: heap.KindInt, I: int64(i)},
					xmlcodec.InternalRef(id),
					{Kind: heap.KindList, List: []xmlcodec.Value{{Kind: heap.KindBool, B: true}}},
				}}},
			},
		})
	}
	return doc
}

// normalize re-renders a document through the XML oracle so semantically
// equal documents compare byte-equal regardless of nil-vs-empty slices.
func normalize(t testing.TB, doc *xmlcodec.Doc) []byte {
	t.Helper()
	out, err := doc.Encode()
	if err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	return out
}

func TestRoundTripSelfContained(t *testing.T) {
	doc := testDoc(8)
	want := normalize(t, doc)
	for _, id := range []FormatID{FormatXML, FormatBinary, FormatFlate} {
		data, err := Encode(id, doc, nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", id, err)
		}
		if got, err := Detect(data); err != nil || got != id {
			t.Fatalf("%s: Detect = %q, %v", id, got, err)
		}
		back, err := Decode(data, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", id, err)
		}
		if !bytes.Equal(normalize(t, back), want) {
			t.Fatalf("%s: round trip changed document", id)
		}
	}
}

func TestRoundTripEmptyDoc(t *testing.T) {
	doc := &xmlcodec.Doc{ClusterID: "empty", Version: xmlcodec.Version}
	for _, id := range []FormatID{FormatBinary, FormatFlate} {
		data, err := Encode(id, doc, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		back, err := Decode(data, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if back.ClusterID != "empty" || len(back.Objects) != 0 || back.Version != xmlcodec.Version {
			t.Fatalf("%s: got %+v", id, back)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	base := testDoc(16)
	baseData, err := Encode(FormatBinary, base, nil)
	if err != nil {
		t.Fatal(err)
	}

	// New shipment: object 3 mutated, object 16 removed, object 17 added.
	next := testDoc(16)
	next.ClusterID = "wire-swapcluster-1-gen2"
	next.Objects[2].Fields[0].Value.S = "mutated"
	changedObj := next.Objects[2]
	added := xmlcodec.Object{ID: 17, Class: "Record", Fields: []xmlcodec.Field{
		{Name: "title", Value: xmlcodec.Value{Kind: heap.KindString, S: "fresh"}},
	}}
	next.Objects = append(next.Objects[:15], added)

	delta := &xmlcodec.Doc{
		ClusterID: next.ClusterID,
		Version:   xmlcodec.Version,
		Objects:   []xmlcodec.Object{changedObj, added},
	}
	deltaData, err := Encode(FormatDelta, delta, &EncodeOpts{
		BaseKey: base.ClusterID,
		Removed: []heap.ObjID{16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Detect(deltaData); err != nil || got != FormatDelta {
		t.Fatalf("Detect = %q, %v", got, err)
	}

	fetches := 0
	back, err := Decode(deltaData, &DecodeOpts{FetchBase: func(key string) ([]byte, error) {
		fetches++
		if key != base.ClusterID {
			return nil, fmt.Errorf("unexpected base %q", key)
		}
		return baseData, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fetches != 1 {
		t.Fatalf("fetched base %d times", fetches)
	}
	if !bytes.Equal(normalize(t, back), normalize(t, next)) {
		t.Fatal("delta application diverged from the full document")
	}

	// A delta is much smaller than the base it patches.
	if len(deltaData)*4 > len(baseData) {
		t.Fatalf("delta %d bytes vs base %d bytes", len(deltaData), len(baseData))
	}
}

func TestDeltaWithoutFetcher(t *testing.T) {
	delta, err := Encode(FormatDelta, &xmlcodec.Doc{ClusterID: "k2", Version: 1},
		&EncodeOpts{BaseKey: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(delta, nil); err == nil {
		t.Fatal("delta decoded without a base fetcher")
	}
	if _, err := Decode(delta, &DecodeOpts{FetchBase: func(string) ([]byte, error) {
		return nil, fmt.Errorf("donor lacks base")
	}}); err == nil {
		t.Fatal("delta decoded with failing base fetch")
	}
}

func TestDeltaSelfBaseRejected(t *testing.T) {
	if _, err := Encode(FormatDelta, &xmlcodec.Doc{ClusterID: "k", Version: 1},
		&EncodeOpts{BaseKey: "k"}); err == nil {
		t.Fatal("delta accepted its own key as base")
	}
	if _, err := Encode(FormatDelta, &xmlcodec.Doc{ClusterID: "k", Version: 1}, nil); err == nil {
		t.Fatal("delta accepted nil opts")
	}
}

func TestDeltaChainDepthBounded(t *testing.T) {
	// k0 is a real base; k1..k5 each delta against the previous. Decoding the
	// deepest must hit the recursion bound, not loop or blow the stack.
	payloads := map[string][]byte{}
	base := &xmlcodec.Doc{ClusterID: "k0", Version: 1}
	data, err := Encode(FormatBinary, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads["k0"] = data
	for i := 1; i <= maxDeltaDepth+1; i++ {
		key, prev := fmt.Sprintf("k%d", i), fmt.Sprintf("k%d", i-1)
		d, err := Encode(FormatDelta, &xmlcodec.Doc{ClusterID: key, Version: 1},
			&EncodeOpts{BaseKey: prev})
		if err != nil {
			t.Fatal(err)
		}
		payloads[key] = d
	}
	fetch := func(key string) ([]byte, error) {
		p, ok := payloads[key]
		if !ok {
			return nil, fmt.Errorf("no %q", key)
		}
		return p, nil
	}
	// Shallow chain decodes.
	if _, err := Decode(payloads["k2"], &DecodeOpts{FetchBase: fetch}); err != nil {
		t.Fatalf("depth-2 chain: %v", err)
	}
	// Past the bound it must fail cleanly.
	if _, err := Decode(payloads[fmt.Sprintf("k%d", maxDeltaDepth+1)],
		&DecodeOpts{FetchBase: fetch}); err == nil {
		t.Fatal("unbounded delta chain accepted")
	}
}

func TestDetect(t *testing.T) {
	cases := []struct {
		data []byte
		want FormatID
		ok   bool
	}{
		{[]byte(`<?xml version="1.0"?><swapcluster id="c" version="1"/>`), FormatXML, true},
		{[]byte("  \n\t<swapcluster/>"), FormatXML, true},
		{[]byte{}, "", false},
		{[]byte("garbage"), "", false},
		{[]byte{magic0, magic1, magic2, frameVersion, 0x00, 0x00}, FormatBinary, true},
		{[]byte{magic0, magic1, magic2, frameVersion, flagFlate, 0x00}, FormatFlate, true},
		{[]byte{magic0, magic1, magic2, frameVersion, flagDelta, 0x00}, FormatDelta, true},
		{[]byte{magic0, magic1, magic2, 99, 0x00, 0x00}, "", false},
	}
	for i, c := range cases {
		got, err := Detect(c.data)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("case %d: got %q, %v", i, got, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("case %d: want error, got %q", i, got)
		}
	}
}

func TestRegistryAdvertisement(t *testing.T) {
	want := []string{"binary", "binary+flate", "delta", "xml"}
	if got := FormatStrings(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FormatStrings() = %v, want %v", got, want)
	}
	for _, id := range Formats() {
		c, err := Lookup(id)
		if err != nil || c.ID() != id {
			t.Fatalf("Lookup(%q) = %v, %v", id, c, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup accepted an unknown format")
	}
}

// TestBinaryRejectsCorruption walks a valid frame flipping/truncating bytes;
// the decoder must reject or return a document, never panic — and the length
// prefix must catch truncation.
func TestBinaryRejectsCorruption(t *testing.T) {
	data, err := Encode(FormatBinary, testDoc(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := Decode(data[:cut], nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		_, _ = Decode(mut, nil) // must not panic
	}
}

// FuzzCrossFormat round-trips documents through XML <-> binary <->
// compressed <-> delta+base and asserts every path yields the identical
// decoded model (via the XML oracle rendering). This is the satellite
// cross-format compatibility proof: format choice is a transport decision,
// never a semantic one.
func FuzzCrossFormat(f *testing.F) {
	seeds := []string{
		`<?xml version="1.0"?><swapcluster id="c" version="1"></swapcluster>`,
		`<swapcluster id="c &quot;x&quot;" version="1"><object id="1" class="N"><field name="x" kind="int">7</field><field name="f" kind="float">-2.5e3</field><field name="g" kind="bool">true</field></object></swapcluster>`,
		`<swapcluster id="c" version="1"><object id="1" class="N"><field name="r" kind="ref" target="2"/><field name="s" kind="xref" slot="0"/><field name="t" kind="rref" target="9" class="N"/></object></swapcluster>`,
		`<swapcluster id="c" version="1"><object id="1" class="N"><field name="l" kind="list"><item kind="string"> padded </item><item kind="list"><item kind="ref" target="1"/></item></field></object></swapcluster>`,
		`<swapcluster id="c" version="1"><object id="1" class="N"><field name="b" kind="bytes">aGVsbG8=</field><field name="n" kind="nil"/></object></swapcluster>`,
		`<swapcluster id="c" version="1"><object id="1" class="A"/><object id="2" class="B"><field name="p" kind="ref" target="1"/></object></swapcluster>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := xmlcodec.Decode(data)
		if err != nil {
			return // not a valid document; rejection is the XML codec's business
		}
		want, err := doc.Encode()
		if err != nil {
			t.Fatalf("oracle re-encode: %v", err)
		}

		// Every self-contained format must round-trip to the oracle bytes.
		for _, id := range []FormatID{FormatXML, FormatBinary, FormatFlate} {
			enc, err := Encode(id, doc, nil)
			if err != nil {
				t.Fatalf("%s: encode: %v", id, err)
			}
			back, err := Decode(enc, nil)
			if err != nil {
				t.Fatalf("%s: decode: %v", id, err)
			}
			out, err := back.Encode()
			if err != nil {
				t.Fatalf("%s: re-encode: %v", id, err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("%s diverged:\n got:  %s\n want: %s", id, out, want)
			}
		}

		// Third party: the same frames into and out of a heap, no Doc between.
		checkHeapEnds(t, doc, nil)

		// Delta path: ship the whole document as changes against an empty
		// base, and as an empty delta against the full document as base; both
		// must reproduce the model exactly.
		baseEmpty, err := Encode(FormatBinary, &xmlcodec.Doc{ClusterID: "base", Version: doc.Version}, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseFull, err := Encode(FormatFlate, &xmlcodec.Doc{
			ClusterID: "base", Version: doc.Version, Objects: doc.Objects,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fetch := func(bases map[string][]byte) func(string) ([]byte, error) {
			return func(key string) ([]byte, error) {
				p, ok := bases[key]
				if !ok {
					return nil, fmt.Errorf("no base %q", key)
				}
				return p, nil
			}
		}
		deltaKey := doc.ClusterID
		if deltaKey == "base" {
			deltaKey = "base2"
		}
		allChanged := &xmlcodec.Doc{ClusterID: deltaKey, Version: doc.Version, Objects: doc.Objects}
		d1, err := Encode(FormatDelta, allChanged, &EncodeOpts{BaseKey: "base"})
		if err != nil {
			t.Fatalf("delta encode: %v", err)
		}
		b1, err := Decode(d1, &DecodeOpts{FetchBase: fetch(map[string][]byte{"base": baseEmpty})})
		if err != nil {
			t.Fatalf("delta decode: %v", err)
		}
		noChanges := &xmlcodec.Doc{ClusterID: deltaKey, Version: doc.Version}
		d2, err := Encode(FormatDelta, noChanges, &EncodeOpts{BaseKey: "base"})
		if err != nil {
			t.Fatalf("empty delta encode: %v", err)
		}
		b2, err := Decode(d2, &DecodeOpts{FetchBase: fetch(map[string][]byte{"base": baseFull})})
		if err != nil {
			t.Fatalf("empty delta decode: %v", err)
		}
		for i, back := range []*xmlcodec.Doc{b1, b2} {
			back.ClusterID = doc.ClusterID // delta carries its own key by design
			out, err := back.Encode()
			if err != nil {
				t.Fatalf("delta case %d re-encode: %v", i, err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("delta case %d diverged:\n got:  %s\n want: %s", i, out, want)
			}
		}
	})
}

// FuzzDecodeBinary hardens the frame decoder against arbitrary payloads
// (donors are untrusted storage: anything can come back).
func FuzzDecodeBinary(f *testing.F) {
	if seed, err := Encode(FormatBinary, testDoc(2), nil); err == nil {
		f.Add(seed)
	}
	if seed, err := Encode(FormatFlate, testDoc(2), nil); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{magic0, magic1, magic2, frameVersion, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Decode(data, nil)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if _, err := doc.Encode(); err != nil {
			t.Fatalf("accepted document failed to encode: %v", err)
		}
	})
}
