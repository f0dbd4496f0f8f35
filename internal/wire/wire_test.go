package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/store"
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
		// Bit 1 is reserved (an older build's delta flag), alone or beside
		// bit 0; so is every higher bit.
		{[]byte{magic0, magic1, magic2, frameVersion, 0x02, 0x00}, "", false},
		{[]byte{magic0, magic1, magic2, frameVersion, 0x03, 0x00}, "", false},
		{[]byte{magic0, magic1, magic2, frameVersion, 0x80, 0x00}, "", false},
		{[]byte{magic0, magic1, magic2, 99, 0x00, 0x00}, "", false},
	}
	for i, c := range cases {
		got, err := Detect(c.data)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("case %d: got %q, %v", i, got, err)
		}
		if !c.ok && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("case %d: got %q, %v; want ErrBadFrame", i, got, err)
		}
	}
}

// The registry advertises exactly what the in-tree donors accept.
func TestRegistryAdvertisement(t *testing.T) {
	var got []string
	for _, id := range Formats() {
		got = append(got, string(id))
	}
	if want := store.BuiltinFormats; !reflect.DeepEqual(got, want) {
		t.Fatalf("Formats() = %v, store.BuiltinFormats = %v", got, want)
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
// compressed and asserts every path yields the identical decoded model (via
// the XML oracle rendering): format choice is a transport decision, never a
// semantic one. Whatever Detect refuses — a frame with a reserved flag bit
// among it — no decoder accepts either. A binary-family frame handed to
// Stage and refused (with no class registered, every frame with an object
// is) leaves nothing referring to it.
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
	f.Add(reservedFlagFrame(f))
	for _, id := range []FormatID{FormatBinary, FormatFlate} {
		frame, err := Encode(id, testDoc(3), nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-5])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		id, err := Detect(data)
		if err != nil {
			if _, derr := Decode(data, nil); derr == nil {
				t.Fatalf("Detect refused the payload (%v) and Decode accepted it", err)
			}
			if _, serr := Stage(data, heap.NewRegistry()); serr == nil {
				t.Fatalf("Detect refused the payload (%v) and Stage accepted it", err)
			}
		} else if id != FormatXML {
			frame, released := handedOver(data)
			if staged, err := Stage(frame, heap.NewRegistry()); err == nil {
				staged.Release()
			}
			frame = nil
			if !released() {
				t.Fatalf("a %s frame Stage was handed, with no class registered, is still referred to", id)
			}
		}
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
		checkHeapEnds(t, doc)
	})
}

// handedOver copies data into an allocation of its own, to hand over to
// Stage, and returns with it a report of whether the copy is gone once its
// caller has dropped it: after one collection of the Go heap, the copy's
// finalizer runs. One, because a sync.Pool drops what it holds within two:
// a pooled scratch that kept a string of the frame would hold it across the
// first. The copy is never a tiny allocation, whose finalizer need never run.
func handedOver(data []byte) (frame []byte, released func() bool) {
	frame = make([]byte, len(data), max(len(data), 16))
	copy(frame, data)
	gone := make(chan struct{})
	runtime.SetFinalizer(&frame[:1][0], func(*byte) { close(gone) })
	return frame, func() bool {
		runtime.GC()
		select {
		case <-gone:
			return true
		case <-time.After(time.Second):
			return false
		}
	}
}

// reservedFlagFrame is a well-formed binary frame whose flag byte has bit 1
// set, as an older build flagged a delta: every byte after the header would
// parse, and the flag alone must keep it from any codec.
func reservedFlagFrame(tb testing.TB) []byte {
	frame, err := Encode(FormatBinary, testDoc(2), nil)
	if err != nil {
		tb.Fatal(err)
	}
	frame[4] = 0x02
	return frame
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
	f.Add(reservedFlagFrame(f))
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
