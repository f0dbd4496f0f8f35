package xmlcodec

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"objectswap/internal/heap"
)

func testClasses() (*heap.Registry, *heap.Class) {
	reg := heap.NewRegistry()
	node := heap.NewClass("Node",
		heap.FieldDef{Name: "payload", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
		heap.FieldDef{Name: "tag", Kind: heap.KindInt},
		heap.FieldDef{Name: "label", Kind: heap.KindString},
		heap.FieldDef{Name: "weight", Kind: heap.KindFloat},
		heap.FieldDef{Name: "flag", Kind: heap.KindBool},
		heap.FieldDef{Name: "links", Kind: heap.KindList},
	)
	reg.MustRegister(node)
	return reg, node
}

// internalOnly encodes every reference as internal.
func internalOnly(id heap.ObjID) (Value, error) { return InternalRef(id), nil }

func TestRoundTripFullGraph(t *testing.T) {
	reg, node := testClasses()
	src := heap.New(0)
	a, _ := src.New(node)
	b, _ := src.New(node)
	a.MustSet("payload", heap.Bytes([]byte{0, 1, 2, 254, 255})).
		MustSet("next", b.RefTo()).
		MustSet("tag", heap.Int(-12345)).
		MustSet("label", heap.Str("héllo <xml> & \"quotes\"")).
		MustSet("weight", heap.Float(2.718281828)).
		MustSet("flag", heap.Bool(true)).
		MustSet("links", heap.List(b.RefTo(), heap.Int(7), heap.List(a.RefTo())))
	b.MustSet("next", a.RefTo()).MustSet("label", heap.Str("  padded  "))

	doc, err := EncodeObjects("c1", []*heap.Object{a, b}, internalOnly)
	if err != nil {
		t.Fatal(err)
	}
	data, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<swapcluster") {
		t.Fatalf("unexpected wire form:\n%s", data)
	}

	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ClusterID != "c1" || len(back.Objects) != 2 {
		t.Fatalf("decoded doc = %+v", back)
	}

	dst := heap.New(0)
	installed, err := back.Install(dst, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if installed != 2 {
		t.Fatalf("installed %d objects", installed)
	}
	ra, err := dst.Get(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := dst.Get(b.ID())
	for i := 0; i < node.NumFields(); i++ {
		if !ra.Field(i).Equal(a.Field(i)) {
			t.Errorf("field %s differs: %v vs %v", node.Field(i).Name, ra.Field(i), a.Field(i))
		}
	}
	lbl, _ := rb.FieldByName("label")
	if s, err := lbl.Str(); err != nil || s != "  padded  " {
		t.Errorf("padded string not preserved: %q, %v", s, err)
	}
}

func TestRoundTripSlotAndRemoteRefs(t *testing.T) {
	reg, node := testClasses()
	src := heap.New(0)
	a, _ := src.New(node)
	a.MustSet("next", heap.Ref(777)). // will encode as slot 3
						MustSet("links", heap.List(heap.Ref(888))) // will encode as remote

	enc := func(id heap.ObjID) (Value, error) {
		switch id {
		case 777:
			return SlotRef(3), nil
		case 888:
			return RemoteRef(888), nil
		default:
			return InternalRef(id), nil
		}
	}
	doc, err := EncodeObjects("c2", []*heap.Object{a}, enc)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := doc.Encode()
	if !strings.Contains(string(data), `kind="xref"`) || !strings.Contains(string(data), `kind="rref"`) {
		t.Fatalf("wire missing xref/rref:\n%s", data)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	dst := heap.New(0)
	var sawSlot, sawRemote bool
	dec := func(v Value) (heap.Value, error) {
		switch v.RefClass {
		case RefSlot:
			sawSlot = v.Slot == 3
			return heap.Nil(), nil
		case RefRemote:
			sawRemote = v.Target == 888
			return heap.Nil(), nil
		}
		return heap.Nil(), errors.New("unexpected")
	}
	if _, err := back.Install(dst, reg, dec); err != nil {
		t.Fatal(err)
	}
	if !sawSlot || !sawRemote {
		t.Fatalf("decoder callbacks: slot=%v remote=%v", sawSlot, sawRemote)
	}
}

func TestInstallRejectsNonMemberInternalRef(t *testing.T) {
	reg, node := testClasses()
	src := heap.New(0)
	a, _ := src.New(node)
	a.MustSet("next", heap.Ref(4242)) // not in the doc
	doc, err := EncodeObjects("bad", []*heap.Object{a}, internalOnly)
	if err != nil {
		t.Fatal(err)
	}
	dst := heap.New(0)
	if _, err := doc.Install(dst, reg, nil); !errors.Is(err, ErrBadDocument) {
		t.Fatalf("install: got %v, want ErrBadDocument", err)
	}
}

func TestInstallUnknownClass(t *testing.T) {
	_, node := testClasses()
	src := heap.New(0)
	a, _ := src.New(node)
	doc, _ := EncodeObjects("c", []*heap.Object{a}, internalOnly)
	empty := heap.NewRegistry()
	dst := heap.New(0)
	if _, err := doc.Install(dst, empty, nil); !errors.Is(err, heap.ErrUnknownClass) {
		t.Fatalf("install: got %v, want ErrUnknownClass", err)
	}
}

func TestInstallCollisionWithResident(t *testing.T) {
	reg, node := testClasses()
	src := heap.New(0)
	a, _ := src.New(node)
	doc, _ := EncodeObjects("c", []*heap.Object{a}, internalOnly)
	dst := heap.New(0)
	if _, err := dst.NewAt(a.ID(), node); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Install(dst, reg, nil); err == nil {
		t.Fatal("install over resident id: want error")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not xml":     "}{",
		"bad version": `<swapcluster id="x" version="99"></swapcluster>`,
		"nil obj id":  `<swapcluster id="x" version="1"><object id="0" class="Node"></object></swapcluster>`,
		"no class":    `<swapcluster id="x" version="1"><object id="1"></object></swapcluster>`,
		"bad int":     `<swapcluster id="x" version="1"><object id="1" class="Node"><field name="tag" kind="int">zz</field></object></swapcluster>`,
		"bad kind":    `<swapcluster id="x" version="1"><object id="1" class="Node"><field name="tag" kind="wat">1</field></object></swapcluster>`,
		"bad target":  `<swapcluster id="x" version="1"><object id="1" class="Node"><field name="next" kind="ref" target="zz"/></object></swapcluster>`,
		"bad slot":    `<swapcluster id="x" version="1"><object id="1" class="Node"><field name="next" kind="xref" slot="zz"/></object></swapcluster>`,
		"bad b64":     `<swapcluster id="x" version="1"><object id="1" class="Node"><field name="payload" kind="bytes">!!</field></object></swapcluster>`,
		"bad float":   `<swapcluster id="x" version="1"><object id="1" class="Node"><field name="weight" kind="float">zz</field></object></swapcluster>`,
		"bad bool":    `<swapcluster id="x" version="1"><object id="1" class="Node"><field name="flag" kind="bool">zz</field></object></swapcluster>`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode([]byte(body)); err == nil {
				t.Fatalf("Decode accepted %s", name)
			}
		})
	}
}

func TestDecodeToleratesPrettyPrintedWhitespace(t *testing.T) {
	body := `<?xml version="1.0" encoding="UTF-8"?>
<swapcluster id="c9" version="1">
  <object id="5" class="Node">
    <field name="tag" kind="int">
      42
    </field>
    <field name="links" kind="list">
      <item kind="int">1</item>
      <item kind="list">
        <item kind="ref" target="5"/>
      </item>
    </field>
  </object>
</swapcluster>`
	doc, err := Decode([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Objects[0].Fields[0].Value.I != 42 {
		t.Fatalf("whitespace-padded int mis-decoded: %+v", doc.Objects[0].Fields[0].Value)
	}
	list := doc.Objects[0].Fields[1].Value
	if len(list.List) != 2 || list.List[1].List[0].Target != 5 {
		t.Fatalf("nested list mis-decoded: %+v", list)
	}
}

func TestEncodeRefWithoutEncoder(t *testing.T) {
	var v Value
	if err := fromHeapValue(&v, heap.Ref(1), nil, nil); err == nil {
		t.Fatal("want error for ref without encoder")
	}
	if _, err := (Value{Kind: heap.KindRef, RefClass: RefSlot}).ToHeapValue(nil); err == nil {
		t.Fatal("want error for slot ref without decoder")
	}
}

func TestNilRefsEncodeAsNil(t *testing.T) {
	var v Value
	err := fromHeapValue(&v, heap.Nil(), nil, nil)
	if err != nil || v.Kind != heap.KindNil {
		t.Fatalf("nil encode = %+v, %v", v, err)
	}
	hv, err := v.ToHeapValue(nil)
	if err != nil || !hv.IsNil() {
		t.Fatalf("nil decode = %v, %v", hv, err)
	}
}

// Property: any randomly generated object graph round-trips through
// encode → XML → decode → install with identical field values and edges.
func TestPropGraphRoundTrip(t *testing.T) {
	reg, node := testClasses()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := heap.New(0)
		n := 1 + r.Intn(12)
		objs := make([]*heap.Object, n)
		for i := range objs {
			objs[i], _ = src.New(node)
		}
		for _, o := range objs {
			if r.Intn(2) == 0 {
				o.MustSet("next", objs[r.Intn(n)].RefTo())
			}
			payload := make([]byte, r.Intn(48))
			r.Read(payload)
			o.MustSet("payload", heap.Bytes(payload)).
				MustSet("tag", heap.Int(r.Int63()-r.Int63())).
				MustSet("label", heap.Str(randLabel(r))).
				MustSet("weight", heap.Float(r.NormFloat64())).
				MustSet("flag", heap.Bool(r.Intn(2) == 0))
			if r.Intn(3) == 0 {
				o.MustSet("links", heap.List(objs[r.Intn(n)].RefTo(), heap.Int(int64(r.Intn(9)))))
			}
		}
		doc, err := EncodeObjects("p", objs, internalOnly)
		if err != nil {
			return false
		}
		data, err := doc.Encode()
		if err != nil {
			return false
		}
		back, err := Decode(data)
		if err != nil {
			return false
		}
		dst := heap.New(0)
		if _, err := back.Install(dst, reg, nil); err != nil {
			return false
		}
		for _, o := range objs {
			ro, err := dst.Get(o.ID())
			if err != nil {
				return false
			}
			for i := 0; i < node.NumFields(); i++ {
				if !ro.Field(i).Equal(o.Field(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func randLabel(r *rand.Rand) string {
	const alphabet = "abc <>&\"'\t xyz"
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}
