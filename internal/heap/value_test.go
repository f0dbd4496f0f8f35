package heap

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
	}{
		{"nil", Nil(), KindNil},
		{"int", Int(42), KindInt},
		{"float", Float(3.5), KindFloat},
		{"bool", Bool(true), KindBool},
		{"string", Str("x"), KindString},
		{"bytes", Bytes([]byte{1, 2}), KindBytes},
		{"ref", Ref(7), KindRef},
		{"list", List(Int(1), Int(2)), KindList},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Kind(); got != tt.kind {
				t.Fatalf("Kind() = %v, want %v", got, tt.kind)
			}
		})
	}
}

func TestValueAccessors(t *testing.T) {
	if got := Int(42).MustInt(); got != 42 {
		t.Errorf("Int round-trip = %d", got)
	}
	if f, err := Float(2.25).Float(); err != nil || f != 2.25 {
		t.Errorf("Float round-trip = %v, %v", f, err)
	}
	if b, err := Bool(true).Bool(); err != nil || !b {
		t.Errorf("Bool round-trip = %v, %v", b, err)
	}
	if s, err := Str("hi").Str(); err != nil || s != "hi" {
		t.Errorf("Str round-trip = %q, %v", s, err)
	}
	raw := []byte{9, 8, 7}
	bv := Bytes(raw)
	raw[0] = 0 // mutation of the source must not leak in
	if got, _ := bv.Bytes(); got[0] != 9 {
		t.Errorf("Bytes not copied on construction: %v", got)
	}
	got, _ := bv.Bytes()
	got[1] = 0 // mutation of the copy must not leak back
	if again, _ := bv.Bytes(); again[1] != 8 {
		t.Errorf("Bytes not copied on access: %v", again)
	}
	if id := Ref(12).MustRef(); id != 12 {
		t.Errorf("Ref round-trip = %d", id)
	}
	if id := Nil().MustRef(); id != NilID {
		t.Errorf("nil Ref = %d, want NilID", id)
	}
}

func TestValueWrongKindErrors(t *testing.T) {
	if _, err := Str("x").Int(); err == nil {
		t.Error("Int() on string: want error")
	}
	if _, err := Int(1).Str(); err == nil {
		t.Error("Str() on int: want error")
	}
	if _, err := Int(1).Ref(); err == nil {
		t.Error("Ref() on int: want error")
	}
	if _, err := Int(1).List(); err == nil {
		t.Error("List() on int: want error")
	}
	if _, err := Str("x").Bytes(); err == nil {
		t.Error("Bytes() on string: want error")
	}
	if _, err := Int(1).Bool(); err == nil {
		t.Error("Bool() on int: want error")
	}
	if _, err := Int(1).Float(); err == nil {
		t.Error("Float() on int: want error")
	}
}

func TestRefNilIDIsNilValue(t *testing.T) {
	if !Ref(NilID).IsNil() {
		t.Error("Ref(NilID) should be the nil value")
	}
	if Ref(NilID).IsRef() {
		t.Error("Ref(NilID) should not report IsRef")
	}
	if !Ref(3).IsRef() {
		t.Error("Ref(3) should report IsRef")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindNil; k <= KindList; k++ {
		got, err := KindFromString(k.String())
		if err != nil {
			t.Fatalf("KindFromString(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round-trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Error("KindFromString(bogus): want error")
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"nils", Nil(), Nil(), true},
		{"ints equal", Int(1), Int(1), true},
		{"ints differ", Int(1), Int(2), false},
		{"kind mismatch", Int(1), Float(1), false},
		{"bools", Bool(true), Bool(true), true},
		{"strings", Str("a"), Str("a"), true},
		{"strings differ", Str("a"), Str("b"), false},
		{"bytes", Bytes([]byte{1}), Bytes([]byte{1}), true},
		{"bytes differ", Bytes([]byte{1}), Bytes([]byte{2}), false},
		{"bytes length", Bytes([]byte{1}), Bytes([]byte{1, 2}), false},
		{"refs", Ref(3), Ref(3), true},
		{"refs differ", Ref(3), Ref(4), false},
		{"lists", List(Int(1), Ref(2)), List(Int(1), Ref(2)), true},
		{"lists differ", List(Int(1)), List(Int(2)), false},
		{"lists length", List(Int(1)), List(Int(1), Int(1)), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Fatalf("Equal = %v, want %v", got, tt.want)
			}
			if got := tt.b.Equal(tt.a); got != tt.want {
				t.Fatalf("Equal not symmetric: %v, want %v", got, tt.want)
			}
		})
	}
}

func TestValueSizeMonotonic(t *testing.T) {
	if Str("aaaa").size() <= Str("").size() {
		t.Error("longer string should account more bytes")
	}
	if Bytes(make([]byte, 64)).size() <= Bytes(nil).size() {
		t.Error("longer bytes should account more bytes")
	}
	if List(Int(1), Int(2)).size() <= List(Int(1)).size() {
		t.Error("longer list should account more bytes")
	}
	if Int(1).size() != valueOverhead {
		t.Errorf("scalar size = %d, want %d", Int(1).size(), valueOverhead)
	}
}

func TestForEachRefTraversesLists(t *testing.T) {
	v := List(Ref(1), Int(9), List(Ref(2), List(Ref(3))), Nil())
	var seen []ObjID
	v.forEachRef(func(id ObjID) { seen = append(seen, id) })
	want := []ObjID{1, 2, 3}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("forEachRef = %v, want %v", seen, want)
	}
}

func TestMapRefsRewritesNested(t *testing.T) {
	v := List(Ref(1), Int(5), List(Ref(2)))
	out := v.MapRefs(func(id ObjID) ObjID { return id + 100 })
	elems, _ := out.List()
	if elems[0].MustRef() != 101 {
		t.Errorf("top-level ref = %v", elems[0])
	}
	inner, _ := elems[2].List()
	if inner[0].MustRef() != 102 {
		t.Errorf("nested ref = %v", inner[0])
	}
	// Original untouched.
	orig, _ := v.List()
	if orig[0].MustRef() != 1 {
		t.Errorf("MapRefs mutated source: %v", orig[0])
	}
	// Mapping to NilID produces nil values.
	gone := v.MapRefs(func(ObjID) ObjID { return NilID })
	ge, _ := gone.List()
	if !ge[0].IsNil() {
		t.Errorf("MapRefs to NilID: got %v, want nil", ge[0])
	}
}

// genValue builds a random Value of bounded depth for property tests.
func genValue(r *rand.Rand, depth int) Value {
	k := r.Intn(8)
	if depth <= 0 && k == 7 {
		k = r.Intn(7)
	}
	switch k {
	case 0:
		return Nil()
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Float(r.NormFloat64())
	case 3:
		return Bool(r.Intn(2) == 0)
	case 4:
		return Str(randString(r))
	case 5:
		b := make([]byte, r.Intn(32))
		r.Read(b)
		return Bytes(b)
	case 6:
		return Ref(ObjID(r.Intn(100) + 1))
	default:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = genValue(r, depth-1)
		}
		return List(elems...)
	}
}

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(16))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// valueBox adapts genValue to testing/quick.
type valueBox struct{ V Value }

func (valueBox) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueBox{V: genValue(r, 3)})
}

func TestPropValueEqualReflexive(t *testing.T) {
	f := func(b valueBox) bool { return b.V.Equal(b.V) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropValueSizeNonNegative(t *testing.T) {
	f := func(b valueBox) bool { return b.V.size() >= valueOverhead }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMapRefsIdentityPreservesEquality(t *testing.T) {
	f := func(b valueBox) bool {
		out := b.V.MapRefs(func(id ObjID) ObjID { return id })
		return out.Equal(b.V)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestValueIsThreeWords pins the Go layout: a kind, one payload word and one
// pointer. Every argument, result and field slot is a Value, so its size is
// what a crossing and a field vector cost in Go memory.
func TestValueIsThreeWords(t *testing.T) {
	if got, want := unsafe.Sizeof(Value{}), 3*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want %d", got, want)
	}
}

var sinkValue Value

// TestValueScalarsAllocateNothing: building, reading and comparing a scalar,
// a string or a reference touches no Go heap.
func TestValueScalarsAllocateNothing(t *testing.T) {
	s := strings.Repeat("x", 40)
	if n := testing.AllocsPerRun(100, func() {
		vals := [...]Value{Nil(), Int(-7), Float(2.5), Bool(true), Str(s), Ref(9)}
		for _, v := range vals {
			if !v.Equal(v) || v.Kind() > KindList || v.Len() > len(s) {
				t.Fatal("scalar did not equal itself")
			}
		}
		_, _ = vals[0].Ref()
		_, _ = vals[1].Int()
		_, _ = vals[2].Float()
		_, _ = vals[3].Bool()
		_, _ = vals[4].Str()
		_ = vals[5].MustRef()
		sinkValue = vals[4]
	}); n != 0 {
		t.Fatalf("scalar constructors, accessors and Equal allocate %.1f objects, want 0", n)
	}
}

// TestValueRoundTripEdges walks the payloads where a packed representation
// could lose information: the int extremes, the float specials (Equal is IEEE
// equality, not bit equality), and every way to spell an empty payload.
func TestValueRoundTripEdges(t *testing.T) {
	for _, i := range []int64{math.MinInt64, math.MaxInt64, -1, 0} {
		if got := Int(i).MustInt(); got != i {
			t.Errorf("Int(%d) reads back %d", i, got)
		}
	}
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64} {
		if got, _ := Float(f).Float(); got != f || !Float(f).Equal(Float(f)) {
			t.Errorf("Float(%v) reads back %v", f, got)
		}
	}
	nan := Float(math.NaN())
	if got, _ := nan.Float(); !math.IsNaN(got) {
		t.Errorf("Float(NaN) reads back %v", got)
	}
	if nan.Equal(nan) {
		t.Error("NaN equals itself; Equal must compare IEEE values")
	}
	negZero := Float(math.Copysign(0, -1))
	if got, _ := negZero.Float(); !math.Signbit(got) {
		t.Error("-0.0 lost its sign")
	}
	if !negZero.Equal(Float(0)) {
		t.Error("-0.0 unequal to +0.0; Equal must compare IEEE values")
	}
	if b, _ := Bool(false).Bool(); b {
		t.Error("Bool(false) reads back true")
	}

	tail := "payload"
	empties := []struct {
		name string
		v    Value
		kind Kind
	}{
		{`Str("")`, Str(""), KindString},
		{"Str of an empty substring at the end", Str(tail[len(tail):]), KindString},
		{"Bytes(nil)", Bytes(nil), KindBytes},
		{"Bytes([]byte{})", Bytes([]byte{}), KindBytes},
		{"List()", List(), KindList},
		{"List of an empty slice", List([]Value{}...), KindList},
		{"MapRefs of List()", List().MapRefs(func(id ObjID) ObjID { return id }), KindList},
	}
	for _, e := range empties {
		if e.v.Kind() != e.kind || e.v.Len() != 0 || e.v.size() != valueOverhead {
			t.Errorf("%s: kind %v, len %d, size %d", e.name, e.v.Kind(), e.v.Len(), e.v.size())
		}
		if e.v.p != nil {
			t.Errorf("%s: zero-length payload keeps a pointer", e.name)
		}
		for _, o := range empties {
			if want := e.kind == o.kind; e.v.Equal(o.v) != want {
				t.Errorf("%s.Equal(%s) = %v, want %v", e.name, o.name, !want, want)
			}
		}
	}
	if s, _ := Str(tail[len(tail):]).Str(); s != "" {
		t.Errorf("empty substring reads back %q", s)
	}
	if b, err := Bytes(nil).Bytes(); err != nil || b == nil || len(b) != 0 {
		t.Errorf("Bytes(nil).Bytes() = %#v, %v; want an empty, non-nil copy", b, err)
	}
	if l, err := List().List(); err != nil || len(l) != 0 {
		t.Errorf("List().List() = %v, %v", l, err)
	}

	// Shared views are exactly as long as their payload: appending to one
	// can never write into a Value.
	if b, _ := Bytes(make([]byte, 5)).BorrowBytes(); len(b) != 5 || cap(b) != 5 {
		t.Errorf("BorrowBytes: len %d cap %d, want 5 5", len(b), cap(b))
	}
	if l, _ := List(Int(1), Int(2), Int(3)).List(); len(l) != 3 || cap(l) != 3 {
		t.Errorf("List(): len %d cap %d, want 3 3", len(l), cap(l))
	}
	if l, _ := List(Ref(1), Ref(2), Ref(3)).MapRefs(func(id ObjID) ObjID { return id }).List(); cap(l) != 3 {
		t.Errorf("MapRefs list: cap %d, want 3", cap(l))
	}

	// Nested lists, with empties and payloads among the references.
	nested := List(Ref(1), List(), Bytes([]byte{7}), List(Str(""), List(Ref(2), Float(math.Inf(-1)))), Ref(3))
	var seen []ObjID
	nested.forEachRef(func(id ObjID) { seen = append(seen, id) })
	if !reflect.DeepEqual(seen, []ObjID{1, 2, 3}) {
		t.Errorf("forEachRef over nested lists = %v", seen)
	}
	shifted := nested.MapRefs(func(id ObjID) ObjID { return id * 10 })
	seen = seen[:0]
	shifted.forEachRef(func(id ObjID) { seen = append(seen, id) })
	if !reflect.DeepEqual(seen, []ObjID{10, 20, 30}) {
		t.Errorf("forEachRef after MapRefs = %v", seen)
	}
	if back := shifted.MapRefs(func(id ObjID) ObjID { return id / 10 }); !back.Equal(nested) {
		t.Errorf("MapRefs there and back = %v, want %v", back, nested)
	}
	if shifted.size() != nested.size() {
		t.Errorf("MapRefs changed the accounted size: %d vs %d", shifted.size(), nested.size())
	}
}

// heldOnlyByValues builds Values whose string, bytes and list data nothing
// else references, and returns the payloads they must read back.
//
//go:noinline
func heldOnlyByValues() ([]Value, []string) {
	var vals []Value
	var want []string
	for i := 0; i < 32; i++ {
		s := strings.Repeat(string(rune('a'+i%26)), 512+i)
		mid := s[100:300] // an interior pointer into the string's allocation
		b := []byte(strings.Repeat(string(rune('A'+i%26)), 256+i))
		vals = append(vals, Str(mid), Bytes(b), List(Str(strings.ToUpper(mid)), Bytes(b[:17])))
		want = append(want, strings.Clone(mid), string(b))
	}
	return vals, want
}

// TestValueDataSurvivesGC: a Value's pointer is its only hold on its data, and
// the collector must see it — the payloads read back intact after two
// collections with fresh garbage written over whatever was freed.
func TestValueDataSurvivesGC(t *testing.T) {
	vals, want := heldOnlyByValues()
	for round := 0; round < 2; round++ {
		runtime.GC()
		for i := 0; i < 4096; i++ { // the freed payloads' size classes, reused
			sinkBytes = bytes.Repeat([]byte{0xFF}, 256+i%32)
			sinkBytes = bytes.Repeat([]byte{0xFF}, 512+i%32)
		}
	}
	for i := 0; i < len(vals); i += 3 {
		s, _ := vals[i].Str()
		b, _ := vals[i+1].BorrowBytes()
		l, _ := vals[i+2].List()
		mid, blob := want[i/3*2], want[i/3*2+1]
		if s != mid || string(b) != blob {
			t.Fatalf("value %d: payload changed after collection", i/3)
		}
		up, _ := l[0].Str()
		tail, _ := l[1].BorrowBytes()
		if up != strings.ToUpper(mid) || string(tail) != blob[:17] {
			t.Fatalf("list %d: elements changed after collection", i/3)
		}
	}
}

var sinkBytes []byte
