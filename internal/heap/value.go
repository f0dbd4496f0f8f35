// Package heap implements the managed object runtime that stands in for the
// JVM / .NET Compact Framework substrate of the OBIWAN middleware.
//
// The paper's Object-Swapping mechanism is pure user-level code, but it runs
// inside a managed runtime whose essential properties Go does not natively
// provide: dynamic proxy classes, the ability to detach reachable objects so
// the collector reclaims them, a report of what the collector reclaimed, and
// byte-level heap accounting on a constrained device. This package supplies
// those properties with an explicit object model:
//
//   - Class — a named type with field definitions and a method table (the
//     moral equivalent of obicomp-processed application classes);
//   - Object — an instance with a field vector of Values;
//   - Heap — a byte-accounted store of objects with named roots
//     (swap-cluster-0 state), pins for middleware-held references, and a
//     mark-sweep local garbage collector that hands its owner's purge
//     every object a pass reclaimed (Owner).
//
// Cross-object interaction happens through an Invoker, so a middleware layer
// (internal/core) can interpose swap-cluster-proxies; DirectRuntime is the
// interposition-free implementation used as the paper's "NO SWAP-CLUSTERS"
// lower bound.
package heap

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unsafe"
)

// ObjID identifies a managed object within one Heap. IDs are never reused, so
// an ID remains a stable name for an object across swap-out and reload.
// The zero ObjID is the nil reference.
type ObjID uint64

// NilID is the null object reference.
const NilID ObjID = 0

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

// Value kinds. KindNil is deliberately the zero value so that a zero Value is
// a valid nil.
const (
	KindNil Kind = iota
	KindInt
	KindFloat
	KindBool
	KindString
	KindBytes
	KindRef
	KindList
)

// kindNames are the lowercase kind names used in XML wrappers.
var kindNames = [...]string{KindNil: "nil", KindInt: "int", KindFloat: "float", KindBool: "bool",
	KindString: "string", KindBytes: "bytes", KindRef: "ref", KindList: "list"}

// String returns the lowercase kind name used in XML wrappers.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// KindFromString parses the names produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	if i := slices.Index(kindNames[:], s); i >= 0 {
		return Kind(i), nil
	}
	return KindNil, fmt.Errorf("heap: unknown kind %q", s)
}

// ErrBadKind reports a Value accessed as the wrong kind.
var ErrBadKind = errors.New("heap: value has different kind")

// Value is a dynamically-typed slot: a primitive, a reference to a managed
// object, or a list of Values. Values are immutable; mutate objects by
// assigning new Values into fields.
//
// A Value is three words: the kind, one payload word n and one pointer p. n
// holds the int, the bool, the float's IEEE bits, the ObjID, or the length of
// the string, bytes or list data p points at. A zero-length payload has p ==
// nil, so p never points one past the end of an allocation. This file is the
// only one that imports unsafe, and outside package heap a Value is read only
// through its accessors.
type Value struct {
	_    [0]func() // not comparable: == would compare p, not the payload; use Equal
	kind Kind
	n    uint64
	p    unsafe.Pointer
}

// Nil returns the nil Value.
func Nil() Value { return Value{} }

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// Bool returns a boolean Value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Str returns a string Value.
func Str(s string) Value {
	if len(s) == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// HandOver returns b's bytes as a string that shares b's storage instead of
// copying it. The caller hands b over: it owns b whole, and neither it nor
// anyone else writes to b again, so the string stays as immutable as Go
// requires. b lives as long as any string sliced from the result. wire.Stage
// uses it to make a fetched frame's string section the storage of the strings
// it installs.
func HandOver(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Bytes returns a byte-slice Value. The slice is copied so later caller
// mutation cannot corrupt heap accounting.
func Bytes(b []byte) Value {
	if len(b) == 0 {
		return Value{kind: KindBytes}
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return Value{kind: KindBytes, n: uint64(len(cp)), p: unsafe.Pointer(unsafe.SliceData(cp))}
}

// Ref returns a reference Value. Ref(NilID) is the nil Value.
func Ref(id ObjID) Value {
	if id == NilID {
		return Nil()
	}
	return Value{kind: KindRef, n: uint64(id)}
}

// List returns a list Value holding the given elements. The slice is copied.
func List(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return ownList(cp)
}

// ownList wraps elems, which the caller hands over, as a list Value. The list
// is read through a cap == len view, so spare capacity is never exposed.
func ownList(elems []Value) Value {
	if len(elems) == 0 {
		return Value{kind: KindList}
	}
	return Value{kind: KindList, n: uint64(len(elems)), p: unsafe.Pointer(unsafe.SliceData(elems))}
}

// str views string or bytes data as a string; callers check the kind.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.n)) }

// bytes views bytes data as a slice with cap == len; callers check the kind.
func (v Value) bytes() []byte { return unsafe.Slice((*byte)(v.p), int(v.n)) }

// elems views list data as a slice with cap == len; callers check the kind.
func (v Value) elems() []Value { return unsafe.Slice((*Value)(v.p), int(v.n)) }

// offset reports whether s starts inside buf's backing array and, if so, at
// which element: the one pointer-range check that tells Frames a slice of
// values already lives in a frame's arena (a result being kept, or a previous
// result passed back as arguments).
func offset(s, buf []Value) (int, bool) {
	if len(s) == 0 || cap(buf) == 0 {
		return 0, false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	if p < lo || p >= lo+uintptr(cap(buf))*unsafe.Sizeof(Value{}) {
		return 0, false
	}
	return int((p - lo) / unsafe.Sizeof(Value{})), true
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is nil.
func (v Value) IsNil() bool { return v.kind == KindNil }

// IsRef reports whether the value is a non-nil object reference.
func (v Value) IsRef() bool { return v.kind == KindRef }

// Int returns the integer payload, or an error for other kinds.
func (v Value) Int() (int64, error) {
	if v.kind != KindInt {
		return 0, fmt.Errorf("%w: want int, have %s", ErrBadKind, v.kind)
	}
	return int64(v.n), nil
}

// MustInt is Int for values known to be integers; it panics otherwise.
func (v Value) MustInt() int64 {
	i, err := v.Int()
	if err != nil {
		panic(err)
	}
	return i
}

// Float returns the float payload, or an error for other kinds.
func (v Value) Float() (float64, error) {
	if v.kind != KindFloat {
		return 0, fmt.Errorf("%w: want float, have %s", ErrBadKind, v.kind)
	}
	return math.Float64frombits(v.n), nil
}

// Bool returns the boolean payload, or an error for other kinds.
func (v Value) Bool() (bool, error) {
	if v.kind != KindBool {
		return false, fmt.Errorf("%w: want bool, have %s", ErrBadKind, v.kind)
	}
	return v.n != 0, nil
}

// Str returns the string payload, or an error for other kinds.
func (v Value) Str() (string, error) {
	if v.kind != KindString {
		return "", fmt.Errorf("%w: want string, have %s", ErrBadKind, v.kind)
	}
	return v.str(), nil
}

// Bytes returns a copy of the byte payload, or an error for other kinds.
func (v Value) Bytes() ([]byte, error) {
	if v.kind != KindBytes {
		return nil, fmt.Errorf("%w: want bytes, have %s", ErrBadKind, v.kind)
	}
	cp := make([]byte, v.n)
	copy(cp, v.bytes())
	return cp, nil
}

// BorrowBytes returns the byte payload itself (shared, treat as read-only),
// or an error for other kinds. Serialization uses it to copy a payload once,
// into the frame, instead of twice.
func (v Value) BorrowBytes() ([]byte, error) {
	if v.kind != KindBytes {
		return nil, fmt.Errorf("%w: want bytes, have %s", ErrBadKind, v.kind)
	}
	return v.bytes(), nil
}

// BytesLen returns the length of a bytes payload without copying, or 0.
func (v Value) BytesLen() int {
	if v.kind != KindBytes {
		return 0
	}
	return int(v.n)
}

// Ref returns the referenced ObjID. Nil values yield NilID; non-reference
// kinds return an error.
func (v Value) Ref() (ObjID, error) {
	switch v.kind {
	case KindNil:
		return NilID, nil
	case KindRef:
		return ObjID(v.n), nil
	default:
		return NilID, fmt.Errorf("%w: want ref, have %s", ErrBadKind, v.kind)
	}
}

// MustRef is Ref for values known to be references; it panics otherwise.
func (v Value) MustRef() ObjID {
	id, err := v.Ref()
	if err != nil {
		panic(err)
	}
	return id
}

// List returns the element slice (shared, treat as read-only), or an error
// for other kinds.
func (v Value) List() ([]Value, error) {
	if v.kind != KindList {
		return nil, fmt.Errorf("%w: want list, have %s", ErrBadKind, v.kind)
	}
	return v.elems(), nil
}

// Len returns the number of elements of a list, bytes or string value, and 0
// for any other kind.
func (v Value) Len() int {
	switch v.kind {
	case KindList, KindBytes, KindString:
		return int(v.n)
	default:
		return 0
	}
}

// Equal reports deep structural equality: same kind and same payload. Floats
// compare as IEEE values (NaN is unequal to itself, -0 equals +0), not as bits.
// Reference values compare by ObjID — this is raw pointer identity, NOT the
// paper's application-level identity across swap-cluster-proxies (see
// core.Runtime.RefEqual for that).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindInt, KindBool, KindRef:
		return v.n == o.n
	case KindFloat:
		return math.Float64frombits(v.n) == math.Float64frombits(o.n)
	case KindString, KindBytes:
		return v.str() == o.str()
	case KindList:
		return slices.EqualFunc(v.elems(), o.elems(), Value.Equal)
	default:
		return false
	}
}

// String renders the value for debugging.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	case KindString:
		return strconv.Quote(v.str())
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", v.n)
	case KindRef:
		return fmt.Sprintf("@%d", v.n)
	case KindList:
		return fmt.Sprintf("list[%d]", v.n)
	default:
		return "?"
	}
}

// valueOverhead is the fixed cost of one Value slot on the modelled
// constrained device (tag + payload word + slice header amortization). It is
// the device's slot, not Go's: the Go layout of Value may change without
// moving a single accounted byte, and with it heap pressure, eviction order
// and every swap count.
const valueOverhead = 16

// size returns the accounted byte size of the value, including variable
// payloads. Reference values cost only the slot: the referenced object is
// accounted separately.
func (v Value) size() int64 {
	switch v.kind {
	case KindString, KindBytes:
		return valueOverhead + int64(v.n)
	case KindList:
		return v.listSize()
	default:
		return valueOverhead
	}
}

// listSize is size for a list, kept apart so that size, which every
// allocation and field write runs per value, is inlined where it is called.
func (v Value) listSize() int64 {
	sz := int64(valueOverhead)
	for _, e := range v.elems() {
		sz += e.size()
	}
	return sz
}

// forEachRef visits every object reference contained in the value, including
// references nested in lists.
func (v Value) forEachRef(visit func(ObjID)) {
	switch v.kind {
	case KindRef:
		visit(ObjID(v.n))
	case KindList:
		for _, e := range v.elems() {
			e.forEachRef(visit)
		}
	}
}

// MapRefs returns a copy of v with every contained reference id rewritten by
// fn (including references inside lists). Non-reference values are returned
// unchanged. fn returning NilID produces a nil Value in place of the ref.
func (v Value) MapRefs(fn func(ObjID) ObjID) Value {
	switch v.kind {
	case KindRef:
		return Ref(fn(ObjID(v.n)))
	case KindList:
		in := v.elems()
		out := make([]Value, len(in))
		for i, e := range in {
			out[i] = e.MapRefs(fn)
		}
		return ownList(out)
	default:
		return v
	}
}
