// Package heap implements the managed object runtime that stands in for the
// JVM / .NET Compact Framework substrate of the OBIWAN middleware.
//
// The paper's Object-Swapping mechanism is pure user-level code, but it runs
// inside a managed runtime whose essential properties Go does not natively
// provide: dynamic proxy classes, the ability to detach reachable objects so
// the collector reclaims them, weak references with finalizers, and byte-level
// heap accounting on a constrained device. This package supplies those
// properties with an explicit object model:
//
//   - Class — a named type with field definitions and a method table (the
//     moral equivalent of obicomp-processed application classes);
//   - Object — an instance with a field vector of Values;
//   - Heap — a byte-accounted store of objects with named roots
//     (swap-cluster-0 state), pins for middleware-held references, a
//     mark-sweep local garbage collector, weak references and finalizers.
//
// Cross-object interaction happens through an Invoker, so a middleware layer
// (internal/core) can interpose swap-cluster-proxies; DirectRuntime is the
// interposition-free implementation used as the paper's "NO SWAP-CLUSTERS"
// lower bound.
package heap

import (
	"errors"
	"fmt"
	"strconv"
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

// String returns the lowercase kind name used in XML wrappers.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindRef:
		return "ref"
	case KindList:
		return "list"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// KindFromString parses the names produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "nil":
		return KindNil, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "bool":
		return KindBool, nil
	case "string":
		return KindString, nil
	case "bytes":
		return KindBytes, nil
	case "ref":
		return KindRef, nil
	case "list":
		return KindList, nil
	default:
		return KindNil, fmt.Errorf("heap: unknown kind %q", s)
	}
}

// ErrBadKind reports a Value accessed as the wrong kind.
var ErrBadKind = errors.New("heap: value has different kind")

// Value is a dynamically-typed slot: a primitive, a reference to a managed
// object, or a list of Values. Values are immutable; mutate objects by
// assigning new Values into fields.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    []byte
	ref  ObjID
	list []Value
}

// Nil returns the nil Value.
func Nil() Value { return Value{} }

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool returns a boolean Value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Str returns a string Value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Bytes returns a byte-slice Value. The slice is copied so later caller
// mutation cannot corrupt heap accounting.
func Bytes(b []byte) Value {
	cp := make([]byte, len(b))
	copy(cp, b)
	return Value{kind: KindBytes, b: cp}
}

// Ref returns a reference Value. Ref(NilID) is the nil Value.
func Ref(id ObjID) Value {
	if id == NilID {
		return Nil()
	}
	return Value{kind: KindRef, ref: id}
}

// List returns a list Value holding the given elements. The slice is copied.
func List(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return Value{kind: KindList, list: cp}
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
	return v.i, nil
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
	return v.f, nil
}

// Bool returns the boolean payload, or an error for other kinds.
func (v Value) Bool() (bool, error) {
	if v.kind != KindBool {
		return false, fmt.Errorf("%w: want bool, have %s", ErrBadKind, v.kind)
	}
	return v.i != 0, nil
}

// Str returns the string payload, or an error for other kinds.
func (v Value) Str() (string, error) {
	if v.kind != KindString {
		return "", fmt.Errorf("%w: want string, have %s", ErrBadKind, v.kind)
	}
	return v.s, nil
}

// Bytes returns a copy of the byte payload, or an error for other kinds.
func (v Value) Bytes() ([]byte, error) {
	if v.kind != KindBytes {
		return nil, fmt.Errorf("%w: want bytes, have %s", ErrBadKind, v.kind)
	}
	cp := make([]byte, len(v.b))
	copy(cp, v.b)
	return cp, nil
}

// BorrowBytes returns the byte payload itself (shared, treat as read-only),
// or an error for other kinds. Serialization uses it to copy a payload once,
// into the frame, instead of twice.
func (v Value) BorrowBytes() ([]byte, error) {
	if v.kind != KindBytes {
		return nil, fmt.Errorf("%w: want bytes, have %s", ErrBadKind, v.kind)
	}
	return v.b, nil
}

// BytesLen returns the length of a bytes payload without copying, or 0.
func (v Value) BytesLen() int { return len(v.b) }

// Ref returns the referenced ObjID. Nil values yield NilID; non-reference
// kinds return an error.
func (v Value) Ref() (ObjID, error) {
	switch v.kind {
	case KindNil:
		return NilID, nil
	case KindRef:
		return v.ref, nil
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
	return v.list, nil
}

// Len returns the number of elements of a list, bytes or string value, and 0
// for any other kind.
func (v Value) Len() int {
	switch v.kind {
	case KindList:
		return len(v.list)
	case KindBytes:
		return len(v.b)
	case KindString:
		return len(v.s)
	default:
		return 0
	}
}

// Equal reports deep structural equality: same kind and same payload.
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
	case KindInt, KindBool:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f
	case KindString:
		return v.s == o.s
	case KindBytes:
		if len(v.b) != len(o.b) {
			return false
		}
		for i := range v.b {
			if v.b[i] != o.b[i] {
				return false
			}
		}
		return true
	case KindRef:
		return v.ref == o.ref
	case KindList:
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if !v.list[i].Equal(o.list[i]) {
				return false
			}
		}
		return true
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
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.i != 0)
	case KindString:
		return strconv.Quote(v.s)
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.b))
	case KindRef:
		return fmt.Sprintf("@%d", v.ref)
	case KindList:
		return fmt.Sprintf("list[%d]", len(v.list))
	default:
		return "?"
	}
}

// valueOverhead approximates the fixed in-memory cost of one Value slot on a
// constrained device (tag + payload word + slice header amortization).
const valueOverhead = 16

// size returns the accounted byte size of the value, including variable
// payloads. Reference values cost only the slot: the referenced object is
// accounted separately.
func (v Value) size() int64 {
	switch v.kind {
	case KindString:
		return valueOverhead + int64(len(v.s))
	case KindBytes:
		return valueOverhead + int64(len(v.b))
	case KindList:
		sz := int64(valueOverhead)
		for _, e := range v.list {
			sz += e.size()
		}
		return sz
	default:
		return valueOverhead
	}
}

// forEachRef visits every object reference contained in the value, including
// references nested in lists.
func (v Value) forEachRef(visit func(ObjID)) {
	switch v.kind {
	case KindRef:
		visit(v.ref)
	case KindList:
		for _, e := range v.list {
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
		return Ref(fn(v.ref))
	case KindList:
		out := make([]Value, len(v.list))
		for i, e := range v.list {
			out[i] = e.MapRefs(fn)
		}
		return Value{kind: KindList, list: out}
	default:
		return v
	}
}
