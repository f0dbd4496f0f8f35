package heap

import (
	"fmt"
	"sync/atomic"
)

// objectOverhead approximates the fixed header cost of one managed object on
// a constrained device (id, class pointer, field-vector header).
const objectOverhead = 32

// Object is one managed instance. Objects are created through Heap.New and
// live until the local collector reclaims them (or Heap.Remove detaches them
// explicitly).
//
// Field access is not synchronized between application goroutines: one heap
// serves one logical device whose application code is single-threaded, as on
// the paper's Pocket PC prototype. Heap-level bookkeeping (allocation, roots,
// GC) is internally synchronized, and a field write holds the heap lock
// shared, so the collector — which may run on a background swap-in's behalf —
// never scans or frees an object mid-write.
type Object struct {
	id    ObjID
	class *Class
	heap  *Heap

	fields []Value
	size   int64
	// mark is the collector's epoch word (see Heap.epoch); touched only
	// under the heap lock held exclusively.
	mark uint64
}

// ID returns the object's stable identifier.
func (o *Object) ID() ObjID { return o.id }

// Class returns the object's class.
func (o *Object) Class() *Class { return o.class }

// Size returns the currently accounted byte size of the object.
func (o *Object) Size() int64 { return atomic.LoadInt64(&o.size) }

// NumFields returns the number of field slots.
func (o *Object) NumFields() int { return len(o.fields) }

// Field returns the i-th field value.
func (o *Object) Field(i int) Value {
	return o.fields[i]
}

// FieldByName returns the named field's value.
func (o *Object) FieldByName(name string) (Value, error) {
	i, ok := o.class.FieldIndex(name)
	if !ok {
		return Nil(), fmt.Errorf("%w: %s.%s", ErrNoSuchField, o.class.Name, name)
	}
	return o.fields[i], nil
}

// SetField assigns the i-th field, adjusting heap accounting for
// variable-sized payloads. It fails with ErrOutOfMemory when growth would
// exceed heap capacity, and with ErrBadKind when the value kind does not
// match the declaration (nil is assignable to ref, list, string and bytes
// fields).
func (o *Object) SetField(i int, v Value) error {
	def := o.class.Field(i)
	if !assignable(def.Kind, v.Kind()) {
		return fmt.Errorf("%w: field %s.%s is %s, assigning %s",
			ErrBadKind, o.class.Name, def.Name, def.Kind, v.Kind())
	}
	// Accounting and the slot store form one unit against the collector:
	// a sweep or Free sees the object's size and the budget agree.
	o.heap.mu.RLock()
	delta := v.size() - o.fields[i].size()
	if delta > 0 {
		if err := o.heap.reserve(delta); err != nil {
			o.heap.mu.RUnlock()
			return err
		}
	} else if delta < 0 {
		o.heap.release(-delta)
	}
	atomic.AddInt64(&o.size, delta)
	o.fields[i] = v
	o.heap.mu.RUnlock()
	o.heap.observeWrite(o.id)
	return nil
}

// SetFieldByName assigns the named field.
func (o *Object) SetFieldByName(name string, v Value) error {
	i, ok := o.class.FieldIndex(name)
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchField, o.class.Name, name)
	}
	return o.SetField(i, v)
}

// MustSet assigns the named field and panics on error; it is a convenience
// for graph construction in tests, benchmarks and examples.
func (o *Object) MustSet(name string, v Value) *Object {
	if err := o.SetFieldByName(name, v); err != nil {
		panic(err)
	}
	return o
}

// RefTo returns a reference Value designating this object.
func (o *Object) RefTo() Value { return Ref(o.id) }

// EachField visits every declared field in slot order through the class's
// behavior plane. The walk never allocates — generated ops iterate a static
// layout, defaultOps walks the declaration slice — so serialization can
// traverse an object without per-field lookups.
func (o *Object) EachField(visit func(slot int, def FieldDef, v Value) bool) {
	o.class.ops.EachField(o, visit)
}

// forEachRef visits every reference held in the object's fields.
func (o *Object) forEachRef(visit func(ObjID)) {
	for _, f := range o.fields {
		f.forEachRef(visit)
	}
}

// String renders a compact description for debugging.
func (o *Object) String() string {
	return fmt.Sprintf("%s@%d", o.class.Name, o.id)
}

// assignable reports whether a value of kind v may occupy a field declared as
// kind f. Nil is assignable to every non-primitive slot; primitives require
// an exact kind match.
func assignable(f, v Kind) bool {
	if f == v {
		return true
	}
	if v != KindNil {
		return false
	}
	switch f {
	case KindRef, KindList, KindString, KindBytes:
		return true
	default:
		return false
	}
}
