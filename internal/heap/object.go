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
	// mark is the collector's epoch word (see Heap.epoch): equal to the
	// epoch once a pass has marked the object, which is then old, and
	// anything else while it is young. pos is the object's index in the
	// heap's dense resident list (see objTable), or gone once it left. Both
	// are written only under the heap lock held exclusively. Two 32-bit
	// words keep the header at 64 bytes.
	mark uint32
	pos  uint32
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
// exceed heap capacity, with ErrBadKind when the value kind does not match
// the declaration (nil is assignable to ref, list, string and bytes fields),
// and with ErrNoSuchObject once the object is reclaimed. Only a write to an
// application object (class SpecialNone) runs the write observers.
func (o *Object) SetField(i int, v Value) error {
	return o.setField(NilID, i, v)
}

// SetFieldAs assigns the i-th field like SetField, but only while o is
// resident under id, which it checks under the heap lock it writes in. A
// collection may sweep a swap-cluster-proxy and a later one reissue its block
// under another id (CollectStats.Swept): a holder that kept the block past
// that learns so here, with ErrNoSuchObject, and writes nothing into the
// object the block has become. Nothing of o but its heap is read before the
// check.
func (o *Object) SetFieldAs(id ObjID, i int, v Value) error {
	return o.setField(id, i, v)
}

// ResidentAs reports whether o is resident under id: false once a collection
// swept it, whether or not a later one has reissued its block under another
// id since. It reads nothing of o but its heap before it takes the heap lock.
func (o *Object) ResidentAs(id ObjID) bool {
	h := o.heap
	h.mu.RLock()
	defer h.mu.RUnlock()
	return o.pos != gone && o.id == id
}

// setField is SetField, and SetFieldAs when id is not NilID.
func (o *Object) setField(id ObjID, i int, v Value) error {
	// Accounting and the slot store form one unit against the collector:
	// a sweep or Free sees the object's size and the budget agree.
	h := o.heap
	h.mu.RLock()
	if o.pos == gone || (id != NilID && o.id != id) {
		h.mu.RUnlock()
		if id == NilID {
			id = o.id
		}
		return fmt.Errorf("%w: @%d", ErrNoSuchObject, id)
	}
	if i < 0 || i >= len(o.fields) {
		h.mu.RUnlock()
		return fmt.Errorf("%w: %s slot %d", ErrNoSuchField, o.class.Name, i)
	}
	if def := o.class.Field(i); !assignable(def.Kind, v.Kind()) {
		h.mu.RUnlock()
		return fmt.Errorf("%w: field %s.%s is %s, assigning %s",
			ErrBadKind, o.class.Name, def.Name, def.Kind, v.Kind())
	}
	delta := v.size() - o.fields[i].size()
	if delta > 0 {
		if err := h.reserve(delta); err != nil {
			h.mu.RUnlock()
			return err
		}
	} else if delta < 0 {
		h.release(-delta)
	}
	atomic.AddInt64(&o.size, delta)
	o.fields[i] = v
	if o.mark == h.epoch {
		h.remember(&v) // the write barrier: an old holder may be a young object's only path
	}
	id, special := o.id, o.class.Special
	h.mu.RUnlock()
	if special == SpecialNone {
		h.observeWrite(id)
	}
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
