package heap

import (
	"fmt"
	"math"
)

// objectOverhead approximates the fixed header cost of one managed object on
// a constrained device (id, class pointer, field-vector header).
const objectOverhead = 32

// Object is one managed instance. Objects are created through Heap.New and
// live until the local collector reclaims them (or Heap.Remove detaches them
// explicitly).
//
// An object is its heap's: reads and writes of its fields happen under the
// heap owner's lock, as every other heap call does, so the collector — which
// may run on a background swap-in's behalf — never scans or frees an object
// mid-write.
type Object struct {
	id    ObjID
	class *Class
	heap  *Heap

	fields []Value
	// size is the accounted byte size. owner is the owner's word: the heap
	// stores it (SetOwner) and never reads it; the swapping runtime keeps
	// there the cluster whose record lists the object. mark is the
	// collector's epoch word (see Heap.epoch): equal to the epoch once a
	// pass has marked the object, which is then old, and anything else while
	// it is young. pos is the object's index in the heap's dense resident
	// list (see objTable), or gone once it left. Four 32-bit words keep the
	// header at 64 bytes.
	size  uint32
	owner uint32
	mark  uint32
	pos   uint32
}

// ID returns the object's stable identifier.
func (o *Object) ID() ObjID { return o.id }

// Class returns the object's class.
func (o *Object) Class() *Class { return o.class }

// Size returns the currently accounted byte size of the object.
func (o *Object) Size() int64 { return int64(o.size) }

// Owner returns the word the heap's owner last stored with SetOwner (0 until
// then).
func (o *Object) Owner() uint32 { return o.owner }

// SetOwner stores the owner's word in the object's header.
func (o *Object) SetOwner(w uint32) {
	o.heap.held()
	o.owner = w
}

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
// resident under id, which it checks before it writes. A collection, Free
// or Remove may reclaim an object of a pooled class (a swap-cluster-proxy or
// a replacement-object) and the next allocation reissue its block under
// another id (Owner.Purge): a holder that kept the block past that
// learns so here, with ErrNoSuchObject, and writes nothing into the object
// the block has become. Nothing of o but its heap is read before the check.
func (o *Object) SetFieldAs(id ObjID, i int, v Value) error {
	return o.setField(id, i, v)
}

// ResidentAs reports whether o is resident under id: false once it was
// reclaimed, whether or not an allocation has reissued its block under
// another id since.
func (o *Object) ResidentAs(id ObjID) bool { return o.pos != gone && o.id == id }

// setField is SetField, and SetFieldAs when id is not NilID.
func (o *Object) setField(id ObjID, i int, v Value) error {
	h := o.heap
	h.held()
	if o.pos == gone || (id != NilID && o.id != id) {
		if id == NilID {
			id = o.id
		}
		return fmt.Errorf("%w: @%d", ErrNoSuchObject, id)
	}
	if i < 0 || i >= len(o.fields) {
		return fmt.Errorf("%w: %s slot %d", ErrNoSuchField, o.class.Name, i)
	}
	if def := o.class.Field(i); !assignable(def.Kind, v.Kind()) {
		return fmt.Errorf("%w: field %s.%s is %s, assigning %s",
			ErrBadKind, o.class.Name, def.Name, def.Kind, v.Kind())
	}
	delta := v.size() - o.fields[i].size()
	if int64(o.size)+delta > math.MaxUint32 {
		return fmt.Errorf("%w: an object of %d bytes", ErrOutOfMemory, int64(o.size)+delta)
	}
	if delta > 0 {
		if err := h.reserve(delta); err != nil {
			return err
		}
	} else if delta < 0 {
		h.release(-delta)
	}
	o.size = uint32(int64(o.size) + delta)
	o.fields[i] = v
	if o.mark == h.epoch {
		h.remember(&v) // the write barrier: an old holder may be a young object's only path
	}
	if o.class.Special == SpecialNone {
		h.observeWrite(o)
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
