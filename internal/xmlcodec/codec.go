// Package xmlcodec converts managed object graphs to and from the textual XML
// wrappers that Object-Swapping ships to nearby devices.
//
// The paper's pivotal portability claim rests on this layer: a device that
// receives swapped objects needs no VM, no middleware and no application
// classes — "they simply must be able to store and provide XML text". The
// codec therefore produces self-contained documents: every object is wrapped
// with its class name and per-field kind tags, and references are classified
// so that a later swap-in can re-link the graph:
//
//   - internal references ("ref") target another object inside the same
//     document (intra-swap-cluster edges survive verbatim);
//   - slot references ("xref") index into the swapped cluster's
//     replacement-object, which retains the cluster's outbound
//     swap-cluster-proxies while the cluster is away;
//   - remote references ("rref") name an object resident elsewhere — used by
//     incremental replication to ship clusters whose edges leave the shipment.
//
// The codec is policy-free: callers supply callbacks that classify outgoing
// references during encoding and resolve non-internal references during
// installation.
package xmlcodec

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"objectswap/internal/heap"
)

// Version is the wrapper format version stamped on every document.
const Version = 1

// RefClass distinguishes the three reference flavors a document can carry.
type RefClass uint8

const (
	// RefInternal targets another object within the same document.
	RefInternal RefClass = iota + 1
	// RefSlot indexes into the swapped cluster's replacement-object.
	RefSlot
	// RefRemote names an object resident on another node (replication).
	RefRemote
)

// Errors reported by the codec.
var (
	ErrBadDocument = errors.New("xmlcodec: malformed document")
	ErrVersion     = errors.New("xmlcodec: unsupported wrapper version")
)

// Value is the encoded form of one heap.Value.
type Value struct {
	Kind heap.Kind

	// Scalar payloads (valid according to Kind).
	I    int64
	F    float64
	B    bool
	S    string
	Data []byte

	// Reference payload (Kind == KindRef).
	RefClass RefClass
	Target   heap.ObjID // RefInternal / RefRemote
	Slot     int        // RefSlot
	// Class optionally names the target's class on remote references, so a
	// receiver can synthesize an object-fault proxy without contacting the
	// object's home node.
	Class string

	// List payload (Kind == KindList).
	List []Value
}

// Field is one named, encoded field of an object.
type Field struct {
	Name  string
	Value Value
}

// Object is the encoded form of one managed object.
type Object struct {
	ID     heap.ObjID
	Class  string
	Fields []Field
}

// Doc is a self-contained shipment of wrapped objects — one swap-cluster or
// one replication cluster.
type Doc struct {
	// ClusterID is the shipment key (the "unique ID (e.g., a number, a file
	// name)" the paper requires nearby devices to associate with stored text).
	ClusterID string
	Version   int
	Objects   []Object
}

// RefEncoder classifies a reference encountered while encoding. It returns
// the encoded reference value (one of RefInternal/RefSlot/RefRemote forms).
type RefEncoder func(id heap.ObjID) (Value, error)

// RefDecoder resolves a non-internal encoded reference to a live heap value
// during installation.
type RefDecoder func(v Value) (heap.Value, error)

// InternalRef builds an internal reference value.
func InternalRef(id heap.ObjID) Value {
	return Value{Kind: heap.KindRef, RefClass: RefInternal, Target: id}
}

// SlotRef builds a replacement-object slot reference value.
func SlotRef(slot int) Value {
	return Value{Kind: heap.KindRef, RefClass: RefSlot, Slot: slot}
}

// RemoteRef builds a remote reference value.
func RemoteRef(id heap.ObjID) Value {
	return Value{Kind: heap.KindRef, RefClass: RefRemote, Target: id}
}

// RemoteRefOf builds a remote reference value carrying the target's class.
func RemoteRefOf(id heap.ObjID, class string) Value {
	return Value{Kind: heap.KindRef, RefClass: RefRemote, Target: id, Class: class}
}

// fromHeapValue is the one heap-to-record value conversion. With a Wrapper
// the result borrows: list storage comes from w and a bytes payload aliases
// the heap value. Without one it owns fresh copies of both.
func fromHeapValue(dst *Value, v heap.Value, encodeRef RefEncoder, w *Wrapper) error {
	switch v.Kind() {
	case heap.KindNil:
		*dst = Value{Kind: heap.KindNil}
	case heap.KindInt:
		i, _ := v.Int()
		*dst = Value{Kind: heap.KindInt, I: i}
	case heap.KindFloat:
		f, _ := v.Float()
		*dst = Value{Kind: heap.KindFloat, F: f}
	case heap.KindBool:
		b, _ := v.Bool()
		*dst = Value{Kind: heap.KindBool, B: b}
	case heap.KindString:
		s, _ := v.Str()
		*dst = Value{Kind: heap.KindString, S: s}
	case heap.KindBytes:
		var data []byte
		if w != nil {
			data, _ = v.BorrowBytes()
		} else {
			data, _ = v.Bytes()
		}
		*dst = Value{Kind: heap.KindBytes, Data: data}
	case heap.KindRef:
		id, _ := v.Ref()
		if encodeRef == nil {
			return errors.New("xmlcodec: reference without RefEncoder")
		}
		ev, err := encodeRef(id)
		if err != nil {
			return err
		}
		if ev.Kind != heap.KindRef && ev.Kind != heap.KindNil {
			return fmt.Errorf("xmlcodec: RefEncoder produced %s for @%d", ev.Kind, id)
		}
		*dst = ev
	case heap.KindList:
		elems, _ := v.List()
		out := w.listStorage(len(elems))
		for i := range elems {
			if err := fromHeapValue(&out[i], elems[i], encodeRef, w); err != nil {
				return err
			}
		}
		*dst = Value{Kind: heap.KindList, List: out}
	default:
		return fmt.Errorf("xmlcodec: cannot encode kind %s", v.Kind())
	}
	return nil
}

// ToHeapValue decodes v. Internal references become plain refs to their
// target id; slot and remote references are resolved through decodeRef.
func (v Value) ToHeapValue(decodeRef RefDecoder) (heap.Value, error) {
	switch v.Kind {
	case heap.KindNil:
		return heap.Nil(), nil
	case heap.KindInt:
		return heap.Int(v.I), nil
	case heap.KindFloat:
		return heap.Float(v.F), nil
	case heap.KindBool:
		return heap.Bool(v.B), nil
	case heap.KindString:
		return heap.Str(v.S), nil
	case heap.KindBytes:
		return heap.Bytes(v.Data), nil
	case heap.KindRef:
		if v.RefClass == RefInternal {
			return heap.Ref(v.Target), nil
		}
		if decodeRef == nil {
			return heap.Nil(), errors.New("xmlcodec: non-internal reference without RefDecoder")
		}
		return decodeRef(v)
	case heap.KindList:
		out := make([]heap.Value, len(v.List))
		for i, e := range v.List {
			hv, err := e.ToHeapValue(decodeRef)
			if err != nil {
				return heap.Nil(), err
			}
			out[i] = hv
		}
		return heap.List(out...), nil
	default:
		return heap.Nil(), fmt.Errorf("xmlcodec: cannot decode kind %s", v.Kind)
	}
}

// wrapObject fills dst with o's identity, class name and fields in slot
// order, reusing dst.Fields when it is large enough.
func wrapObject(dst *Object, o *heap.Object, encodeRef RefEncoder, w *Wrapper) error {
	cls := o.Class()
	n := o.NumFields()
	dst.ID, dst.Class = o.ID(), cls.Name
	if cap(dst.Fields) < n {
		dst.Fields = make([]Field, n)
	}
	dst.Fields = dst.Fields[:n]
	for i := 0; i < n; i++ {
		f := &dst.Fields[i]
		f.Name = cls.Field(i).Name
		if err := fromHeapValue(&f.Value, o.Field(i), encodeRef, w); err != nil {
			return fmt.Errorf("encode %s.%s: %w", cls.Name, f.Name, err)
		}
	}
	return nil
}

// Wrapper wraps managed objects one at a time into a record it reuses, so a
// cluster can be serialized object by object without a Doc in between.
type Wrapper struct {
	rec   Object
	lists []Value // list-item storage of the current record
}

// Wrap returns o's record. The record, its list storage and the bytes
// payloads it borrows from the heap are valid until the next Wrap.
func (w *Wrapper) Wrap(o *heap.Object, encodeRef RefEncoder) (*Object, error) {
	w.lists = w.lists[:0]
	if err := wrapObject(&w.rec, o, encodeRef, w); err != nil {
		return nil, err
	}
	return &w.rec, nil
}

// listStorage returns n list items: fresh ones for a nil Wrapper, otherwise
// the next n of the Wrapper's own. Slices handed out earlier keep their
// backing array when the storage grows.
func (w *Wrapper) listStorage(n int) []Value {
	if w == nil {
		return make([]Value, n)
	}
	at := len(w.lists)
	if at+n > cap(w.lists) {
		w.lists = append(make([]Value, 0, 2*(at+n)), w.lists...)
	}
	w.lists = w.lists[:at+n]
	return w.lists[at : at+n : at+n]
}

// EncodeObjects wraps a set of objects into a document keyed by clusterID.
// The document owns its values, so it outlives the objects; a shipment that
// is only written out goes through wire.Encoder.EncodeObjects instead, which
// builds no document.
func EncodeObjects(clusterID string, objs []*heap.Object, encodeRef RefEncoder) (*Doc, error) {
	doc := &Doc{ClusterID: clusterID, Version: Version, Objects: make([]Object, len(objs))}
	for i, o := range objs {
		if err := wrapObject(&doc.Objects[i], o, encodeRef, nil); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// Install materializes the document's objects into h under their original
// IDs with all fields linked, and returns how many it installed. Internal
// references must target members of the document; others resolve through
// decodeRef. It is all-or-nothing: on any error h is left exactly as found.
func (d *Doc) Install(h *heap.Heap, reg *heap.Registry, decodeRef RefDecoder) (int, error) {
	in, err := d.Stage(reg)
	if err != nil {
		return 0, err
	}
	installed, err := in.Install(h, decodeRef)
	in.Release()
	return installed, err
}

// Stage validates the document against reg and stages its objects, verified,
// for a later Install.
func (d *Doc) Stage(reg *heap.Registry) (*Installer, error) {
	var fields int
	for i := range d.Objects {
		fields += len(d.Objects[i].Fields)
	}
	in, err := NewInstaller(reg, d.ClusterID, d.Version, len(d.Objects), fields)
	if err != nil {
		return nil, err
	}
	for i := range d.Objects {
		if err = in.Add(&d.Objects[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = in.Verify()
	}
	if err != nil {
		in.Release()
		return nil, err
	}
	return in, nil
}

// Installer turns a cluster's records into heap objects: Add converts one
// record into a member of a heap.Batch, writing its values straight into the
// object it will become — nothing touches a heap yet — and Install makes the
// whole cluster resident in one heap.InstallBatch. Records may come from a
// Doc or, one reused record at a time, straight from a frame. An Installer
// whose Add or Install failed is spent, and one that has verified takes no
// more records.
//
// Installers are pooled: NewInstaller takes one whose bookkeeping an earlier
// cluster sized, and Release gives it back once its objects are installed (or
// will not be). What is staged — the batch's objects and field slab — is
// never reused: it becomes the installed objects.
//
// A record's strings may alias the frame it was read from (wire.Stage hands
// a fetched frame's string section over). Staged string values keep those
// aliases: the frame becomes their storage. Nothing else that outlives the
// installed objects does: a deferred remote reference keeps a copy of its
// class name, Install drops ClusterID and the deferred values, and Release
// the class plans' field names.
type Installer struct {
	// ClusterID is the shipment key the records arrived under. It may alias
	// the frame, and Install clears it: read it before.
	ClusterID string

	batch    heap.Batch
	reg      *heap.Registry
	verified bool // Verify has passed; Add refuses more records
	// deferred are the fields holding slot or remote references: only the
	// installing runtime can resolve those, so they wait for Install.
	deferred []deferredField

	// Bookkeeping needed only while staging, kept across pool uses: the class
	// plans, the internal reference targets and the member ids Verify sorts.
	plans []classPlan
	refs  []heap.ObjID
	ids   []heap.ObjID
}

var installers = sync.Pool{New: func() any { return new(Installer) }}

// Release drops what the Installer refers to — the staged objects, which the
// heap owns once installed, and the records' names and values — and returns
// it to the pool. The caller must not use it afterwards; an Installer never
// released is simply collected.
func (in *Installer) Release() {
	plans := in.plans[:cap(in.plans)]
	for i := range plans {
		clear(plans[i].fields[:cap(plans[i].fields)])
		plans[i] = classPlan{fields: plans[i].fields[:0]}
	}
	clear(in.deferred)
	*in = Installer{
		plans:    in.plans[:0],
		refs:     in.refs[:0],
		ids:      in.ids[:0],
		deferred: in.deferred[:0],
	}
	installers.Put(in)
}

// classPlan resolves one class's field names to slots once per cluster: the
// records of a class all list the same names in the same order.
type classPlan struct {
	cls    *heap.Class
	fields []plannedField // sized to the class's fields when the plan is made
}

type plannedField struct {
	name string
	slot int
}

type deferredField struct {
	obj, slot int
	v         Value
}

// NewInstaller prepares to stage a cluster of about objects records holding
// about fields field values between them, of wrapper version version,
// resolving class names through reg. Both counts size storage up front, so
// they must be bounded by the payload they were read from.
func NewInstaller(reg *heap.Registry, clusterID string, version, objects, fields int) (*Installer, error) {
	if version != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, version)
	}
	in := installers.Get().(*Installer)
	if cap(in.refs) < objects {
		in.refs = make([]heap.ObjID, 0, objects)
	}
	in.ClusterID, in.reg = clusterID, reg
	in.batch = heap.MakeBatch(objects, fields)
	return in, nil
}

// plan returns the field plan of the named class.
func (in *Installer) plan(class string) (*classPlan, error) {
	plans := in.plans
	for i := range plans {
		if plans[i].cls.Name == class {
			return &plans[i], nil
		}
	}
	cls, err := in.reg.Lookup(class)
	if err != nil {
		return nil, err
	}
	if n := len(plans); n < cap(plans) {
		plans = plans[:n+1] // an earlier cluster's plan, reset: its storage serves
		plans[n].cls = cls
	} else {
		plans = append(plans, classPlan{cls: cls, fields: make([]plannedField, 0, cls.NumFields())})
	}
	in.plans = plans
	return &plans[len(plans)-1], nil
}

// slot resolves the j-th field name of a record.
func (p *classPlan) slot(j int, name string) (int, bool) {
	if j < len(p.fields) && p.fields[j].name == name {
		return p.fields[j].slot, true
	}
	slot, ok := p.cls.FieldIndex(name)
	if ok && j == len(p.fields) {
		p.fields = append(p.fields, plannedField{name, slot})
	}
	return slot, ok
}

// Add stages one record: class and field names must be known, every value
// must suit its field, and internal references are noted for Verify. The
// record is not retained.
func (in *Installer) Add(o *Object) error {
	if in.verified {
		return fmt.Errorf("install @%d: installer already verified", o.ID)
	}
	p, err := in.plan(o.Class)
	if err != nil {
		return fmt.Errorf("install @%d: %w", o.ID, err)
	}
	member := in.batch.Len()
	fields := in.batch.Add(o.ID, p.cls)
	for j := range o.Fields {
		f := &o.Fields[j]
		slot, ok := p.slot(j, f.Name)
		if !ok {
			return fmt.Errorf("install @%d field %s: %w: %s.%s", o.ID, f.Name, heap.ErrNoSuchField, o.Class, f.Name)
		}
		if def := p.cls.Field(slot); !def.Accepts(f.Value.Kind) {
			return fmt.Errorf("install @%d field %s: %w: field is %s, document holds %s",
				o.ID, f.Name, heap.ErrBadKind, def.Kind, f.Value.Kind)
		}
		if in.noteRefs(&f.Value) {
			in.deferred = append(in.deferred, deferredField{member, slot, f.Value.clone()})
			continue
		}
		if fields[slot], err = f.Value.ToHeapValue(nil); err != nil {
			return fmt.Errorf("install @%d field %s: %w", o.ID, f.Name, err)
		}
	}
	return nil
}

// noteRefs records v's internal reference targets and reports whether v
// holds a slot or remote reference.
func (in *Installer) noteRefs(v *Value) (foreign bool) {
	switch v.Kind {
	case heap.KindRef:
		if v.RefClass != RefInternal {
			return true
		}
		if v.Target != heap.NilID {
			in.refs = append(in.refs, v.Target)
		}
	case heap.KindList:
		for i := range v.List {
			if in.noteRefs(&v.List[i]) {
				foreign = true
			}
		}
	}
	return foreign
}

// clone returns v with its own list storage, for a value that must outlive a
// reused record, and its own copy of a remote reference's class name:
// decodeRef may keep that (an object-fault proxy records it), and it must not
// keep the frame the record was read from alive.
func (v Value) clone() Value {
	switch {
	case v.Kind == heap.KindList && len(v.List) > 0:
		list := make([]Value, len(v.List))
		for i := range v.List {
			list[i] = v.List[i].clone()
		}
		v.List = list
	case v.Kind == heap.KindRef:
		v.Class = strings.Clone(v.Class)
	}
	return v
}

// Verify checks what only the whole cluster can show: every internal
// reference targets a staged object. Once it passes, the Installer takes no
// more records.
func (in *Installer) Verify() error {
	if in.verified {
		return nil
	}
	if len(in.refs) > 0 {
		ids := in.ids[:0]
		for i := range in.batch.Len() {
			ids = append(ids, in.batch.ID(i))
		}
		slices.Sort(ids)
		in.ids = ids
		for _, target := range in.refs {
			if _, member := slices.BinarySearch(ids, target); !member {
				return fmt.Errorf("%w: internal ref to non-member @%d", ErrBadDocument, target)
			}
		}
	}
	in.verified = true
	return nil
}

// Install verifies the cluster, resolves the deferred slot and remote
// references through decodeRef and makes every staged object resident in h,
// or none: on any error h is left exactly as found. It returns how many
// objects it installed. Install is the Installer's last use but Release: it
// drops the shipment key and the deferred values, which may alias the frame.
func (in *Installer) Install(h *heap.Heap, decodeRef RefDecoder) (int, error) {
	defer in.forget()
	if err := in.Verify(); err != nil {
		return 0, err
	}
	for i := range in.deferred {
		d := &in.deferred[i]
		hv, err := d.v.ToHeapValue(decodeRef)
		if err != nil {
			return 0, fmt.Errorf("install @%d field %s: %w",
				in.batch.ID(d.obj), in.batch.Class(d.obj).Field(d.slot).Name, err)
		}
		in.batch.Fields(d.obj)[d.slot] = hv
	}
	return h.InstallBatch(&in.batch)
}

// forget drops what of the shipment the Installer still holds outside its
// batch: the key and the deferred values.
func (in *Installer) forget() {
	clear(in.deferred)
	in.ClusterID, in.deferred = "", in.deferred[:0]
}
