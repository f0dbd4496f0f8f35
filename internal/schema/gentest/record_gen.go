// Code generated by obicomp; DO NOT EDIT.
//
// Class Record: its compiled field layout, a constructor whose method table
// holds one get and one set accessor per field, and a typed proxy-stub
// wrapper.

package gentest

import "objectswap/internal/heap"

// Field slots of Record.
const (
	recordSlotTitle  = 0
	recordSlotSeq    = 1
	recordSlotWeight = 2
	recordSlotDirty  = 3
	recordSlotBlob   = 4
	recordSlotNext   = 5
	recordSlotTags   = 6
)

// recordFieldDefs is the compiled field layout of Record.
var recordFieldDefs = [7]heap.FieldDef{
	{Name: "title", Kind: heap.KindString},
	{Name: "seq", Kind: heap.KindInt},
	{Name: "weight", Kind: heap.KindFloat},
	{Name: "dirty", Kind: heap.KindBool},
	{Name: "blob", Kind: heap.KindBytes},
	{Name: "next", Kind: heap.KindRef},
	{Name: "tags", Kind: heap.KindList},
}

// NewRecordClass builds the Record class with its generated accessors.
func NewRecordClass() *heap.Class {
	c := heap.NewClass("Record", recordFieldDefs[:]...)
	c.AddMethod("getTitle", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(recordSlotTitle)), nil
	})
	c.AddMethod("setTitle", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "title", call.Arg(0))
	})
	c.AddMethod("getSeq", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(recordSlotSeq)), nil
	})
	c.AddMethod("setSeq", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "seq", call.Arg(0))
	})
	c.AddMethod("getWeight", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(recordSlotWeight)), nil
	})
	c.AddMethod("setWeight", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "weight", call.Arg(0))
	})
	c.AddMethod("getDirty", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(recordSlotDirty)), nil
	})
	c.AddMethod("setDirty", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "dirty", call.Arg(0))
	})
	c.AddMethod("getBlob", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(recordSlotBlob)), nil
	})
	c.AddMethod("setBlob", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "blob", call.Arg(0))
	})
	c.AddMethod("getNext", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(recordSlotNext)), nil
	})
	c.AddMethod("setNext", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "next", call.Arg(0))
	})
	c.AddMethod("getTags", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(recordSlotTags)), nil
	})
	c.AddMethod("setTags", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "tags", call.Arg(0))
	})
	return c
}

// RecordRef is the generated typed handle on a Record instance — the proxy-stub
// surface application code uses instead of stringly-typed Invoke. Every
// access routes through the Invoker, so swap-cluster-proxy interception
// applies exactly as for hand-written dispatch.
type RecordRef struct {
	RT  heap.Invoker
	Ref heap.Value
}

// AsRecord wraps a reference in the typed handle.
func AsRecord(rt heap.Invoker, ref heap.Value) RecordRef {
	return RecordRef{RT: rt, Ref: ref}
}

// GetTitle invokes the generated accessor getTitle.
func (r RecordRef) GetTitle() (string, error) {
	out, err := r.RT.Invoke(r.Ref, "getTitle")
	if err != nil {
		return "", err
	}
	return out[0].Str()
}

// SetTitle invokes the generated accessor setTitle (writes are mediated by
// the runtime's reference interception).
func (r RecordRef) SetTitle(v string) error {
	_, err := r.RT.Invoke(r.Ref, "setTitle", heap.Str(v))
	return err
}

// GetSeq invokes the generated accessor getSeq.
func (r RecordRef) GetSeq() (int64, error) {
	out, err := r.RT.Invoke(r.Ref, "getSeq")
	if err != nil {
		return 0, err
	}
	return out[0].Int()
}

// SetSeq invokes the generated accessor setSeq (writes are mediated by
// the runtime's reference interception).
func (r RecordRef) SetSeq(v int64) error {
	_, err := r.RT.Invoke(r.Ref, "setSeq", heap.Int(v))
	return err
}

// GetWeight invokes the generated accessor getWeight.
func (r RecordRef) GetWeight() (float64, error) {
	out, err := r.RT.Invoke(r.Ref, "getWeight")
	if err != nil {
		return 0, err
	}
	return out[0].Float()
}

// SetWeight invokes the generated accessor setWeight (writes are mediated by
// the runtime's reference interception).
func (r RecordRef) SetWeight(v float64) error {
	_, err := r.RT.Invoke(r.Ref, "setWeight", heap.Float(v))
	return err
}

// GetDirty invokes the generated accessor getDirty.
func (r RecordRef) GetDirty() (bool, error) {
	out, err := r.RT.Invoke(r.Ref, "getDirty")
	if err != nil {
		return false, err
	}
	return out[0].Bool()
}

// SetDirty invokes the generated accessor setDirty (writes are mediated by
// the runtime's reference interception).
func (r RecordRef) SetDirty(v bool) error {
	_, err := r.RT.Invoke(r.Ref, "setDirty", heap.Bool(v))
	return err
}

// GetBlob invokes the generated accessor getBlob.
func (r RecordRef) GetBlob() ([]byte, error) {
	out, err := r.RT.Invoke(r.Ref, "getBlob")
	if err != nil {
		return nil, err
	}
	return out[0].Bytes()
}

// SetBlob invokes the generated accessor setBlob (writes are mediated by
// the runtime's reference interception).
func (r RecordRef) SetBlob(v []byte) error {
	_, err := r.RT.Invoke(r.Ref, "setBlob", heap.Bytes(v))
	return err
}

// GetNext invokes the generated accessor getNext.
func (r RecordRef) GetNext() (heap.Value, error) {
	out, err := r.RT.Invoke(r.Ref, "getNext")
	if err != nil {
		return heap.Nil(), err
	}
	return out[0], nil
}

// SetNext invokes the generated accessor setNext (writes are mediated by
// the runtime's reference interception).
func (r RecordRef) SetNext(v heap.Value) error {
	_, err := r.RT.Invoke(r.Ref, "setNext", v)
	return err
}

// GetTags invokes the generated accessor getTags.
func (r RecordRef) GetTags() ([]heap.Value, error) {
	out, err := r.RT.Invoke(r.Ref, "getTags")
	if err != nil {
		return nil, err
	}
	return out[0].List()
}

// SetTags invokes the generated accessor setTags (writes are mediated by
// the runtime's reference interception).
func (r RecordRef) SetTags(v []heap.Value) error {
	_, err := r.RT.Invoke(r.Ref, "setTags", heap.List(v...))
	return err
}
