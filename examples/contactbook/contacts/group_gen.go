// Code generated by obicomp; DO NOT EDIT.
//
// Class Group: its compiled field layout, a constructor whose method table
// holds one get and one set accessor per field, and a typed proxy-stub
// wrapper.

package contacts

import "objectswap/internal/heap"

// Field slots of Group.
const (
	groupSlotLabel = 0
	groupSlotFirst = 1
	groupSlotSize  = 2
)

// groupFieldDefs is the compiled field layout of Group.
var groupFieldDefs = [3]heap.FieldDef{
	{Name: "label", Kind: heap.KindString},
	{Name: "first", Kind: heap.KindRef},
	{Name: "size", Kind: heap.KindInt},
}

// NewGroupClass builds the Group class with its generated accessors.
func NewGroupClass() *heap.Class {
	c := heap.NewClass("Group", groupFieldDefs[:]...)
	c.AddMethod("getLabel", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(groupSlotLabel)), nil
	})
	c.AddMethod("setLabel", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "label", call.Arg(0))
	})
	c.AddMethod("getFirst", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(groupSlotFirst)), nil
	})
	c.AddMethod("setFirst", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "first", call.Arg(0))
	})
	c.AddMethod("getSize", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(groupSlotSize)), nil
	})
	c.AddMethod("setSize", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "size", call.Arg(0))
	})
	return c
}

// GroupRef is the generated typed handle on a Group instance — the proxy-stub
// surface application code uses instead of stringly-typed Invoke. Every
// access routes through the Invoker, so swap-cluster-proxy interception
// applies exactly as for hand-written dispatch.
type GroupRef struct {
	RT  heap.Invoker
	Ref heap.Value
}

// AsGroup wraps a reference in the typed handle.
func AsGroup(rt heap.Invoker, ref heap.Value) GroupRef {
	return GroupRef{RT: rt, Ref: ref}
}

// GetLabel invokes the generated accessor getLabel.
func (r GroupRef) GetLabel() (string, error) {
	out, err := r.RT.Invoke(r.Ref, "getLabel")
	if err != nil {
		return "", err
	}
	return out[0].Str()
}

// SetLabel invokes the generated accessor setLabel (writes are mediated by
// the runtime's reference interception).
func (r GroupRef) SetLabel(v string) error {
	_, err := r.RT.Invoke(r.Ref, "setLabel", heap.Str(v))
	return err
}

// GetFirst invokes the generated accessor getFirst.
func (r GroupRef) GetFirst() (heap.Value, error) {
	out, err := r.RT.Invoke(r.Ref, "getFirst")
	if err != nil {
		return heap.Nil(), err
	}
	return out[0], nil
}

// SetFirst invokes the generated accessor setFirst (writes are mediated by
// the runtime's reference interception).
func (r GroupRef) SetFirst(v heap.Value) error {
	_, err := r.RT.Invoke(r.Ref, "setFirst", v)
	return err
}

// GetSize invokes the generated accessor getSize.
func (r GroupRef) GetSize() (int64, error) {
	out, err := r.RT.Invoke(r.Ref, "getSize")
	if err != nil {
		return 0, err
	}
	return out[0].Int()
}

// SetSize invokes the generated accessor setSize (writes are mediated by
// the runtime's reference interception).
func (r GroupRef) SetSize(v int64) error {
	_, err := r.RT.Invoke(r.Ref, "setSize", heap.Int(v))
	return err
}
