// Code generated by obicomp; DO NOT EDIT.
//
// Class Contact: its compiled field layout, a constructor whose method table
// holds one get and one set accessor per field, and a typed proxy-stub
// wrapper.

package contacts

import "objectswap/internal/heap"

// Field slots of Contact.
const (
	contactSlotName  = 0
	contactSlotPhone = 1
	contactSlotVcard = 2
	contactSlotNext  = 3
)

// contactFieldDefs is the compiled field layout of Contact.
var contactFieldDefs = [4]heap.FieldDef{
	{Name: "name", Kind: heap.KindString},
	{Name: "phone", Kind: heap.KindString},
	{Name: "vcard", Kind: heap.KindBytes},
	{Name: "next", Kind: heap.KindRef},
}

// NewContactClass builds the Contact class with its generated accessors.
func NewContactClass() *heap.Class {
	c := heap.NewClass("Contact", contactFieldDefs[:]...)
	c.AddMethod("getName", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(contactSlotName)), nil
	})
	c.AddMethod("setName", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "name", call.Arg(0))
	})
	c.AddMethod("getPhone", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(contactSlotPhone)), nil
	})
	c.AddMethod("setPhone", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "phone", call.Arg(0))
	})
	c.AddMethod("getVcard", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(contactSlotVcard)), nil
	})
	c.AddMethod("setVcard", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "vcard", call.Arg(0))
	})
	c.AddMethod("getNext", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(contactSlotNext)), nil
	})
	c.AddMethod("setNext", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "next", call.Arg(0))
	})
	return c
}

// ContactRef is the generated typed handle on a Contact instance — the proxy-stub
// surface application code uses instead of stringly-typed Invoke. Every
// access routes through the Invoker, so swap-cluster-proxy interception
// applies exactly as for hand-written dispatch.
type ContactRef struct {
	RT  heap.Invoker
	Ref heap.Value
}

// AsContact wraps a reference in the typed handle.
func AsContact(rt heap.Invoker, ref heap.Value) ContactRef {
	return ContactRef{RT: rt, Ref: ref}
}

// GetName invokes the generated accessor getName.
func (r ContactRef) GetName() (string, error) {
	out, err := r.RT.Invoke(r.Ref, "getName")
	if err != nil {
		return "", err
	}
	return out[0].Str()
}

// SetName invokes the generated accessor setName (writes are mediated by
// the runtime's reference interception).
func (r ContactRef) SetName(v string) error {
	_, err := r.RT.Invoke(r.Ref, "setName", heap.Str(v))
	return err
}

// GetPhone invokes the generated accessor getPhone.
func (r ContactRef) GetPhone() (string, error) {
	out, err := r.RT.Invoke(r.Ref, "getPhone")
	if err != nil {
		return "", err
	}
	return out[0].Str()
}

// SetPhone invokes the generated accessor setPhone (writes are mediated by
// the runtime's reference interception).
func (r ContactRef) SetPhone(v string) error {
	_, err := r.RT.Invoke(r.Ref, "setPhone", heap.Str(v))
	return err
}

// GetVcard invokes the generated accessor getVcard.
func (r ContactRef) GetVcard() ([]byte, error) {
	out, err := r.RT.Invoke(r.Ref, "getVcard")
	if err != nil {
		return nil, err
	}
	return out[0].Bytes()
}

// SetVcard invokes the generated accessor setVcard (writes are mediated by
// the runtime's reference interception).
func (r ContactRef) SetVcard(v []byte) error {
	_, err := r.RT.Invoke(r.Ref, "setVcard", heap.Bytes(v))
	return err
}

// GetNext invokes the generated accessor getNext.
func (r ContactRef) GetNext() (heap.Value, error) {
	out, err := r.RT.Invoke(r.Ref, "getNext")
	if err != nil {
		return heap.Nil(), err
	}
	return out[0], nil
}

// SetNext invokes the generated accessor setNext (writes are mediated by
// the runtime's reference interception).
func (r ContactRef) SetNext(v heap.Value) error {
	_, err := r.RT.Invoke(r.Ref, "setNext", v)
	return err
}
