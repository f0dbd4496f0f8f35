// Code generated by obicomp; DO NOT EDIT.
//
// Class Photo: its compiled field layout, a constructor whose method table
// holds one get and one set accessor per field, and a typed proxy-stub
// wrapper.

package album

import "objectswap/internal/heap"

// Field slots of Photo.
const (
	photoSlotThumb   = 0
	photoSlotCaption = 1
	photoSlotNext    = 2
)

// photoFieldDefs is the compiled field layout of Photo.
var photoFieldDefs = [3]heap.FieldDef{
	{Name: "thumb", Kind: heap.KindBytes},
	{Name: "caption", Kind: heap.KindString},
	{Name: "next", Kind: heap.KindRef},
}

// NewPhotoClass builds the Photo class with its generated accessors.
func NewPhotoClass() *heap.Class {
	c := heap.NewClass("Photo", photoFieldDefs[:]...)
	c.AddMethod("getThumb", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(photoSlotThumb)), nil
	})
	c.AddMethod("setThumb", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "thumb", call.Arg(0))
	})
	c.AddMethod("getCaption", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(photoSlotCaption)), nil
	})
	c.AddMethod("setCaption", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "caption", call.Arg(0))
	})
	c.AddMethod("getNext", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(photoSlotNext)), nil
	})
	c.AddMethod("setNext", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "next", call.Arg(0))
	})
	return c
}

// PhotoRef is the generated typed handle on a Photo instance — the proxy-stub
// surface application code uses instead of stringly-typed Invoke. Every
// access routes through the Invoker, so swap-cluster-proxy interception
// applies exactly as for hand-written dispatch.
type PhotoRef struct {
	RT  heap.Invoker
	Ref heap.Value
}

// AsPhoto wraps a reference in the typed handle.
func AsPhoto(rt heap.Invoker, ref heap.Value) PhotoRef {
	return PhotoRef{RT: rt, Ref: ref}
}

// GetThumb invokes the generated accessor getThumb.
func (r PhotoRef) GetThumb() ([]byte, error) {
	out, err := r.RT.Invoke(r.Ref, "getThumb")
	if err != nil {
		return nil, err
	}
	return out[0].Bytes()
}

// SetThumb invokes the generated accessor setThumb (writes are mediated by
// the runtime's reference interception).
func (r PhotoRef) SetThumb(v []byte) error {
	_, err := r.RT.Invoke(r.Ref, "setThumb", heap.Bytes(v))
	return err
}

// GetCaption invokes the generated accessor getCaption.
func (r PhotoRef) GetCaption() (string, error) {
	out, err := r.RT.Invoke(r.Ref, "getCaption")
	if err != nil {
		return "", err
	}
	return out[0].Str()
}

// SetCaption invokes the generated accessor setCaption (writes are mediated by
// the runtime's reference interception).
func (r PhotoRef) SetCaption(v string) error {
	_, err := r.RT.Invoke(r.Ref, "setCaption", heap.Str(v))
	return err
}

// GetNext invokes the generated accessor getNext.
func (r PhotoRef) GetNext() (heap.Value, error) {
	out, err := r.RT.Invoke(r.Ref, "getNext")
	if err != nil {
		return heap.Nil(), err
	}
	return out[0], nil
}

// SetNext invokes the generated accessor setNext (writes are mediated by
// the runtime's reference interception).
func (r PhotoRef) SetNext(v heap.Value) error {
	_, err := r.RT.Invoke(r.Ref, "setNext", v)
	return err
}
