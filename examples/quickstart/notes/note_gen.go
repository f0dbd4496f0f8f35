// Code generated by obicomp; DO NOT EDIT.
//
// Class Note: its compiled field layout, a constructor whose method table
// holds one get and one set accessor per field, and a typed proxy-stub
// wrapper.

package notes

import "objectswap/internal/heap"

// Field slots of Note.
const (
	noteSlotText = 0
	noteSlotNext = 1
)

// noteFieldDefs is the compiled field layout of Note.
var noteFieldDefs = [2]heap.FieldDef{
	{Name: "text", Kind: heap.KindString},
	{Name: "next", Kind: heap.KindRef},
}

// NewNoteClass builds the Note class with its generated accessors.
func NewNoteClass() *heap.Class {
	c := heap.NewClass("Note", noteFieldDefs[:]...)
	c.AddMethod("getText", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(noteSlotText)), nil
	})
	c.AddMethod("setText", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "text", call.Arg(0))
	})
	c.AddMethod("getNext", func(call *heap.Call) ([]heap.Value, error) {
		return call.Return(call.Self.Field(noteSlotNext)), nil
	})
	c.AddMethod("setNext", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "next", call.Arg(0))
	})
	return c
}

// NoteRef is the generated typed handle on a Note instance — the proxy-stub
// surface application code uses instead of stringly-typed Invoke. Every
// access routes through the Invoker, so swap-cluster-proxy interception
// applies exactly as for hand-written dispatch.
type NoteRef struct {
	RT  heap.Invoker
	Ref heap.Value
}

// AsNote wraps a reference in the typed handle.
func AsNote(rt heap.Invoker, ref heap.Value) NoteRef {
	return NoteRef{RT: rt, Ref: ref}
}

// GetText invokes the generated accessor getText.
func (r NoteRef) GetText() (string, error) {
	out, err := r.RT.Invoke(r.Ref, "getText")
	if err != nil {
		return "", err
	}
	return out[0].Str()
}

// SetText invokes the generated accessor setText (writes are mediated by
// the runtime's reference interception).
func (r NoteRef) SetText(v string) error {
	_, err := r.RT.Invoke(r.Ref, "setText", heap.Str(v))
	return err
}

// GetNext invokes the generated accessor getNext.
func (r NoteRef) GetNext() (heap.Value, error) {
	out, err := r.RT.Invoke(r.Ref, "getNext")
	if err != nil {
		return heap.Nil(), err
	}
	return out[0], nil
}

// SetNext invokes the generated accessor setNext (writes are mediated by
// the runtime's reference interception).
func (r NoteRef) SetNext(v heap.Value) error {
	_, err := r.RT.Invoke(r.Ref, "setNext", v)
	return err
}
