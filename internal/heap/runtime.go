package heap

import (
	"errors"
	"fmt"
)

// Invoker dispatches method invocations and field accesses on managed
// objects. The indirection is the hook that makes the paper's architecture
// expressible: application methods call back through their Call's Caller,
// which forwards to the Invoker that dispatched them, so
// a middleware implementation (the swapping runtime) can interpose
// swap-cluster-proxies, replication faults and replacement-object reloads on
// every cross-object interaction, while DirectRuntime dispatches with no
// interposition at all — the "NO SWAP-CLUSTERS" lower bound of Figure 5.
type Invoker interface {
	// Invoke calls method on the object designated by target (a ref Value)
	// with the given arguments. The results may live in the invoker's call
	// frames (Call's lifetime rule): they are valid until the caller's next
	// call through the same invoker, which may take them as its arguments.
	Invoke(target Value, method string, args ...Value) ([]Value, error)
	// Field reads a field of the designated object (proxy-mediated
	// implementations forward it like an accessor method invocation).
	Field(target Value, name string) (Value, error)
	// SetFieldValue writes a field of the designated object.
	SetFieldValue(target Value, name string, v Value) error
	// Heap exposes the underlying device heap.
	Heap() *Heap
}

// ErrNilTarget reports invocation through a nil reference.
var ErrNilTarget = errors.New("heap: invoke on nil reference")

// DirectRuntime is the interposition-free Invoker: every reference designates
// a resident object and dispatch is a class-table call. It provides the
// baseline timing floor and serves master (well-resourced) nodes that never
// swap. It dispatches from the same kind of frame pool as the swapping
// runtime, so the floor pays for its Calls what the runtime measured against
// it pays. Like that runtime, it serves one dispatching goroutine at a time.
type DirectRuntime struct {
	heap   *Heap
	frames Frames
	depth  int
}

var _ Invoker = (*DirectRuntime)(nil)

// NewDirectRuntime returns a direct runtime over h.
func NewDirectRuntime(h *Heap) *DirectRuntime {
	rt := &DirectRuntime{heap: h}
	rt.frames = NewFrames(rt)
	return rt
}

// Heap returns the underlying heap.
func (rt *DirectRuntime) Heap() *Heap { return rt.heap }

// Invoke dispatches method on the target object.
func (rt *DirectRuntime) Invoke(target Value, method string, args ...Value) (res []Value, err error) {
	id, err := target.Ref()
	if err != nil {
		return nil, err
	}
	if id == NilID {
		return nil, fmt.Errorf("%w: method %s", ErrNilTarget, method)
	}
	obj, err := rt.heap.Get(id)
	if err != nil {
		return nil, err
	}
	rt.depth++
	defer rt.leave(&res)
	return obj.Class().Invoke(method, rt.frames.Enter(rt.depth, obj, args))
}

// leave releases the innermost Call, however its method ended, keeping the
// results *res.
func (rt *DirectRuntime) leave(res *[]Value) {
	rt.frames.Leave(rt.depth, *res)
	rt.depth--
}

// Field reads a field of the target object.
func (rt *DirectRuntime) Field(target Value, name string) (Value, error) {
	id, err := target.Ref()
	if err != nil {
		return Nil(), err
	}
	if id == NilID {
		return Nil(), fmt.Errorf("%w: field %s", ErrNilTarget, name)
	}
	obj, err := rt.heap.Get(id)
	if err != nil {
		return Nil(), err
	}
	return obj.FieldByName(name)
}

// SetFieldValue writes a field of the target object.
func (rt *DirectRuntime) SetFieldValue(target Value, name string, v Value) error {
	id, err := target.Ref()
	if err != nil {
		return err
	}
	if id == NilID {
		return fmt.Errorf("%w: field %s", ErrNilTarget, name)
	}
	obj, err := rt.heap.Get(id)
	if err != nil {
		return err
	}
	return obj.SetFieldByName(name, v)
}
