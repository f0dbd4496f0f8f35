package heap

import (
	"errors"
	"fmt"
	"sync"
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
}

// ErrNilTarget reports invocation through a nil reference.
var ErrNilTarget = errors.New("heap: invoke on nil reference")

// DirectRuntime is the interposition-free Invoker: every reference designates
// a resident object and dispatch is a class-table call. It provides the
// baseline timing floor and serves master (well-resourced) nodes that never
// swap. Like the swapping runtime, it dispatches from a frame pool and is one
// monitor: each entry (Invoke, Field, SetFieldValue, WithHeap) holds its
// mutex, the heap's owner lock, and method bodies call back under that hold,
// so the floor pays for its Calls and its lock what the runtime pays. It
// serves one dispatching goroutine at a time.
type DirectRuntime struct {
	mu     sync.Mutex
	heap   *Heap
	frames Frames
	depth  int
}

// directHeld is a DirectRuntime whose mutex the caller holds: the Invoker
// method bodies call back through.
type directHeld DirectRuntime

var (
	_ Invoker = (*DirectRuntime)(nil)
	_ Invoker = (*directHeld)(nil)
)

// NewDirectRuntime returns a direct runtime over h.
func NewDirectRuntime(h *Heap) *DirectRuntime {
	rt := &DirectRuntime{heap: h}
	rt.frames = NewFrames((*directHeld)(rt))
	return rt
}

// Invoke dispatches method on the target object.
func (rt *DirectRuntime) Invoke(target Value, method string, args ...Value) ([]Value, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return (*directHeld)(rt).Invoke(target, method, args...)
}

// Field reads a field of the target object.
func (rt *DirectRuntime) Field(target Value, name string) (Value, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return (*directHeld)(rt).Field(target, name)
}

// SetFieldValue writes a field of the target object.
func (rt *DirectRuntime) SetFieldValue(target Value, name string, v Value) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return (*directHeld)(rt).SetFieldValue(target, name, v)
}

// WithHeap runs fn on the heap under one hold of the mutex, the one way host
// code reaches the heap beside dispatch: a root store, replication's master.
// fn calls no other entry of rt: the mutex is held.
func (rt *DirectRuntime) WithHeap(fn func(h *Heap)) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fn(rt.heap)
}

// resolve returns the resident object target designates; what and name
// describe the operation in the nil-target error.
func (rt *directHeld) resolve(target Value, what, name string) (*Object, error) {
	id, err := target.Ref()
	if err == nil && id == NilID {
		err = fmt.Errorf("%w: %s %s", ErrNilTarget, what, name)
	}
	if err != nil {
		return nil, err
	}
	return rt.heap.Get(id)
}

// Invoke dispatches method on the target object.
func (rt *directHeld) Invoke(target Value, method string, args ...Value) (res []Value, err error) {
	obj, err := rt.resolve(target, "method", method)
	if err != nil {
		return nil, err
	}
	rt.depth++
	defer rt.leave(&res)
	return obj.Class().Invoke(method, rt.frames.Enter(rt.depth, obj, args))
}

// leave releases the innermost Call, however its method ended, keeping the
// results *res.
func (rt *directHeld) leave(res *[]Value) {
	rt.frames.Leave(rt.depth, *res)
	rt.depth--
}

// Field reads a field of the target object.
func (rt *directHeld) Field(target Value, name string) (Value, error) {
	obj, err := rt.resolve(target, "field", name)
	if err != nil {
		return Nil(), err
	}
	return obj.FieldByName(name)
}

// SetFieldValue writes a field of the target object.
func (rt *directHeld) SetFieldValue(target Value, name string, v Value) error {
	obj, err := rt.resolve(target, "field", name)
	if err != nil {
		return err
	}
	return obj.SetFieldByName(name, v)
}
