package core

import (
	"objectswap/internal/heap"
)

// RefEqual implements the paper's application-level object identity
// (Section 4, "Enforcing Object Identity"): two references are identical when
// they ultimately designate the same object, regardless of how many distinct
// swap-cluster-proxies mediate them. It is the analogue of the overloaded ==
// operator on proxy classes (or Object.Equals in Java).
//
// Non-reference values fall back to structural equality, so RefEqual is safe
// as a general value comparison.
func (rt *Runtime) RefEqual(a, b heap.Value) (bool, error) {
	aRef := a.IsRef() || a.IsNil()
	bRef := b.IsRef() || b.IsNil()
	if !aRef || !bRef {
		return a.Equal(b), nil
	}
	ua, err := rt.ultimateOf(a)
	if err != nil {
		return false, err
	}
	ub, err := rt.ultimateOf(b)
	if err != nil {
		return false, err
	}
	return ua == ub, nil
}

// ultimateOf resolves a reference value to the identity of the application
// object it designates (NilID for nil): proxies yield their recorded target,
// anything else itself.
func (rt *Runtime) ultimateOf(v heap.Value) (heap.ObjID, error) {
	id, err := v.Ref()
	if err != nil || id == heap.NilID {
		return heap.NilID, err
	}
	d, err := rt.designate(id)
	return d.ultimate, err
}

// Deref returns the resident application object a reference designates,
// reloading its cluster if it is swapped out. It gives host-level code
// (examples, tests) a way to inspect objects behind proxies.
func (rt *Runtime) Deref(v heap.Value) (*heap.Object, error) {
	id, err := rt.ultimateOf(v)
	if err != nil {
		return nil, err
	}
	if id == heap.NilID {
		return nil, heap.ErrNilTarget
	}
	return rt.materialize(id)
}
