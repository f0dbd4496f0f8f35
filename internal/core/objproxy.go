package core

import (
	"fmt"

	"objectswap/internal/heap"
)

// Object-fault proxies are the incremental-replication placeholders of
// OBIWAN: an object that has not yet been replicated to the device is
// represented by a proxy transparent to the application; invoking it
// triggers replication of a whole cluster of objects (handled by the
// FaultHandler the replication module installs on the Runtime).
//
// Unlike swap-cluster-proxies — which are permanent — object-fault proxies
// are *replaced* after replication: the replication module sweeps the graph
// substituting them with direct references or swap-cluster-proxies, so the
// application thereafter runs at full speed.
//
// An object-fault proxy may also survive a swap-out: a partially replicated
// cluster can be swapped with its un-replicated edges intact. Those edges are
// wrapped as remote references ("rref") carrying the target's class, and
// swap-in re-synthesizes the proxies.

// Hidden fields of the generic object-fault proxy class.
const (
	fldRemote   = "$remote" // the object's identity on its home node
	fldRemClass = "$rclass" // the remote object's class name
)

// objProxyClassName is the single generic class used for object-fault
// proxies (dispatch never consults its method table, so one class serves all
// application classes).
const objProxyClassName = "$ObjProxy"

// buildObjProxyClass synthesizes the object-fault proxy class.
func buildObjProxyClass() *heap.Class {
	c := heap.NewClass(objProxyClassName,
		heap.FieldDef{Name: fldRemote, Kind: heap.KindInt},
		heap.FieldDef{Name: fldRemClass, Kind: heap.KindString},
	)
	c.Special = heap.SpecialObjProxy
	return c
}

// isObjProxy reports whether the object is an object-fault proxy.
func isObjProxy(o *heap.Object) bool { return o.Class().Special == heap.SpecialObjProxy }

// ObjProxyRemote reads the remote identity an object-fault proxy stands for.
func ObjProxyRemote(o *heap.Object) heap.ObjID {
	v, _ := o.FieldByName(fldRemote)
	i, _ := v.Int()
	return heap.ObjID(i)
}

// objProxyClassOf reads the remote class name an object-fault proxy stands
// for.
func objProxyClassOf(o *heap.Object) string {
	v, _ := o.FieldByName(fldRemClass)
	s, _ := v.Str()
	return s
}

// ObjProxyFor returns (creating or reusing) the object-fault proxy standing
// for the remote object remote of class className. At most one live proxy
// exists per remote identity.
func (rt *Runtime) ObjProxyFor(remote heap.ObjID, className string) (heap.ObjID, error) {
	rt.lock()
	defer rt.unlock()
	return (*Held)(rt).ObjProxyFor(remote, className)
}

// ObjProxyFor is Runtime.ObjProxyFor under the caller's hold.
func (h *Held) ObjProxyFor(remote heap.ObjID, className string) (heap.ObjID, error) {
	rt := (*Runtime)(h)
	if remote == heap.NilID {
		return heap.NilID, fmt.Errorf("core: ObjProxyFor: nil remote id")
	}
	if pid, ok := rt.mgr.table.objProxies[remote]; ok && rt.h.Contains(pid) {
		return pid, nil
	}
	p, err := rt.allocMiddleware(rt.objProxyClass, heap.Int(int64(remote)), heap.Str(className))
	if err != nil {
		return heap.NilID, fmt.Errorf("core: allocate object-fault proxy: %w", err)
	}
	rt.mgr.table.objProxies[remote] = p.ID()
	return p.ID(), nil
}

// ObjProxyCount reports the number of live object-fault proxies: each is the
// entry of the remote identity it stands for.
func (m *Manager) ObjProxyCount() int {
	m.rt.lock()
	defer m.rt.unlock()
	return len(m.table.objProxies)
}
