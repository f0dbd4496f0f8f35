package core

import (
	"errors"
	"fmt"

	"objectswap/internal/heap"
)

// ErrClusterActive reports a swap-out of a cluster with objects currently on
// the invocation stack.
var ErrClusterActive = errors.New("core: cluster has in-flight invocations")

// errCorrupt reports a replacement-object reached through an application
// reference: only swap-cluster-proxies may target one.
var errCorrupt = errors.New("core: replacement-object reached through an application reference (graph corruption)")

// frame is one boundary operation's hold on the invocation stack, which
// stands in for thread stacks as GC roots (DESIGN §6c): whatever is pushed
// between enter and leave survives any collection the operation triggers.
type frame struct {
	rt   *Runtime
	id   heap.ObjID // the operand, protected first: it may be held only by host code
	save int
}

// enter opens a frame on the object target designates; what and name describe
// the operation in the nil-target error.
func (rt *Runtime) enter(target heap.Value, what, name string) (frame, error) {
	id, err := target.Ref()
	if err == nil && id == heap.NilID {
		err = fmt.Errorf("%w: %s %s", heap.ErrNilTarget, what, name)
	}
	if err != nil {
		return frame{}, err
	}
	rt.depth++
	f := frame{rt: rt, id: id, save: len(rt.stack)}
	rt.stack = append(rt.stack, id)
	return f, nil
}

// leave drops the frame's protections and, when the operation succeeded,
// anchors its results in the parent frame so interception-created proxies
// survive until stored. The outermost frame clears the stack: no collection
// can interleave before host code stores the results. Deferred by all three
// operations, it runs when a method body panics too.
func (f frame) leave(err error, results ...heap.Value) {
	rt := f.rt
	rt.stack = rt.stack[:f.save]
	rt.depth--
	if rt.depth == 0 {
		rt.stack = rt.stack[:0]
	} else if err == nil {
		for _, v := range results {
			rt.pushValueRefs(v)
		}
	}
}

// pushStack protects a middleware-created object for the duration of the
// enclosing frame. Outside any frame (depth 0) there is nothing to anchor to —
// and no collection can interleave before the host code stores the value — so
// it is a no-op.
func (rt *Runtime) pushStack(id heap.ObjID) {
	if rt.depth > 0 {
		rt.stack = append(rt.stack, id)
	}
}

// pushValueRefs protects every reference contained in v.
func (rt *Runtime) pushValueRefs(v heap.Value) {
	switch v.Kind() {
	case heap.KindRef:
		id, _ := v.Ref()
		rt.stack = append(rt.stack, id)
	case heap.KindList:
		elems, _ := v.List()
		for _, e := range elems {
			rt.pushValueRefs(e)
		}
	}
}

// reached is a reference turned into a resident receiver. proxy is nil for a
// same-cluster (direct) reference; otherwise it is the swap-cluster-proxy the
// reference went through, mediating from cluster src into cluster dst.
type reached struct {
	obj      *heap.Object
	proxy    *heap.Object
	src, dst ClusterID
}

// reach resolves the reference id to its resident receiver — the one place a
// boundary is crossed (DESIGN §6c has the decision table). A direct reference
// yields the object, reloading its cluster when host code held the reference
// across a swap-out. A swap-cluster-proxy records the crossing, faults the
// target's cluster in (or consumes the prefetcher's work) and yields the
// ultimate target. An object-fault proxy runs the replication fault handler
// and resolves again on what it returns.
func (rt *Runtime) reach(id heap.ObjID) (reached, error) {
	for {
		d, err := rt.designate(id)
		if err != nil {
			return reached{}, err
		}
		switch d.kind {
		case refAway:
			obj, err := rt.materialize(id)
			return reached{obj: obj}, err
		case refProxy:
			src := proxySrc(d.obj)
			dst, swapped := rt.mgr.enterCrossing(src, d.ultimate)
			if !swapped {
				rt.notePrefetchHit(dst)
			} else if err := rt.reload(dst); err != nil {
				return reached{}, err
			}
			obj, err := rt.h.Get(d.ultimate)
			if err != nil {
				return reached{}, fmt.Errorf("core: proxy target @%d: %w", d.ultimate, err)
			}
			return reached{obj: obj, proxy: d.obj, src: src, dst: dst}, nil
		case refObjFault:
			if rt.faultHandler == nil {
				return reached{}, fmt.Errorf("core: object fault on @%d without fault handler", id)
			}
			resolved, err := rt.faultHandler.HandleFault(rt, d.obj)
			if err != nil {
				return reached{}, fmt.Errorf("core: object fault: %w", err)
			}
			if id, err = resolved.Ref(); err != nil {
				return reached{}, err
			}
			if id == heap.NilID {
				return reached{}, fmt.Errorf("%w: object fault on @%d resolved to nil", heap.ErrNilTarget, d.ultimate)
			}
			rt.pushStack(id)
		default:
			return reached{obj: d.obj}, nil
		}
	}
}

// reload faults a swapped-out cluster back in on behalf of a reference. A
// cluster that turned resident between the crossing's look and the fault —
// its flight, often the prefetcher's, closed in between — is what the
// reference needed, and the crossing a resident one.
func (rt *Runtime) reload(cluster ClusterID) error {
	_, err := rt.swapInWith(cluster, causedBy(CauseReload))
	switch {
	case errors.Is(err, ErrClusterLoaded):
		rt.notePrefetchHit(cluster)
	case err != nil:
		return fmt.Errorf("core: reload cluster %d: %w", cluster, err)
	}
	return nil
}

// materialize returns the resident object with identity id, faulting its
// swap-cluster back in when it is a member of a swapped-out one (host code
// may legitimately hold direct references across a swap).
func (rt *Runtime) materialize(id heap.ObjID) (*heap.Object, error) {
	o, err := rt.h.Get(id)
	if err == nil {
		return o, nil
	}
	info, member := rt.mgr.member(id)
	if !member || !rt.mgr.IsSwapped(info.cluster) {
		return nil, err
	}
	if err := rt.reload(info.cluster); err != nil {
		return nil, err
	}
	return rt.h.Get(id)
}

// Invoke dispatches a method on the object designated by target, applying
// swap-cluster-proxy interception, replication faults and swap-in reloads as
// the reference demands. It implements heap.Invoker, so nested invocations
// made by method bodies flow back through it. The results follow
// heap.Call's lifetime rule: they may live in the frame pool's arenas.
func (rt *Runtime) Invoke(target heap.Value, method string, args ...heap.Value) (res []heap.Value, err error) {
	f, err := rt.enter(target, "method", method)
	if err != nil {
		return nil, err
	}
	defer func() {
		f.rt.frames.Leave(f.rt.depth, res) // the depth's Call keeps only res
		f.leave(err, res...)
	}()
	for _, a := range args {
		rt.pushValueRefs(a)
	}
	r, err := rt.reach(f.id)
	if err != nil {
		return nil, err
	}
	if r.proxy != nil {
		return rt.invokeAcross(r, method, args)
	}
	// The intra-cluster fast path: dispatch through the class's behavior plane
	// (generated switch or closure table — the runtime does not care which).
	rt.mgr.touch(r.obj.ID(), false)
	return r.obj.Class().Invoke(method, rt.frames.Enter(rt.depth, r.obj, args))
}

// invokeAcross dispatches on the far side of a swap-cluster boundary:
// arguments are translated into the target cluster's perspective and results
// back into the caller's — or, on an assign-mode proxy returning a single
// reference, the proxy patches itself onto it (Section 4). Whatever it
// translates, and the patched proxy, it returns through the Call's arena.
func (rt *Runtime) invokeAcross(r reached, method string, args []heap.Value) ([]heap.Value, error) {
	cls := r.obj.Class()
	if !cls.HasMethod(method) {
		return nil, fmt.Errorf("%w: %s.%s (via proxy)", heap.ErrNoSuchMethod, cls.Name, method)
	}
	// Protect the receiver before argument interception, which can allocate,
	// evict and collect (the proxy itself was stacked by enter).
	rt.pushStack(r.obj.ID())
	call := rt.frames.Enter(rt.depth, r.obj, args)
	var err error
	if call.Args, err = rt.intercept(call, call.Args, r.dst, "argument"); err != nil {
		return nil, err
	}
	for _, a := range call.Args {
		rt.pushValueRefs(a)
	}
	res, err := cls.Invoke(method, call)
	if err != nil {
		return nil, err
	}
	if proxyMode(r.proxy) == proxyModeAssign && len(res) == 1 && res[0].IsRef() {
		v, err := rt.assignReturn(r.proxy, res[0])
		if err != nil {
			return nil, err
		}
		return call.Return(v), nil
	}
	return rt.intercept(call, res, r.src, "result")
}

// intercept translates the values passed across a boundary into the
// perspective of the cluster receiving them. When no value changes (scalars,
// and references that are already right for the receiver) vals itself passes
// through, as on the same-cluster path; at the first value that does change,
// vals is copied into call's arena and translated there.
func (rt *Runtime) intercept(call *heap.Call, vals []heap.Value, to ClusterID, what string) ([]heap.Value, error) {
	var out []heap.Value
	for i, v := range vals {
		tv, err := rt.translate(v, to)
		if err != nil {
			return nil, fmt.Errorf("core: intercept %s %d: %w", what, i, err)
		}
		if out == nil {
			if tv.Equal(v) {
				continue
			}
			out = call.Return(vals...)
		}
		out[i] = tv
	}
	if out == nil {
		return vals, nil
	}
	return out, nil
}

// assignReturn is the self-patching return path of an assign-mode proxy p:
// instead of minting a fresh proxy for the returned reference r, p is re-aimed
// at r's object and handed back.
func (rt *Runtime) assignReturn(p *heap.Object, r heap.Value) (heap.Value, error) {
	ultimate, err := rt.ultimateOf(r)
	if err != nil || ultimate == heap.NilID {
		return heap.Nil(), err
	}
	if !rt.mgr.retarget(p, ultimate) {
		// No mediation needed toward the caller: dismantle.
		return heap.Ref(ultimate), nil
	}
	// An actively-used cursor stays alive across collections even when only
	// host code references it.
	rt.h.TouchNursery(p.ID())
	return heap.Ref(p.ID()), nil
}

// Field reads a field through the swapping-aware indirection: a read through
// a proxy mediates any returned reference for the proxy's source cluster (an
// assign-mode cursor advances onto it instead); a direct read returns the raw
// value (same-cluster access).
func (rt *Runtime) Field(target heap.Value, name string) (res heap.Value, err error) {
	f, err := rt.enter(target, "field", name)
	if err != nil {
		return heap.Nil(), err
	}
	defer func() { f.leave(err, res) }()
	r, err := rt.reach(f.id)
	if err != nil {
		return heap.Nil(), err
	}
	v, err := r.obj.FieldByName(name)
	switch {
	case r.proxy == nil:
		rt.mgr.touch(r.obj.ID(), false)
		return v, err
	case err != nil:
		return heap.Nil(), err
	case proxyMode(r.proxy) == proxyModeAssign && v.IsRef():
		return rt.assignReturn(r.proxy, v)
	}
	return rt.translate(v, r.src)
}

// SetFieldValue writes a field through the swapping-aware indirection. The
// assigned value is always translated into the owning object's cluster
// perspective, maintaining the invariant that fields hold only intra-cluster
// direct references or proxies sourced at the owning cluster.
func (rt *Runtime) SetFieldValue(target heap.Value, name string, v heap.Value) error {
	f, err := rt.enter(target, "field", name)
	if err != nil {
		return err
	}
	defer f.leave(nil)
	rt.pushValueRefs(v)
	r, err := rt.reach(f.id)
	if err != nil {
		return err
	}
	owner := r.dst
	if r.proxy == nil {
		owner = rt.mgr.ClusterOf(r.obj.ID())
	}
	tv, err := rt.translate(v, owner)
	if err != nil {
		return err
	}
	return r.obj.SetFieldByName(name, tv)
}
