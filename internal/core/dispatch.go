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

// Held is a Runtime whose lock the caller holds: the Invoker method bodies
// call back through (heap.Call.RT), under the hold of the entry that
// dispatched them, and the one host code gets from Locked. Runtime's
// exported entries of the same names lock and call it. Its calls let go of
// the lock only where an operation does (I/O, a fault's wait, the evictor),
// and calling a Runtime entry under it deadlocks.
type Held Runtime

var _ heap.Invoker = (*Held)(nil)

// Locked runs fn under one hold of the runtime lock, for host code that
// takes several steps as one while other goroutines use the runtime (as
// replication installs a shipment, pinning what it mints in the mint's hold).
func (rt *Runtime) Locked(fn func(h *Held)) {
	rt.lock()
	defer rt.unlock()
	fn((*Held)(rt))
}

// Heap returns the device heap, which the hold guards: it is the one way in
// (DESIGN §6), and the heap is used only while the hold lasts. A collection
// run on it is the runtime's, as Collect says; only the donor drops of the
// dead swapped clusters it finds wait for the runtime's next pass.
func (h *Held) Heap() *heap.Heap { return h.h }

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
	if heap.LockCount {
		rt.assertDispatcher()
	}
	rt.depth++
	f := frame{rt: rt, id: id, save: len(rt.stack)}
	rt.stack = append(rt.stack, id)
	return f, nil
}

// leave drops the frame's protections and, when the operation succeeded,
// hands its results on (hand): to the parent frame, or, from the outermost
// frame, which clears the stack, to host code. Deferred by all three
// operations, it runs when a method body panics too.
func (f frame) leave(err error, results ...heap.Value) {
	rt := f.rt
	rt.stack = rt.stack[:f.save] // empty once the outermost frame leaves
	if rt.depth--; rt.depth == 0 {
		rt.dispatcher = 0
	}
	if err == nil {
		rt.hand(results...)
	}
}

// hostRef is a host root, with the cluster its header named when handed out.
type hostRef struct {
	id      heap.ObjID
	cluster ClusterID
}

// hand keeps the references an operation hands its caller live: inside a
// frame on the stack, at depth 0 as host roots (DESIGN §6c), which outside a
// Scope replace the previous call's, unless vals hold none.
func (rt *Runtime) hand(vals ...heap.Value) {
	n := len(rt.hosts)
	for _, v := range vals {
		rt.keep(v)
	}
	if rt.scopes == 0 && len(rt.hosts) > n {
		rt.hosts = append(rt.hosts[:0], rt.hosts[n:]...)
	}
}

// keep protects every object v references, as hand says.
func (rt *Runtime) keep(v heap.Value) {
	switch v.Kind() {
	case heap.KindRef:
		if rt.depth > 0 {
			rt.stack = append(rt.stack, v.MustRef())
		} else if o, err := rt.h.Get(v.MustRef()); err == nil {
			rt.hosts = append(rt.hosts, hostRef{o.ID(), ClusterID(o.Owner())})
		}
	case heap.KindList:
		elems, _ := v.List()
		for _, e := range elems {
			rt.keep(e)
		}
	}
}

// Scope runs fn, without the runtime lock, and keeps every reference handed
// to host code meanwhile a root until the last open scope closes, which lets
// go of all host roots. Scopes nest and share one list (DESIGN §6c).
func (rt *Runtime) Scope(fn func() error) error {
	rt.lock()
	rt.scopes++
	rt.unlock()
	defer func() {
		rt.lock()
		if rt.scopes--; rt.scopes == 0 {
			rt.hosts = rt.hosts[:0]
			if cap(rt.hosts) > 1<<10 { // a large scope leaves no residue
				rt.hosts, rt.roots = nil, nil
			}
		}
		rt.unlock()
	}()
	return fn()
}

// pushStack protects a middleware-created object for the duration of the
// enclosing frame; outside any frame (depth 0) it is a no-op.
func (rt *Runtime) pushStack(id heap.ObjID) {
	if rt.depth > 0 {
		rt.stack = append(rt.stack, id)
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
			src, dst := proxySrc(d.obj), d.home
			if !rt.mgr.enterCrossing(src, dst) {
				rt.notePrefetchHit(dst)
			} else {
				// The reload lets go of the lock; the stacked target keeps
				// its cluster active, so no swap-out takes it back out
				// before the target is reached.
				rt.pushStack(d.ultimate)
				if err := rt.reload(dst); err != nil {
					return reached{}, err
				}
			}
			obj, err := rt.h.Get(d.ultimate)
			if err != nil {
				return reached{}, fmt.Errorf("core: proxy target @%d: %w", d.ultimate, err)
			}
			return reached{obj: obj, proxy: d.obj, src: src, dst: dst}, nil
		case refObjFault:
			fh := rt.faultHandler
			if fh == nil {
				return reached{}, fmt.Errorf("core: object fault on @%d without fault handler", id)
			}
			// The handler replicates over the network through the exported
			// entries, unlocked; enter stacked the proxy, so it survives.
			remote := ObjProxyRemote(d.obj)
			var resolved heap.Value
			rt.unlocked(func() { resolved, err = fh.HandleFault(rt, remote) })
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
// reference needed, and the crossing a resident one. The caller holds the
// runtime lock, which the fault lets go of while it waits or fetches.
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
// may legitimately hold direct references across a swap). id is pinned
// across the reload, which lets go of the lock: a swap-out refuses a cluster
// with a pinned member, so none takes it back out before it is read.
func (rt *Runtime) materialize(id heap.ObjID) (*heap.Object, error) {
	o, err := rt.h.Get(id)
	if err == nil {
		return o, nil
	}
	cs := rt.mgr.table.listing(id)
	if cs == nil || !cs.where.out() {
		return nil, err
	}
	rt.h.Pin(id)
	defer rt.h.Unpin(id)
	if err := rt.reload(cs.id); err != nil {
		return nil, err
	}
	return rt.h.Get(id)
}

// Invoke dispatches a method on the object designated by target, applying
// swap-cluster-proxy interception, replication faults and swap-in reloads as
// the reference demands. Nested invocations made by method bodies flow back
// through held, under this call's hold of the runtime lock. The results
// follow heap.Call's lifetime rule: they may live in the frame pool's arenas.
func (rt *Runtime) Invoke(target heap.Value, method string, args ...heap.Value) ([]heap.Value, error) {
	rt.lock()
	defer rt.unlock()
	return (*Held)(rt).Invoke(target, method, args...)
}

// Invoke dispatches a method under the caller's hold (Runtime.Invoke): the
// dispatch itself, so a nested call costs the Go stack no extra frame.
func (h *Held) Invoke(target heap.Value, method string, args ...heap.Value) (res []heap.Value, err error) {
	rt := (*Runtime)(h)
	f, err := rt.enter(target, "method", method)
	if err != nil {
		return nil, err
	}
	defer func() {
		f.rt.frames.Leave(f.rt.depth, res) // the depth's Call keeps only res
		f.leave(err, res...)
	}()
	for _, a := range args {
		rt.keep(a)
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
	rt.mgr.touch(r.obj, false)
	return r.obj.Class().Invoke(method, rt.frames.Enter(rt.depth, r.obj, args))
}

// invokeAcross dispatches on the far side of a swap-cluster boundary:
// arguments are translated into the target cluster's perspective and results
// back into the caller's — or, on an assign-mode proxy returning a single
// reference, the proxy patches itself onto it (Section 4). Whatever it
// translates, and the patched proxy, it returns through the Call's arena.
func (rt *Runtime) invokeAcross(r reached, method string, args []heap.Value) ([]heap.Value, error) {
	body, err := r.obj.Class().Method(method)
	if err != nil {
		return nil, fmt.Errorf("%w (via proxy)", err)
	}
	// Protect the receiver before argument interception, which can allocate,
	// evict and collect (the proxy itself was stacked by enter).
	rt.pushStack(r.obj.ID())
	call := rt.frames.Enter(rt.depth, r.obj, args)
	if call.Args, err = rt.intercept(call, call.Args, r.dst, "argument"); err != nil {
		return nil, err
	}
	for _, a := range call.Args {
		rt.keep(a)
	}
	res, err := body(call)
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
	d, err := rt.ultimateOf(r)
	if err != nil || d.ultimate == heap.NilID {
		return heap.Nil(), err
	}
	// The frame stacks the proxy it reached through, so p is resident under
	// the id it carries.
	id := p.ID()
	ok, err := rt.mgr.retarget(p, id, d.ultimate, d.home)
	if err != nil {
		return heap.Nil(), err
	}
	if !ok {
		// No mediation needed toward the caller: dismantle.
		return heap.Ref(d.ultimate), nil
	}
	return heap.Ref(id), nil
}

// Field reads a field through the swapping-aware indirection: a read through
// a proxy mediates any returned reference for the proxy's source cluster (an
// assign-mode cursor advances onto it instead); a direct read returns the raw
// value (same-cluster access).
func (rt *Runtime) Field(target heap.Value, name string) (heap.Value, error) {
	rt.lock()
	defer rt.unlock()
	return (*Held)(rt).Field(target, name)
}

// Field reads a field under the caller's hold (Runtime.Field).
func (h *Held) Field(target heap.Value, name string) (res heap.Value, err error) {
	rt := (*Runtime)(h)
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
		rt.mgr.touch(r.obj, false)
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
	rt.lock()
	defer rt.unlock()
	return (*Held)(rt).SetFieldValue(target, name, v)
}

// SetFieldValue writes a field under the caller's hold
// (Runtime.SetFieldValue).
func (h *Held) SetFieldValue(target heap.Value, name string, v heap.Value) error {
	rt := (*Runtime)(h)
	f, err := rt.enter(target, "field", name)
	if err != nil {
		return err
	}
	defer f.leave(nil)
	rt.keep(v)
	r, err := rt.reach(f.id)
	if err != nil {
		return err
	}
	owner := r.dst
	if r.proxy == nil {
		owner = ClusterID(r.obj.Owner())
	}
	tv, err := rt.translate(v, owner)
	if err != nil {
		return err
	}
	return r.obj.SetFieldByName(name, tv)
}
