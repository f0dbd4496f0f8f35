package core

import (
	"fmt"

	"objectswap/internal/heap"
)

// buildProxyClass synthesizes the swap-cluster-proxy class, the one class of
// every proxy whatever its target's class. It stands for obicomp's per-class
// proxy types: dispatch recognizes heap.SpecialSCProxy and invokes the method
// on the target's own class, so a proxy needs no method table of its own.
func buildProxyClass() *heap.Class {
	p := heap.NewClass(proxyClassName,
		heap.FieldDef{Name: fldTarget, Kind: heap.KindRef},
		heap.FieldDef{Name: fldObj, Kind: heap.KindInt},
		heap.FieldDef{Name: fldSrc, Kind: heap.KindInt},
		heap.FieldDef{Name: fldMode, Kind: heap.KindInt},
	)
	p.Special = heap.SpecialSCProxy
	return p
}

// buildReplacementClass synthesizes the replacement-object class: "simply an
// array of references", and the id of the cluster it stands for. The key and
// the replica set a reload fetches from are the cluster record's retained copy.
func buildReplacementClass() *heap.Class {
	c := heap.NewClass(replacementClassName,
		heap.FieldDef{Name: fldClust, Kind: heap.KindInt},
		heap.FieldDef{Name: fldOut, Kind: heap.KindList},
	)
	c.Special = heap.SpecialReplacement
	return c
}

// replacementCluster reads the cluster a replacement-object stands for.
func replacementCluster(r *heap.Object) ClusterID {
	id, _ := r.Field(0).Int() // $cluster, the layout's first slot
	return ClusterID(id)
}

// isProxy reports whether the object is a swap-cluster-proxy.
func isProxy(o *heap.Object) bool { return o.Class().Special == heap.SpecialSCProxy }

// Fixed slot indices of the proxy class layout (see buildProxyClass): the
// boundary hop is the hot path of Figure 5, so proxy state is read and
// written by index, through the accessors below, never by name.
const (
	slotTarget = 0 // ref to the ultimate target, or to its cluster's replacement-object
	slotObj    = 1 // ultimate target ObjID (stable across swaps)
	slotSrc    = 2 // source cluster id
	slotMode   = 3 // proxyModeNormal or proxyModeAssign
)

func proxyInt(p *heap.Object, slot int) int64 {
	i, _ := p.Field(slot).Int()
	return i
}

// setProxySlot writes one slot of the fixed layout into proxy p, which the
// caller was handed under id. The slot kinds are the layout's own and
// fixed-size, so the write fails only when p is no longer resident under id:
// a collection swept it, and its block may since be another proxy
// (heap.Object.SetFieldAs). It reports whether it wrote.
func setProxySlot(p *heap.Object, id heap.ObjID, slot int, v heap.Value) bool {
	return p.SetFieldAs(id, slot, v) == nil
}

// proxyTarget reads the object a proxy points at (NilID until enlist).
func proxyTarget(p *heap.Object) heap.ObjID {
	id, _ := p.Field(slotTarget).Ref()
	return id
}

// proxyUltimate reads a proxy's ultimate target object id.
func proxyUltimate(p *heap.Object) heap.ObjID { return heap.ObjID(proxyInt(p, slotObj)) }

// proxySrc reads a proxy's source cluster.
func proxySrc(p *heap.Object) ClusterID { return ClusterID(proxyInt(p, slotSrc)) }

// proxyMode reads a proxy's mode field.
func proxyMode(p *heap.Object) int64 { return proxyInt(p, slotMode) }

// proxyFor returns (creating or reusing) the shared swap-cluster-proxy
// mediating references from cluster src to the object target. It assumes
// target is NOT a member of src (callers dismantle that case into a direct
// reference).
func (rt *Runtime) proxyFor(src ClusterID, target heap.ObjID, home ClusterID) (heap.ObjID, error) {
	// Belt and braces: the collection that sweeps a proxy purges its entry
	// before it returns — but check before handing it out.
	if pid, ok := rt.mgr.table.proxies.get(proxyKey{src: src, target: target}); ok && rt.h.Contains(pid) {
		return pid, nil
	}
	return rt.newProxy(src, target, home, false)
}

// newProxy allocates a swap-cluster-proxy from cluster src to the object
// target of cluster home and lists it with home's record: the shared one
// every later proxyFor(src, target) reuses, or a private assign-mode cursor,
// which swap-out points and the collection purges like any other but the
// registry never hands out. The proxy is born with its target, source and
// mode slots set, so nothing writes it between its allocation and its
// listing, and from there on the mint uses only its id. The runtime lock is
// held from the allocation to the caller's push onto the stack, so no
// collection runs in between; should one sweep it all the same, enlist
// refuses its block, even once a later collection has reissued it as another
// proxy, and the proxy is minted again.
func (rt *Runtime) newProxy(src ClusterID, target heap.ObjID, home ClusterID, cursor bool) (heap.ObjID, error) {
	mode := proxyModeNormal
	if cursor {
		mode = proxyModeAssign
	}
	p, err := rt.allocMiddleware(rt.proxyClass,
		heap.Nil(), heap.Int(int64(target)), heap.Int(int64(src)), heap.Int(mode))
	if err != nil {
		return heap.NilID, fmt.Errorf("core: allocate proxy: %w", err)
	}
	id := p.ID()
	if rt.yield != nil {
		rt.yield("mint")
	}
	if !rt.mgr.enlist(p, id, src, target, home) {
		return rt.newProxy(src, target, home, cursor)
	}
	return id, nil
}

// AssignedCursor builds a dedicated, assign-optimized cursor proxy for the
// object v designates, sourced at swap-cluster-0. This is the intended use of
// SwapClusterUtils.assign in Section 4: the cursor variable gets its own
// proxy instance, which patches itself as the iteration advances instead of
// creating (and discarding) one proxy per step. The cursor proxy is private:
// it is never handed out by the registry, so patching it cannot corrupt
// other references to the same targets.
//
// If v designates an object of swap-cluster-0 itself, no mediation is needed
// and v is returned unchanged.
func (rt *Runtime) AssignedCursor(v heap.Value) (heap.Value, error) {
	rt.lock()
	defer rt.unlock()
	d, err := rt.ultimateOf(v)
	if err != nil {
		return heap.Nil(), err
	}
	if d.ultimate == heap.NilID {
		return heap.Nil(), heap.ErrNilTarget
	}
	cursor := heap.Ref(d.ultimate)
	if d.home != RootCluster {
		pid, err := rt.newProxy(RootCluster, d.ultimate, d.home, true)
		if err != nil {
			return heap.Nil(), err
		}
		cursor = heap.Ref(pid)
	}
	rt.hand(cursor)
	return cursor, nil
}

// refKind classifies what a reference designates.
type refKind uint8

const (
	refDirect   refKind = iota // a resident application object
	refAway                    // a member of a swapped-out cluster, held directly across the swap
	refProxy                   // a swap-cluster-proxy
	refObjFault                // an object-fault proxy (cluster-agnostic placeholder)
)

// designation is the answer to "what does this reference ultimately
// designate": obj is the resident object at the reference itself (nil for
// refAway), ultimate the identity of the application object behind it — a
// proxy's recorded target, anything else itself — and home the cluster
// ultimate belongs to, read from obj's header or, for refAway, found by the
// swapped record that lists it.
type designation struct {
	kind     refKind
	obj      *heap.Object
	ultimate heap.ObjID
	home     ClusterID
}

// designate classifies the reference id without faulting anything in. It is
// the one ladder reach, translateRef and ultimateOf share.
func (rt *Runtime) designate(id heap.ObjID) (designation, error) {
	o, err := rt.h.Get(id)
	if err != nil {
		// Non-resident members of swapped clusters keep their identities.
		if cs := rt.mgr.table.listing(id); cs != nil && cs.where.out() {
			return designation{kind: refAway, ultimate: id, home: cs.id}, nil
		}
		return designation{}, err
	}
	switch o.Class().Special {
	case heap.SpecialSCProxy:
		return designation{refProxy, o, proxyUltimate(o), ClusterID(o.Owner())}, nil
	case heap.SpecialObjProxy:
		return designation{refObjFault, o, id, RootCluster}, nil
	case heap.SpecialReplacement:
		return designation{}, errCorrupt
	default:
		return designation{refDirect, o, id, ClusterID(o.Owner())}, nil
	}
}

// translate rewrites a value into the perspective of cluster `to`: every
// contained reference is dismantled to a direct reference when its ultimate
// target belongs to `to`, and otherwise mediated by the (unique) proxy for
// (to, target). This is the reference-interception rule set of Section 4.
func (rt *Runtime) translate(v heap.Value, to ClusterID) (heap.Value, error) {
	switch v.Kind() {
	case heap.KindRef:
		id, _ := v.Ref()
		return rt.translateRef(id, to)
	case heap.KindList:
		elems, _ := v.List()
		out := make([]heap.Value, len(elems))
		for i, e := range elems {
			te, err := rt.translate(e, to)
			if err != nil {
				return heap.Nil(), err
			}
			out[i] = te
		}
		return heap.List(out...), nil
	default:
		return v, nil
	}
}

// translateRef applies the per-reference interception rules (DESIGN §6c):
// dismantle, reuse, or mint.
func (rt *Runtime) translateRef(id heap.ObjID, to ClusterID) (heap.Value, error) {
	if id == heap.NilID {
		return heap.Nil(), nil
	}
	d, err := rt.designate(id)
	switch {
	case err != nil:
		return heap.Nil(), err
	case d.kind == refObjFault:
		// Object-fault proxies pass through unchanged and are replaced (not
		// wrapped) after replication.
		return heap.Ref(id), nil
	case d.home == to:
		if d.kind == refAway {
			// A same-cluster reference to a non-resident member cannot arise
			// from the interception rules; surface the dangle.
			_, err := rt.h.Get(id)
			return heap.Nil(), err
		}
		// Dismantle: a reference into the receiving cluster itself becomes
		// direct — including a stale proxy whose target was merged into it.
		return heap.Ref(d.ultimate), nil
	case d.kind == refProxy && proxySrc(d.obj) == to:
		// Reuse: already the right proxy for this cluster.
		return heap.Ref(id), nil
	}
	// Mint (or find) the proxy for (to, ultimate). A direct reference to a
	// member of a swapped-out cluster is valid currency here: it translates
	// without faulting the cluster in (the proxy targets the replacement).
	pid, err := rt.proxyFor(to, d.ultimate, d.home)
	if err != nil {
		return heap.Nil(), err
	}
	// Protect the possibly fresh proxy until the caller anchors it.
	rt.pushStack(pid)
	return heap.Ref(pid), nil
}

// Assign enables the iteration optimization of Section 4 on a
// swap-cluster-proxy reference: instead of creating a fresh proxy for each
// reference it returns, the proxy patches itself to the returned object and
// hands back a reference to itself. This is SwapClusterUtils.assign.
func (rt *Runtime) Assign(v heap.Value) error {
	rt.lock()
	defer rt.unlock()
	id, err := v.Ref()
	if err != nil {
		return err
	}
	o, err := rt.h.Get(id)
	if err != nil {
		return err
	}
	if !isProxy(o) {
		return fmt.Errorf("%w: %s", ErrNotProxy, o.Class().Name)
	}
	// A proxy that re-aims itself leaves the shared registry for good: reuse
	// must not hand out a reference moving under its holder.
	rt.mgr.table.proxies.drop(proxyKey{src: proxySrc(o), target: proxyUltimate(o)}, id)
	if !setProxySlot(o, id, slotMode, heap.Int(proxyModeAssign)) {
		return fmt.Errorf("%w: @%d", heap.ErrNoSuchObject, id)
	}
	return nil
}

// ProxyTarget reports the ultimate application object a swap-cluster-proxy
// designates. ok is false when o is not a swap-cluster-proxy.
func ProxyTarget(o *heap.Object) (heap.ObjID, bool) {
	if o == nil || !isProxy(o) {
		return heap.NilID, false
	}
	return proxyUltimate(o), true
}

// IsProxyRef reports whether v currently designates a swap-cluster-proxy.
func (rt *Runtime) IsProxyRef(v heap.Value) bool {
	id, err := v.Ref()
	if err != nil || id == heap.NilID {
		return false
	}
	rt.lock()
	defer rt.unlock()
	o, err := rt.h.Get(id)
	return err == nil && isProxy(o)
}
