package replication

import (
	"context"
	"fmt"
	"maps"
	"sync"

	"objectswap/internal/core"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// ClusterEvent is the payload of replication.cluster events.
type ClusterEvent struct {
	// Seed is the remote identity whose fault triggered the shipment.
	Seed heap.ObjID
	// Objects is the number of objects installed.
	Objects int
	// SwapCluster is the swap-cluster the shipment was assigned to.
	SwapCluster core.ClusterID
}

// Stats summarizes a replicator's activity.
type Stats struct {
	Faults           int // object faults taken
	ClustersFetched  int // shipments installed
	ObjectsInstalled int
	ProxiesReplaced  int // object-fault proxies eliminated by replacement
	UpdatesPushed    int // dirty replicas written back to the master
}

// Replicator drives incremental replication on a constrained device. It
// implements core.FaultHandler: install it with Runtime.SetFaultHandler (the
// Attach constructor does so). It reaches the device heap only under the
// runtime lock (Runtime.Locked). The write observer runs under that lock and
// takes mu, so mu is never held across a call into the runtime.
type Replicator struct {
	rt        *core.Runtime
	transport Transport

	mu sync.Mutex
	// remoteToLocal maps master identities to local replicas (and
	// localToRemote the reverse, for write-back).
	remoteToLocal map[heap.ObjID]heap.ObjID
	localToRemote map[heap.ObjID]heap.ObjID
	// dirty tracks replicas with unpushed writes.
	dirty map[heap.ObjID]bool
	// groupSize is the number of replication clusters grouped into one
	// swap-cluster (the paper's adaptable macro-object size).
	groupSize int
	current   core.ClusterID
	inCurrent int
	stats     Stats
}

var _ core.FaultHandler = (*Replicator)(nil)

// Option configures a Replicator.
type Option func(*Replicator)

// WithGroupSize sets how many replication clusters share one swap-cluster
// (default 1: every shipment is its own swap-cluster).
func WithGroupSize(n int) Option {
	return func(r *Replicator) {
		if n > 0 {
			r.groupSize = n
		}
	}
}

// Attach builds a replicator over transport and installs it as rt's fault
// handler. Attach once per runtime: the write observer it registers stays
// for the heap's lifetime.
func Attach(rt *core.Runtime, transport Transport, opts ...Option) *Replicator {
	r := &Replicator{
		rt:            rt,
		transport:     transport,
		remoteToLocal: make(map[heap.ObjID]heap.ObjID),
		localToRemote: make(map[heap.ObjID]heap.ObjID),
		dirty:         make(map[heap.ObjID]bool),
		groupSize:     1,
	}
	for _, opt := range opts {
		opt(r)
	}
	rt.SetFaultHandler(r)
	r.enableWriteback()
	return r
}

// StatsSnapshot returns a copy of the activity counters.
func (r *Replicator) StatsSnapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// ReplicateRoot makes the master's named root available on the device under
// the same root name: as the local replica if already fetched, otherwise as
// an object-fault proxy whose first use replicates its cluster. ctx bounds
// the master round trip.
func (r *Replicator) ReplicateRoot(ctx context.Context, name string) (heap.Value, error) {
	remote, class, err := r.transport.FetchRoot(ctx, name)
	if err != nil {
		return heap.Nil(), err
	}
	r.mu.Lock()
	local, ok := r.remoteToLocal[remote]
	r.mu.Unlock()
	var v heap.Value
	r.rt.Locked(func(x *core.Held) {
		ref := heap.Ref(local)
		if !ok {
			var pid heap.ObjID
			if pid, err = x.ObjProxyFor(remote, class); err != nil {
				return
			}
			ref = heap.Ref(pid)
		}
		if err = x.SetRoot(name, ref); err == nil {
			v, _ = x.Heap().Root(name)
		}
	})
	return v, err
}

// Prefetch eagerly replicates up to maxObjects objects reachable from the
// named master root — hoarding for disconnected operation: after a prefetch,
// traversals within the hoarded region need no connectivity to the master
// (swapping to nearby devices still works, and the catalogue survives master
// loss entirely once fully hoarded). It returns the number of objects
// installed by this call. ctx bounds the whole hoarding sweep: it is checked
// between shipments and passed to every fetch.
func (r *Replicator) Prefetch(ctx context.Context, rootName string, maxObjects int) (int, error) {
	if _, err := r.ReplicateRoot(ctx, rootName); err != nil {
		return 0, err
	}
	before := r.StatsSnapshot().ObjectsInstalled
	for {
		installed := r.StatsSnapshot().ObjectsInstalled - before
		if maxObjects > 0 && installed >= maxObjects {
			return installed, nil
		}
		if err := ctx.Err(); err != nil {
			return installed, err
		}
		// Find any live object-fault placeholder and fault it in. The sweep
		// in replicateCluster keeps replacing resolved ones, so each round
		// makes progress toward a fully hoarded graph.
		remote, ok := r.nextPlaceholder()
		if !ok {
			return installed, nil // fully hoarded
		}
		if _, err := r.handleFault(ctx, remote); err != nil {
			return r.StatsSnapshot().ObjectsInstalled - before, err
		}
	}
}

// nextPlaceholder returns the remote identity of a live object-fault proxy
// reachable from the application graph, if any.
func (r *Replicator) nextPlaceholder() (remote heap.ObjID, ok bool) {
	r.rt.Locked(func(x *core.Held) {
		h := x.Heap()
		reach := h.ReachableFromRoots()
		for _, oid := range h.IDs() {
			if !reach[oid] {
				continue
			}
			if o, err := h.Get(oid); err == nil && o.Class().Special == heap.SpecialObjProxy {
				remote, ok = core.ObjProxyRemote(o), true
				return
			}
		}
	})
	return remote, ok
}

// HandleFault implements core.FaultHandler: it replicates the cluster
// containing the remote target and returns a reference to the local replica.
// Faults triggered by application traversal carry no caller context, so the
// fetch runs unbounded (context.Background); Prefetch routes through
// handleFault directly to keep its context.
func (r *Replicator) HandleFault(rt *core.Runtime, remote heap.ObjID) (heap.Value, error) {
	return r.handleFault(context.Background(), remote)
}

// handleFault is HandleFault with an explicit context.
func (r *Replicator) handleFault(ctx context.Context, remote heap.ObjID) (heap.Value, error) {
	r.mu.Lock()
	r.stats.Faults++
	local, done := r.remoteToLocal[remote]
	r.mu.Unlock()
	if done {
		// Already replicated (the proxy is a stale alias awaiting sweep).
		return heap.Ref(local), nil
	}
	if err := r.replicateCluster(ctx, remote); err != nil {
		return heap.Nil(), err
	}
	r.mu.Lock()
	local, done = r.remoteToLocal[remote]
	r.mu.Unlock()
	if !done {
		return heap.Nil(), fmt.Errorf("replication: shipment for @%d did not contain it", remote)
	}
	return heap.Ref(local), nil
}

// replicateCluster fetches and installs the shipment containing remote.
func (r *Replicator) replicateCluster(ctx context.Context, remote heap.ObjID) error {
	doc, err := r.transport.FetchCluster(ctx, remote)
	if err != nil {
		return fmt.Errorf("replication: fetch cluster of @%d: %w", remote, err)
	}

	// Pick the swap-cluster this shipment joins. A fresh one is made with mu
	// released; one a concurrent shipment overtook stays empty.
	var sc, made core.ClusterID
	for sc == core.RootCluster {
		r.mu.Lock()
		if r.current != core.RootCluster && r.inCurrent < r.groupSize {
			sc = r.current
			r.inCurrent++
		} else if made != core.RootCluster {
			r.current, r.inCurrent, sc = made, 1, made
		}
		r.mu.Unlock()
		if sc == core.RootCluster {
			made = r.rt.Manager().NewCluster()
		}
	}

	// Installation and proxy-replacement writes are not user mutations: the
	// dirty set is as it was before the install, in the install's own hold,
	// so a push (which reads the set under the runtime lock) never sees the
	// replicas an install is filling.
	var installed int
	r.rt.Locked(func(x *core.Held) {
		r.mu.Lock()
		preDirty := maps.Clone(r.dirty)
		r.mu.Unlock()
		installed, err = r.install(x, doc, sc)
		r.mu.Lock()
		r.dirty = preDirty
		r.mu.Unlock()
	})
	if err != nil {
		return err
	}
	if bus := r.rt.Bus(); bus != nil {
		bus.Emit(event.TopicClusterReplicated, ClusterEvent{
			Seed:        remote,
			Objects:     installed,
			SwapCluster: sc,
		})
	}
	return nil
}

// install installs the shipment doc as replicas in swap-cluster sc and
// replaces the object-fault proxies they resolve, under one hold of the
// runtime lock. It returns the number of replicas installed.
func (r *Replicator) install(x *core.Held, doc *xmlcodec.Doc, sc core.ClusterID) (int, error) {
	// Replicas are unreachable until pass 2 links them, and so is an
	// object-fault proxy until pass 2 stores it: each is pinned in the hold
	// that mints it, across the collections an allocation's eviction runs
	// with the lock let go.
	h := x.Heap()
	var pinned []heap.ObjID
	defer func() {
		for _, id := range pinned {
			h.Unpin(id)
		}
	}()

	// Pass 1: allocate local replicas under fresh local identities.
	type pending struct {
		local *heap.Object
		enc   xmlcodec.Object
	}
	installed := make([]pending, 0, len(doc.Objects))
	newLocal := make(map[heap.ObjID]heap.ObjID, len(doc.Objects))
	for _, eo := range doc.Objects {
		// Clusters may overlap (shared subgraphs reached from several
		// seeds); an object replicated earlier keeps its single replica.
		r.mu.Lock()
		_, exists := r.remoteToLocal[eo.ID]
		r.mu.Unlock()
		if exists {
			continue
		}
		cls, err := r.rt.Registry().Lookup(eo.Class)
		if err != nil {
			return 0, fmt.Errorf("replication: shipment class: %w", err)
		}
		o, err := x.NewObject(cls, sc)
		if err != nil {
			return 0, fmt.Errorf("replication: install replica of @%d: %w", eo.ID, err)
		}
		h.Pin(o.ID())
		pinned = append(pinned, o.ID())
		newLocal[eo.ID] = o.ID()
		installed = append(installed, pending{local: o, enc: eo})
	}
	r.mu.Lock()
	for remoteID, localID := range newLocal {
		r.remoteToLocal[remoteID] = localID
		r.localToRemote[localID] = remoteID
	}
	lookup := make(map[heap.ObjID]heap.ObjID, len(r.remoteToLocal))
	for k, v := range r.remoteToLocal {
		lookup[k] = v
	}
	r.stats.ClustersFetched++
	r.stats.ObjectsInstalled += len(installed)
	r.mu.Unlock()

	// Pass 2: decode fields. Internal references resolve through the fresh
	// replicas; remote references resolve to existing replicas (possibly in
	// other swap-clusters — SetFieldValue re-mediates them with
	// swap-cluster-proxies) or to object-fault proxies.
	decodeRef := func(v xmlcodec.Value) (heap.Value, error) {
		switch v.RefClass {
		case xmlcodec.RefRemote:
			if localID, ok := lookup[v.Target]; ok {
				return heap.Ref(localID), nil
			}
			pid, err := x.ObjProxyFor(v.Target, v.Class)
			if err != nil {
				return heap.Nil(), err
			}
			h.Pin(pid)
			pinned = append(pinned, pid)
			return heap.Ref(pid), nil
		default:
			return heap.Nil(), fmt.Errorf("replication: unexpected reference class %v", v.RefClass)
		}
	}
	for _, p := range installed {
		for _, f := range p.enc.Fields {
			// Internal refs name master identities; rewrite them through the
			// full replica map (overlapping shipments may reference replicas
			// installed by earlier clusters).
			fv := rewriteInternal(f.Value, lookup)
			hv, err := fv.ToHeapValue(decodeRef)
			if err == nil {
				err = x.SetFieldValue(p.local.RefTo(), f.Name, hv)
			}
			if err != nil {
				return 0, fmt.Errorf("replication: field %s of replica @%d: %w", f.Name, p.local.ID(), err)
			}
		}
	}

	// Pass 3: proxy replacement — eliminate object-fault proxies that now
	// have local replicas, from every resident object and root.
	replaced := r.replaceProxies(x, lookup)
	r.mu.Lock()
	r.stats.ProxiesReplaced += replaced
	r.mu.Unlock()
	return len(installed), nil
}

// rewriteInternal maps the internal (master-identity) references of an
// encoded value onto the fresh local identities.
func rewriteInternal(v xmlcodec.Value, newLocal map[heap.ObjID]heap.ObjID) xmlcodec.Value {
	switch {
	case v.Kind == heap.KindRef && v.RefClass == xmlcodec.RefInternal:
		if localID, ok := newLocal[v.Target]; ok {
			return xmlcodec.InternalRef(localID)
		}
		return v
	case v.Kind == heap.KindList:
		out := v
		out.List = make([]xmlcodec.Value, len(v.List))
		for i, e := range v.List {
			out.List[i] = rewriteInternal(e, newLocal)
		}
		return out
	default:
		return v
	}
}

// replaceProxies sweeps the device graph replacing resolved object-fault
// proxies: each reference to a proxy whose remote identity now has a local
// replica is rewritten to target the replica (re-mediated by a
// swap-cluster-proxy when it crosses a swap-cluster boundary). This is the
// paper's proxy-replacement step, after which no replication indirection
// remains on replicated paths. It returns the number of references
// rewritten.
func (r *Replicator) replaceProxies(x *core.Held, lookup map[heap.ObjID]heap.ObjID) int {
	h := x.Heap()
	replaced := 0
	replace := func(v heap.Value) (heap.Value, bool) {
		if v.Kind() != heap.KindRef && v.Kind() != heap.KindList {
			return v, false
		}
		before := replaced
		nv := v.MapRefs(func(rid heap.ObjID) heap.ObjID {
			if o, err := h.Get(rid); err == nil && o.Class().Special == heap.SpecialObjProxy {
				if localID, ok := lookup[core.ObjProxyRemote(o)]; ok {
					replaced++
					return localID
				}
			}
			return rid
		})
		return nv, replaced > before
	}
	for _, oid := range h.IDs() {
		o, err := h.Get(oid)
		if err != nil || o.Class().Special != heap.SpecialNone {
			continue
		}
		for i := 0; i < o.NumFields(); i++ {
			if nv, ok := replace(o.Field(i)); ok {
				// SetFieldValue re-mediates cross-cluster references.
				_ = x.SetFieldValue(o.RefTo(), o.Class().Field(i).Name, nv)
			}
		}
	}
	for _, name := range h.RootNames() {
		v, _ := h.Root(name)
		if nv, ok := replace(v); ok {
			_ = x.SetRoot(name, nv)
		}
	}
	return replaced
}
