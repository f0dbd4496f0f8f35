package core

import (
	"context"
	"errors"
	"slices"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/placement"
	"objectswap/internal/store"
)

// Collect runs a local garbage collection integrated with swapping, per the
// paper's Section 3 "Integration with GC Mechanisms":
//
//   - the reachability of a swap-cluster is considered as a whole: while a
//     swapped cluster's replacement-object is reachable, every outbound proxy
//     it retains stays live, so downstream clusters are conservatively
//     preserved (this falls out of ordinary marking, since the
//     replacement-object holds heap references to those proxies);
//   - when a replacement-object has become unreachable, the whole swapped
//     cluster is dead: the storing device is instructed to drop the XML and
//     the SwappingManager forgets the cluster. No DGC spans the devices — all
//     decisions are local, and the device only ever stores, returns or drops.
//
// The runtime owns its heap (owner), so every collection of the heap, this
// one or one host code reaches through Heap under the runtime lock, marks
// from the runtime's roots (rootSet) and purges every record of what it
// swept (purge) before a swept block is reissued. The collection holds the
// runtime lock, so it never interleaves with a swap's reserve or commit and
// reads the invocation stack only while its dispatcher is parked. The device
// drops that follow run with the lock released — they are IO.
func (rt *Runtime) Collect() heap.CollectStats {
	rt.lock()
	defer rt.unlock()
	return rt.pass(false)
}

// owner is what the runtime gives its heap (heap.Owner): its roots (rootSet),
// the purge, and the lockcount build's check that the caller holds the
// runtime lock, the one way in (Held.Heap).
func (rt *Runtime) owner() heap.Owner {
	return heap.Owner{Roots: rt.rootSet, Purge: rt.purge, Held: rt.assertLocked}
}

// rootSet is what every pass marks from beside the heap's own roots: the
// invocation stack, then the host roots (hand), a swapped-out one by its
// cluster's replacement-object, so that the reference can fault it back.
func (rt *Runtime) rootSet() []heap.ObjID {
	rt.roots = append(rt.roots[:0], rt.stack...)
	for _, r := range rt.hosts {
		if cs := rt.mgr.table.clusters.get(r.cluster); cs != nil && cs.where.out() && !rt.h.Contains(r.id) {
			r.id = cs.replacement
		}
		rt.roots = append(rt.roots, r.id)
	}
	return rt.roots
}

// pass runs one collection, full (heap.Heap.Collect) or young
// (heap.Heap.CollectYoung), whose purge forgets what it swept; then it tells
// the donors of the dead swapped clusters purged since the previous pass to
// drop their copies, and retries the deferred drops. The caller holds the
// lock.
func (rt *Runtime) pass(young bool) heap.CollectStats {
	var st heap.CollectStats
	if young {
		st = rt.h.CollectYoung()
	} else {
		st = rt.h.Collect()
	}
	rt.dropDead()
	rt.retryDrops()
	return st
}

// purge is the heap's purge (heap.Owner.Purge), run by every collection
// before the swept blocks join the pool: it forgets every manager record of
// what the collection swept (reclaimed) and the swapped clusters whose
// replacement-objects it swept (sweepSwapped).
func (rt *Runtime) purge(swept []*heap.Object) {
	rt.mgr.reclaimed(swept)
	rt.sweepSwapped(swept)
}

// sweepSwapped forgets the swapped clusters whose replacement-objects the
// collection swept, in sweep order, reading each one's cluster from its
// $cluster field, and queues the copies their donors are owed a drop for
// (clusterTable.dead). A cluster an operation has reserved is never among
// them: the operation pinned its replacement-object when it reserved the
// cluster, in the same hold.
func (rt *Runtime) sweepSwapped(swept []*heap.Object) {
	tab := &rt.mgr.table
	for _, o := range swept {
		if o.Class().Special != heap.SpecialReplacement {
			continue
		}
		cs := tab.clusters.get(replacementCluster(o))
		if cs == nil || cs.where != swappedOut || cs.replacement != o.ID() {
			continue
		}
		tab.dead = append(tab.dead, forgotCopy{cs.id, cs.forget()})
		tab.drop(cs) // its inbound proxies were swept with its replacement
	}
}

// dropDead tells every replica of each queued dead swapped cluster to discard
// its copy, in sweep order; replicas on unreachable donors go to the
// deferred-drop queue. A collection that purges while the drops have the
// lock released queues its own for the next pass.
func (rt *Runtime) dropDead() {
	tab := &rt.mgr.table
	victims := tab.dead
	tab.dead = nil
	for _, v := range victims {
		c := v.copy
		rt.dropAll(context.Background(), c.devices, c.key, v.id)
		rt.emit(event.TopicSwapDrop, SwapEvent{
			Cluster: v.id, Device: c.primary(), Key: c.key, Bytes: c.payloadBytes, Replicas: c.devices,
		})
	}
}

// shedRetained gives donors short of room their space back: every cluster
// that is resident anyway forgets the copy it retains on any of the given
// donors, and the donors are told to drop it. It returns how many copies
// went; the clusters ship in full next time.
func (rt *Runtime) shedRetained(ctx context.Context, donors []placement.Candidate) int {
	var sheds []forgotCopy
	tab := &rt.mgr.table
	for cs := range tab.clusters.all {
		if cs.where == resident && slices.ContainsFunc(donors,
			func(c placement.Candidate) bool { return slices.Contains(cs.retained.devices, c.Name) }) {
			sheds = append(sheds, forgotCopy{cs.id, cs.forget()})
		}
	}
	for _, sh := range sheds {
		rt.dropAll(ctx, sh.copy.devices, sh.copy.key, sh.id)
	}
	return len(sheds)
}

// dropFromDevice instructs a device to discard a stored shipment. A key the
// device no longer holds (its lease lapsed, say) is discarded already.
func (rt *Runtime) dropFromDevice(ctx context.Context, device, key string) error {
	if rt.stores == nil {
		return ErrNoStores
	}
	s, err := rt.stores.Lookup(device)
	if err != nil {
		return err
	}
	if err := s.Drop(ctx, key); !errors.Is(err, store.ErrNotFound) {
		return err
	}
	return nil
}

// deferDrop queues a drop for the next collection: one that failed (the
// device may be temporarily unreachable), or one not worth a round trip on
// the caller's path.
func (m *Manager) deferDrop(device, key string, cluster ClusterID) {
	m.table.pendingDrops = append(m.table.pendingDrops, dropTicket{device: device, key: key, cluster: cluster})
}

// forgotCopy is a copy cluster id's record forgot (clusterState.forget),
// which its donors are owed a Drop for.
type forgotCopy struct {
	id   ClusterID
	copy donorCopy
}

// queueDrops defers a drop of every replica of each forgotten copy.
func (tab *clusterTable) queueDrops(forgot ...forgotCopy) {
	for _, f := range forgot {
		for _, d := range f.copy.devices {
			tab.pendingDrops = append(tab.pendingDrops, dropTicket{device: d, key: f.copy.key, cluster: f.id})
		}
	}
}

// DefaultDropRetryLimit bounds how many collections may re-attempt one
// deferred device-drop before it is abandoned.
const DefaultDropRetryLimit = 8

// retryDrops re-attempts queued drops, once per collection pass (an eviction
// pass's pressure collection is one pass, hence one attempt). A ticket that
// keeps failing is not retried forever: after the retry budget is spent it is
// abandoned with a swap.drop.abandoned event, so operators learn about the
// leaked remote payload instead of the queue growing without bound. The
// drops run with the runtime lock released.
func (rt *Runtime) retryDrops() {
	tab := &rt.mgr.table
	pending := tab.pendingDrops
	if len(pending) == 0 {
		return
	}
	tab.pendingDrops = nil
	rt.unlocked(func() { // keeps the tickets whose drop failed
		pending = slices.DeleteFunc(pending, func(t dropTicket) bool {
			return rt.dropFromDevice(context.Background(), t.device, t.key) == nil
		})
	})
	for _, t := range pending {
		if t.attempts++; t.attempts < DefaultDropRetryLimit {
			tab.pendingDrops = append(tab.pendingDrops, t)
			continue
		}
		tab.abandonedDrops++
		rt.emit(event.TopicDropAbandoned, SwapEvent{
			Cluster: t.cluster, Device: t.device, Key: t.key,
		})
	}
}

// PendingDrops reports how many device-drop instructions await retry.
func (m *Manager) PendingDrops() int {
	m.rt.lock()
	defer m.rt.unlock()
	return len(m.table.pendingDrops)
}

// AbandonedDrops reports how many deferred drops exhausted their retry
// budget — each one is a payload possibly leaked on a remote device.
func (m *Manager) AbandonedDrops() int {
	m.rt.lock()
	defer m.rt.unlock()
	return m.table.abandonedDrops
}

// reclaimed purges every record the SwappingManager keeps of the objects a
// collection just swept (purge), read from their own fields
// and headers: the paper's proxy-finalizer semantics in one pass. A swept
// proxy leaves the shared indexes; a swept swap-cluster-proxy also leaves its
// home's inbound list and its source's edges — every proxy is listed from its
// mint on (newProxy) — and a swept member of a loaded cluster leaves it. An
// inbound list is compacted by the headers of its entries, with no probe of
// the heap's index. A resident cluster that loses its last member will never
// ship again: the copy it retains is queued for dropping. Edge counts that
// reached zero since the previous purge, and that no mint has raised since, go
// first (countEdge). sweepSwapped forgets the clusters of swept
// replacement-objects.
func (m *Manager) reclaimed(swept []*heap.Object) {
	if len(swept) == 0 {
		return
	}
	m.rt.assertLocked()
	h, tab := m.rt.h, &m.table
	tab.sweeps++
	tab.compactEdges()
	for _, o := range swept {
		if isObjProxy(o) {
			dropEntry(tab.objProxies, ObjProxyRemote(o), o.ID())
		}
		if !isProxy(o) {
			continue
		}
		tab.proxies.drop(proxyKey{src: proxySrc(o), target: proxyUltimate(o)}, o.ID())
		// The first swept proxy of a list compacts it, all at once. The
		// pass has unlinked what it swept and pools none of it before the
		// purge returns, so each entry's own header says whether it left.
		home := ClusterID(o.Owner())
		if cs := tab.clusters.get(home); cs != nil && cs.swept != tab.sweeps {
			cs.swept = tab.sweeps
			cs.inbound = slices.DeleteFunc(cs.inbound, func(p *heap.Object) bool { return !p.ResidentAs(p.ID()) })
		}
		if cs := tab.clusters.get(proxySrc(o)); cs != nil {
			tab.countEdge(cs, home, -1)
		}
	}
	for _, o := range swept {
		if o.Class().Special != heap.SpecialNone {
			continue
		}
		// The first swept member a list still holds compacts it, all at once,
		// into fresh runs: a swap-out may be reading the old ones
		// (swapOut.reserve).
		if cs := tab.clusters.get(ClusterID(o.Owner())); cs != nil && !cs.where.out() && cs.members.has(o.ID()) {
			cs.members = cs.members.keep(h.Contains)
			cs.changed()
			if len(cs.members) == 0 && cs.where == resident {
				tab.queueDrops(forgotCopy{cs.id, cs.forget()})
			}
		}
	}
}
