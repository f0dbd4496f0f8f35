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
// In-flight invocation operands (the middleware's stand-in for thread stacks)
// are passed to the collector as extra roots.
//
// The mark-sweep, the purge of every record of what it swept (reclaimed) and
// the swapped-cluster sweep hold the runtime lock, so a collection never
// interleaves with a swap's reserve or commit, reads the invocation stack
// only while its dispatcher is parked, and no swept record outlives it. The
// device drops that follow run with the lock released — they are IO.
//
// The result's Swept is a report whose lifetime was the collection's hold:
// before it let go of the lock, the collection gave the blocks of the swept
// swap-cluster-proxies and replacement-objects back to the heap's pool
// (heap.Heap.PoolSwept), which reissues them to the next mints and swap-outs
// under fresh ids. So its objects name what was swept only until the next
// allocation, and the list only until the next collection.
func (rt *Runtime) Collect() heap.CollectStats {
	rt.lock()
	defer rt.unlock()
	return rt.collect(1)
}

// pressureCycles is the nursery grace an eviction pass's young collection
// burns. It has to exceed the grace the façade grants every allocation (2):
// host-held garbage that only its grace protects — the dead
// swap-cluster-proxies a finished walk leaves behind — must go before a live
// cluster is shipped to make the room it occupies. Three is what the
// benchmark's exact eviction counts are pinned to (DESIGN §6).
const pressureCycles = 3

// collect is Collect with the nursery aged by the given number of cycles in
// the one full pass (see heap.CollectCycles).
func (rt *Runtime) collect(cycles int) heap.CollectStats {
	return rt.pass(cycles, false)
}

// pass runs one collection, full or young, purges every record of what it
// swept and gives the swept blocks to the heap's pool, all before it lets go
// of the runtime lock for the device drops: a block swept here is reissued
// by the next mint or swap-out, not one collection later. The caller holds
// the lock.
func (rt *Runtime) pass(cycles int, young bool) heap.CollectStats {
	var st heap.CollectStats
	if young {
		st = rt.h.CollectYoung(cycles, rt.stack...)
	} else {
		st = rt.h.CollectCycles(cycles, rt.stack...)
	}
	rt.mgr.reclaimed(st.Swept)
	dead := rt.sweepSwapped(st.Swept)
	rt.h.PoolSwept() // nothing reads the report past here
	rt.dropDead(dead)
	rt.retryDrops()
	return st
}

// sweepSwapped forgets the swapped clusters whose replacement-objects the
// collection swept, in sweep order, reading each one's cluster from its
// $cluster field, and returns the copies their donors are owed a drop for. A
// cluster an operation has reserved is never among them: the operation
// pinned its replacement-object when it reserved the cluster, in the same
// hold.
func (rt *Runtime) sweepSwapped(swept []*heap.Object) []forgotCopy {
	var victims []forgotCopy
	m := rt.mgr
	for _, o := range swept {
		if o.Class().Special != heap.SpecialReplacement {
			continue
		}
		cs, ok := m.table.clusters[replacementCluster(o)]
		if !ok || cs.where != swappedOut || cs.replacement != o.ID() {
			continue
		}
		victims = append(victims, forgotCopy{cs.id, cs.forget()})
		m.table.drop(cs) // its inbound proxies were swept with its replacement
	}
	return victims
}

// dropDead tells every replica of each dead swapped cluster to discard its
// copy, in sweep order; replicas on unreachable donors go to the
// deferred-drop queue.
func (rt *Runtime) dropDead(victims []forgotCopy) {
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
	for id, cs := range tab.clusters {
		if cs.where == resident && slices.ContainsFunc(donors,
			func(c placement.Candidate) bool { return slices.Contains(cs.retained.devices, c.Name) }) {
			sheds = append(sheds, forgotCopy{id, cs.forget()})
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
// collection just swept (heap.CollectStats.Swept), read from their own fields
// and headers: the paper's proxy-finalizer semantics in one pass. A swept
// proxy leaves the shared indexes; a swept swap-cluster-proxy also leaves its
// home's inbound list and its source's edges, and a swept member of a loaded
// cluster leaves it. A resident cluster that loses its last member will never
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
		if proxyTarget(o) == heap.NilID {
			continue // never pointed, so never listed (enlist)
		}
		// The first swept proxy of a list compacts it, all at once.
		home := ClusterID(o.Owner())
		if cs, ok := tab.clusters[home]; ok && cs.swept != tab.sweeps {
			cs.swept = tab.sweeps
			cs.inbound = slices.DeleteFunc(cs.inbound, func(p *heap.Object) bool { return !h.Contains(p.ID()) })
		}
		if cs, ok := tab.clusters[proxySrc(o)]; ok {
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
		if cs, ok := tab.clusters[ClusterID(o.Owner())]; ok && !cs.where.out() && cs.members.has(o.ID()) {
			cs.members = cs.members.keep(h.Contains)
			cs.changed()
			if len(cs.members) == 0 && cs.where == resident {
				tab.queueDrops(forgotCopy{cs.id, cs.forget()})
			}
		}
	}
}
