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
// the swapped-cluster sweep stop the world: the swap lock is held, so a
// collection never interleaves with the reserve/commit phases of a
// concurrent swap-out or swap-in (in particular, freshly installed objects
// cannot lose their nursery grace before the inbound proxies that make them
// reachable are patched), and no swept record outlives Collect.
// Device-drop retries run unlocked — they are IO.
//
// The result's Swept, the list and the objects in it, is valid until the
// next collection: the heap reuses the list, and reissues the blocks of the
// swap-cluster-proxies in it as new proxies (heap.CollectStats).
func (rt *Runtime) Collect() heap.CollectStats {
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

// collectYoung is an eviction's collection: a young pass (heap.CollectYoung)
// that burns pressureCycles of nursery grace and traces only what appeared
// since the previous pass.
func (rt *Runtime) collectYoung() heap.CollectStats {
	return rt.pass(pressureCycles, true)
}

// pass runs one collection, full or young, and purges every record of what
// it swept before the swap lock goes.
func (rt *Runtime) pass(cycles int, young bool) heap.CollectStats {
	rt.swapMu.Lock()
	var st heap.CollectStats
	if young {
		st = rt.h.CollectYoung(cycles, rt.stack...)
	} else {
		st = rt.h.CollectCycles(cycles, rt.stack...)
	}
	rt.mgr.reclaimed(st.Swept)
	rt.sweepSwapped(st.Swept)
	rt.swapMu.Unlock()
	rt.mgr.retryDrops(rt)
	return st
}

// sweepSwapped drops the swapped clusters whose replacement-objects the
// collection swept, in sweep order, reading each one's cluster from its
// $cluster field. Every replica of a dead cluster is told to discard its
// copy; replicas on unreachable donors go to the deferred-drop queue. A
// cluster an operation has reserved is never among them: the operation
// pinned its replacement-object when it reserved the cluster, in the same
// swap-locked hold.
func (rt *Runtime) sweepSwapped(swept []*heap.Object) {
	var victims []forgotCopy
	m := rt.mgr
	m.table.mu.Lock()
	for _, o := range swept {
		if o.Class().Special != heap.SpecialReplacement {
			continue
		}
		cs, ok := m.table.clusters[replacementCluster(o)]
		if !ok || cs.where != swappedOut || cs.replacement != o.ID() {
			continue
		}
		victims = append(victims, forgotCopy{cs.id, cs.forget()})
		for _, oid := range cs.members {
			delete(m.table.members, oid)
		}
		m.table.drop(cs) // its inbound proxies were swept with its replacement
	}
	m.table.mu.Unlock()

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
	tab.mu.Lock()
	for id, cs := range tab.clusters {
		if cs.where == resident && slices.ContainsFunc(donors,
			func(c placement.Candidate) bool { return slices.Contains(cs.retained.devices, c.Name) }) {
			sheds = append(sheds, forgotCopy{id, cs.forget()})
		}
	}
	tab.mu.Unlock()
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
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	m.table.pendingDrops = append(m.table.pendingDrops, dropTicket{device: device, key: key, cluster: cluster})
}

// forgotCopy is a copy cluster id's record forgot (clusterState.forget),
// which its donors are owed a Drop for.
type forgotCopy struct {
	id   ClusterID
	copy donorCopy
}

// queueDrops defers a drop of every replica of each forgotten copy. The
// caller holds tab.mu.
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
// leaked remote payload instead of the queue growing without bound.
func (m *Manager) retryDrops(rt *Runtime) {
	tab := &m.table
	tab.mu.Lock()
	pending := tab.pendingDrops
	tab.pendingDrops = nil
	tab.mu.Unlock()

	for _, t := range pending {
		if err := rt.dropFromDevice(context.Background(), t.device, t.key); err == nil {
			continue
		}
		t.attempts++
		abandon := t.attempts >= DefaultDropRetryLimit
		tab.mu.Lock()
		if abandon {
			tab.abandonedDrops++
		} else {
			tab.pendingDrops = append(tab.pendingDrops, t)
		}
		tab.mu.Unlock()
		if abandon {
			rt.emit(event.TopicDropAbandoned, SwapEvent{
				Cluster: t.cluster, Device: t.device, Key: t.key,
			})
		}
	}
}

// PendingDrops reports how many device-drop instructions await retry.
func (m *Manager) PendingDrops() int {
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	return len(m.table.pendingDrops)
}

// AbandonedDrops reports how many deferred drops exhausted their retry
// budget — each one is a payload possibly leaked on a remote device.
func (m *Manager) AbandonedDrops() int {
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	return m.table.abandonedDrops
}

// reclaimed purges every record the SwappingManager keeps of the objects a
// collection just swept (heap.CollectStats.Swept), read from their own
// fields: the paper's proxy-finalizer semantics in one pass, under one table
// hold. A swept proxy leaves the shared indexes; a swept swap-cluster-proxy
// also leaves its target cluster's inbound list and its source's edges —
// before membership goes, so that cluster is still known — and a swept member
// of a loaded cluster leaves it. A resident cluster that loses its last member
// will never ship again: the copy it retains is queued for dropping. Edge
// counts that reached zero since the previous purge, and that no mint has
// raised since, go first (countEdge). sweepSwapped forgets the clusters of
// swept replacement-objects. The caller holds the swap lock.
func (m *Manager) reclaimed(swept []*heap.Object) {
	if len(swept) == 0 {
		return
	}
	h, tab := m.rt.h, &m.table
	tab.mu.Lock()
	defer tab.mu.Unlock()
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
		home := tab.members[proxyUltimate(o)].cluster
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
		// into a copy while a swap-out reads it (swapOut.reserve).
		if cs, ok := tab.clusters[tab.members[o.ID()].cluster]; ok && !cs.where.out() && cs.has(o.ID()) {
			members := cs.members
			if cs.where != resident {
				members = slices.Clone(members)
			}
			cs.members = slices.DeleteFunc(members, func(oid heap.ObjID) bool { return !h.Contains(oid) })
			cs.changed()
			if len(cs.members) == 0 && cs.where == resident {
				tab.queueDrops(forgotCopy{cs.id, cs.forget()})
			}
		}
		delete(tab.members, o.ID())
	}
}
