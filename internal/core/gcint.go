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
// The mark-sweep and the swapped-cluster sweep stop the world: every swap
// shard's lock is acquired (in order), so a collection never interleaves with
// the reserve/commit phases of a concurrent swap-out or swap-in on any shard
// (in particular, freshly installed objects cannot lose their nursery grace
// before the inbound proxies that make them reachable are patched).
// Device-drop retries run unlocked — they are IO.
func (rt *Runtime) Collect() heap.CollectStats {
	return rt.collect(1)
}

// pressureCycles is the nursery grace an eviction pass's one collection
// burns. It has to exceed the grace the façade grants every allocation (2):
// host-held garbage that only its grace protects — the dead
// swap-cluster-proxies a finished walk leaves behind — must go before a live
// cluster is shipped to make the room it occupies. Three is what the
// benchmark's exact eviction counts are pinned to (DESIGN §6).
const pressureCycles = 3

// collect is Collect with the nursery aged by the given number of cycles in
// the one pass (see heap.CollectCycles).
func (rt *Runtime) collect(cycles int) heap.CollectStats {
	rt.lockAll()
	st := rt.h.CollectCycles(cycles, rt.stack...)
	rt.sweepSwapped()
	rt.unlockAll()
	rt.mgr.compact(st.Swept)
	rt.mgr.retryDrops(rt)
	return st
}

// sweepSwapped drops swapped clusters whose replacement-objects were
// reclaimed. Every replica of a dead cluster is told to discard its copy —
// the shipment, and the retained copy where a delta shipment kept it apart;
// replicas on unreachable donors go to the deferred-drop queue.
func (rt *Runtime) sweepSwapped() {
	type victim struct {
		id        ClusterID
		was, base donorCopy
	}
	var victims []victim

	m := rt.mgr
	m.mu.Lock()
	for _, ts := range m.tabs {
		ts.mu.Lock()
		for id, cs := range ts.clusters {
			if cs.where != swappedOut {
				continue // reserved: a swap-in or repair owns it and pins the replacement
			}
			if rt.h.Contains(cs.replacement) {
				continue
			}
			victims = append(victims, victim{id, cs.donorCopy, cs.forget()})
			for oid := range cs.objects {
				delete(m.objects, oid)
			}
			delete(m.inbound, id)
			delete(m.outbound, id)
			ts.drop(cs)
		}
		ts.mu.Unlock()
	}
	m.mu.Unlock()

	for _, v := range victims {
		rt.dropAll(context.Background(), v.was.devices, v.was.key, v.id)
		if v.base.key != v.was.key {
			rt.dropAll(context.Background(), v.base.devices, v.base.key, v.id)
		}
		rt.emit(event.TopicSwapDrop, SwapEvent{
			Cluster: v.id, Device: v.was.primary(), Key: v.was.key, Bytes: v.was.payloadBytes,
			Replicas: v.was.devices,
		})
	}
}

// shedRetained gives donors short of room their space back: every cluster
// that is resident anyway forgets the copy it retains on any of the given
// donors, and the donors are told to drop it. It returns how many copies
// went; the clusters ship in full next time.
func (rt *Runtime) shedRetained(ctx context.Context, donors []placement.Candidate) int {
	type shed struct {
		id   ClusterID
		copy donorCopy
	}
	var sheds []shed
	for _, ts := range rt.mgr.tabs {
		ts.mu.Lock()
		for id, cs := range ts.clusters {
			if cs.where == resident && slices.ContainsFunc(donors,
				func(c placement.Candidate) bool { return slices.Contains(cs.base.devices, c.Name) }) {
				sheds = append(sheds, shed{id, cs.forget()})
			}
		}
		ts.mu.Unlock()
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
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pendingDrops = append(m.pendingDrops, dropTicket{device: device, key: key, cluster: cluster})
}

// queueDrops is deferDrop for every replica of copy c, for a caller that
// holds m.mu.
func (m *Manager) queueDrops(c donorCopy, cluster ClusterID) {
	for _, d := range c.devices {
		m.pendingDrops = append(m.pendingDrops, dropTicket{device: d, key: c.key, cluster: cluster})
	}
}

// DefaultDropRetryLimit bounds how many collections may re-attempt one
// deferred device-drop before it is abandoned.
const DefaultDropRetryLimit = 8

// SetDropRetryLimit overrides the per-ticket retry budget (n <= 0 restores
// the default).
func (m *Manager) SetDropRetryLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		n = DefaultDropRetryLimit
	}
	m.dropRetryLimit = n
}

// retryDrops re-attempts queued drops, once per collection pass (an eviction
// pass's pressure collection is one pass, hence one attempt). A ticket that
// keeps failing is not retried forever: after the retry budget is spent it is
// abandoned with a swap.drop.abandoned event, so operators learn about the
// leaked remote payload instead of the queue growing without bound.
func (m *Manager) retryDrops(rt *Runtime) {
	m.mu.Lock()
	pending := m.pendingDrops
	m.pendingDrops = nil
	limit := m.dropRetryLimit
	m.mu.Unlock()

	for _, t := range pending {
		if err := rt.dropFromDevice(context.Background(), t.device, t.key); err != nil {
			t.attempts++
			if t.attempts >= limit {
				m.mu.Lock()
				m.abandonedDrops++
				m.mu.Unlock()
				rt.emit(event.TopicDropAbandoned, SwapEvent{
					Cluster: t.cluster, Device: t.device, Key: t.key,
				})
				continue
			}
			m.mu.Lock()
			m.pendingDrops = append(m.pendingDrops, t)
			m.mu.Unlock()
		}
	}
}

// PendingDrops reports how many device-drop instructions await retry.
func (m *Manager) PendingDrops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pendingDrops)
}

// AbandonedDrops reports how many deferred drops exhausted their retry
// budget — each one is a payload possibly leaked on a remote device.
func (m *Manager) AbandonedDrops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.abandonedDrops
}

// compact removes the membership records of the loaded-cluster objects a
// collection just reclaimed (swept is heap.CollectStats.Swept), so cluster
// statistics and swap-out payloads track the live graph. Most swept ids are
// proxies and replacement-objects, which have no membership record. A cluster
// that loses its last member will never be swapped out again, so the copy it
// retains on the donors is queued for dropping (retryDrops runs next).
func (m *Manager) compact(swept []heap.ObjID) {
	if len(swept) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, oid := range swept {
		info, ok := m.objects[oid]
		if !ok {
			continue
		}
		ts := m.tab(info.cluster)
		ts.mu.Lock()
		if cs, ok := ts.clusters[info.cluster]; ok && !cs.where.out() {
			delete(cs.objects, oid)
			delete(m.objects, oid)
			if len(cs.objects) == 0 && cs.where == resident {
				m.queueDrops(cs.forget(), cs.id)
			}
		}
		ts.mu.Unlock()
	}
}
