package core

import (
	"objectswap/internal/heap"
	"objectswap/internal/telemetry"
)

// access names what happened to a cluster, for feed.
type access uint8

const (
	accessed access = iota // a member was read or written in place: a touch that leaves recency alone
	used                   // allocated into, or crossed out of: a touch that advances recency
	crossed                // a boundary crossing into the cluster
	shipped                // a swap-out committed
	reloaded               // a swap-in committed
)

// feed is the only writer of a cluster's ledger (check.sh greps for the
// counters), the record victim selection, ClusterInfo and the telemetry plane
// all read. The caller holds the runtime lock. Every event is dated with the
// current tick of the recency clock, m.clock: a crossing or an allocation
// (crossed, used) advances it first and sets the cluster's recency to the
// tick it took; an in-place touch (accessed) and a swap (shipped, reloaded)
// take the tick as it stands. Recency, heat, the working set and thrash are
// dated on one clock, and no event reads a wall clock.
func (m *Manager) feed(cs *clusterState, what access) {
	l, t, now := &cs.ledger, m.rt.telem, m.clock
	switch what {
	case shipped:
		l.SwapOuts++
		t.SwappedOut(l, now)
		return
	case reloaded:
		l.SwapIns++
		t.SwappedIn(l, now)
		return
	case crossed:
		l.Crossings++
		fallthrough
	case used:
		l.LastAccess = now
	}
	l.Touches++
	t.Touch(l, now)
}

// enterCrossing is the hot-path combination used by proxy dispatch: it
// records a crossing from cluster src into cluster dst, the home its proxy's
// header names, and reports whether dst is currently swapped out, with both
// ends of the crossing dated by one tick of the recency clock.
func (m *Manager) enterCrossing(src, dst ClusterID) (swapped bool) {
	m.rt.assertLocked()
	m.clock++
	if cs := m.table.clusters.get(dst); cs != nil {
		m.feed(cs, crossed)
		swapped = cs.where.out()
	}
	if cs := m.table.clusters.get(src); cs != nil && src != dst {
		m.feed(cs, used)
	}
	return swapped
}

// touch is the one path from a member read or written in place to its
// record, which the member's header names: a write on a resident member of
// a cluster with a retained copy marks the cluster dirty, so its next
// swap-out ships instead of leaving on the copy; and with a tracker attached
// either access is a touch on the cluster's ledger. The heap calls it for
// every write to an application object (NewRuntime registers it as a write
// observer), dispatch for every read in place. Middleware writes never arrive
// (the heap runs no observer for them). With no tracker, a read costs one
// load; with one, the touch is dated with the recency clock's current tick.
func (m *Manager) touch(o *heap.Object, write bool) {
	track := m.rt.telem != nil
	if !track && !write {
		return
	}
	cs := m.table.clusters.get(ClusterID(o.Owner()))
	if cs == nil || cs.id == RootCluster && !cs.members.has(o.ID()) {
		return // never assigned
	}
	if write && !cs.where.out() {
		cs.changed()
	}
	if track {
		m.feed(cs, accessed)
	}
}

// eachLedger is the telemetry plane's view of the cluster table
// (telemetry.Clusters): every record's ledger, visited under one hold of the
// runtime lock with the recency clock's current tick, and a measure of the
// cluster's footprint — resident bytes while loaded, the shipped payload
// while swapped out. The caller must not hold the runtime lock.
func (m *Manager) eachLedger(visit func(now uint64, id uint32, l *telemetry.Ledger, size func() int64)) uint64 {
	var cur *clusterState
	size := func() int64 {
		if cur.where.out() {
			return int64(cur.retained.payloadBytes)
		}
		return m.residentBytes(cur)
	}
	m.rt.lock()
	defer m.rt.unlock()
	for cur = range m.table.clusters.all {
		visit(m.clock, uint32(cur.id), &cur.ledger, size)
	}
	return m.clock
}
