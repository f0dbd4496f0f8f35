package core

import (
	"time"

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
// all read. The caller holds cs's table-shard lock. tick dates recency, for
// the kinds that advance it; now dates heat and thrash, and is the zero time,
// read from no clock, when no tracker is attached (Tracker.Now).
func (m *Manager) feed(cs *clusterState, what access, tick uint64, now time.Time) {
	l, t := &cs.ledger, m.rt.telem
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
		l.LastAccess = tick
	}
	l.Touches++
	t.Touch(l, now)
}

// enterCrossing is the hot-path combination used by proxy dispatch: it
// resolves the target's cluster, records the crossing, and reports whether
// the cluster is currently swapped out. Only the object index lookup takes
// the manager lock; the ledgers are fed under the affected clusters' table
// shards, so crossings into different shards proceed in parallel, and both
// ends of the crossing are dated by one reading of each clock.
func (m *Manager) enterCrossing(src ClusterID, ultimate heap.ObjID) (dst ClusterID, swapped bool) {
	m.mu.Lock()
	if info, ok := m.objects[ultimate]; ok {
		dst = info.cluster
	}
	m.mu.Unlock()
	tick, now := m.clock.Add(1), m.rt.telem.Now()
	lo, hi := m.lockPair(dst, src)
	if cs, ok := m.tab(dst).clusters[dst]; ok {
		m.feed(cs, crossed, tick, now)
		swapped = cs.where.out()
	}
	if cs, ok := m.tab(src).clusters[src]; ok && src != dst {
		m.feed(cs, used, tick, now)
	}
	unlockPair(lo, hi)
	return dst, swapped
}

// noteAccess is the heap access observer, installed only when a tracker is
// attached: a read or write of a cluster member in place is a touch on its
// cluster. Same cost and race profile as markDirty.
func (rt *Runtime) noteAccess(oid heap.ObjID) {
	m := rt.mgr
	info, ok := m.member(oid)
	if !ok {
		return
	}
	ts, now := m.tab(info.cluster), rt.telem.Now()
	ts.mu.Lock()
	if cs, ok := ts.clusters[info.cluster]; ok {
		m.feed(cs, accessed, 0, now)
	}
	ts.mu.Unlock()
}

// eachLedger is the telemetry plane's view of the cluster table
// (telemetry.Clusters): every record's ledger, visited under its table-shard
// lock, one shard at a time, with a measure of the cluster's footprint —
// resident bytes while loaded, the shipped payload while swapped out. The
// caller must hold no core lock.
func (m *Manager) eachLedger(visit func(id uint32, l *telemetry.Ledger, size func() int64)) {
	var cur *clusterState
	size := func() int64 {
		if cur.where.out() {
			return int64(cur.payloadBytes)
		}
		return m.residentBytes(cur)
	}
	for _, ts := range m.tabs {
		ts.mu.Lock()
		for _, cur = range ts.clusters {
			visit(uint32(cur.id), &cur.ledger, size)
		}
		ts.mu.Unlock()
	}
}
