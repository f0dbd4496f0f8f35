package core

import (
	"fmt"

	"objectswap/internal/heap"
)

// residency names the one place a swap-cluster is. The paper's mechanism is a
// single state change — a cluster is resident, or it is a replacement-object
// here plus text on a neighbour — and the three reserved states are that
// change in flight, owned by exactly one operation. This file is the only code
// that writes clusterState.where (check.sh greps for it): reserve, settle and
// newClusterState are how a cluster gets anywhere. DESIGN §6 has the diagram
// and the table of who may make which move under which lock.
type residency uint8

const (
	resident    residency = iota // members on the heap
	reservedOut                  // members on the heap; a swap-out owns the cluster
	swappedOut                   // replacement-object on the heap, text on the donors
	reservedIn                   // as swappedOut; a swap-in owns the cluster
	underRepair                  // as swappedOut; a repair owns the cluster
	numResidencies
)

// moves[from] is the set of states a cluster may go to from there, one bit
// per destination. Anything else is a bug and panics in move.
var moves = [numResidencies]uint8{
	resident:    1 << reservedOut,
	reservedOut: 1<<swappedOut | 1<<resident,
	swappedOut:  1<<reservedIn | 1<<underRepair,
	reservedIn:  1<<resident | 1<<swappedOut,
	underRepair: 1 << swappedOut,
}

// out reports that the members are on the donors, not the heap.
func (r residency) out() bool { return r >= swappedOut }

// reserved reports that an operation in flight owns the cluster.
func (r residency) reserved() bool { return r != resident && r != swappedOut }

// settled is the unreserved state on r's side of the swap: where a
// reservation was taken from, and where releasing it goes back to.
func (r residency) settled() residency {
	if r.out() {
		return swappedOut
	}
	return resident
}

func (r residency) String() string {
	return [...]string{"resident", "reserved-out", "swapped", "reserved-in", "under-repair"}[r]
}

// newClusterState makes a record born at the given (settled) residency:
// resident for a fresh cluster, swappedOut for one restored from a checkpoint.
func newClusterState(id ClusterID, members int, at residency) *clusterState {
	return &clusterState{id: id, objects: make(map[heap.ObjID]bool, members), where: at}
}

// at returns cluster id's record if the cluster is at want, or the sentinel
// naming why an operation that needs it there cannot have it: unknown, busy
// (a reserved cluster is busy to everyone but its owner, whichever side of
// the swap it is on), or on the wrong side. The caller holds ts.mu.
func (ts *tableShard) at(id ClusterID, want residency) (*clusterState, error) {
	cs, err := ts.state(id)
	switch {
	case err != nil:
		return nil, err
	case cs.where == want:
		return cs, nil
	case cs.where.reserved():
		return nil, fmt.Errorf("%w: cluster %d", ErrClusterBusy, id)
	case cs.where.out():
		return nil, fmt.Errorf("%w: cluster %d", ErrClusterSwapped, id)
	default:
		return nil, fmt.Errorf("%w: cluster %d", ErrClusterLoaded, id)
	}
}

// put adds a record to the shard and drop removes one, keeping the by-state
// tally the gauges read. The caller holds ts.mu.
func (ts *tableShard) put(cs *clusterState) {
	ts.clusters[cs.id] = cs
	ts.tally[cs.where]++
}

func (ts *tableShard) drop(cs *clusterState) {
	delete(ts.clusters, cs.id)
	ts.tally[cs.where]--
}

// move is the one assignment to a record's residency. The caller holds ts.mu.
func (ts *tableShard) move(cs *clusterState, to residency) {
	if moves[cs.where]&(1<<to) == 0 {
		panic(fmt.Sprintf("core: cluster %d: illegal move %s -> %s", cs.id, cs.where, to))
	}
	ts.tally[cs.where]--
	ts.tally[to]++
	cs.where = to
}

// count sums the tally over the states in accepts, for the gauges.
func (ts *tableShard) count(in func(residency) bool) float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := 0
	for r, c := range ts.tally {
		if in(residency(r)) {
			n += c
		}
	}
	return float64(n)
}

// reserve takes cluster id from the settled state from into the reserved
// state to, making the caller its only owner until settle: shard lock, then
// table lock, validate, move, and — still under the table lock — let snap
// copy out what the operation will work from. It reports ErrUnknownCluster,
// ErrClusterBusy, ErrClusterSwapped / ErrClusterLoaded (the cluster is on the
// wrong side) or ErrClusterEmpty (nothing to swap out).
func (rt *Runtime) reserve(id ClusterID, from, to residency, snap func(*clusterState)) (*clusterState, error) {
	sh := rt.shardOf(id)
	rt.lockShard(sh)
	defer sh.mu.Unlock()
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cs, err := ts.at(id, from)
	if err == nil && to == reservedOut && len(cs.objects) == 0 {
		err = fmt.Errorf("%w: %d", ErrClusterEmpty, id)
	}
	if err != nil {
		return nil, err
	}
	ts.move(cs, to)
	if snap != nil {
		snap(cs)
	}
	return cs, nil
}

// settle ends a reservation: under the table lock, apply (if any) rewrites
// the record and the cluster moves to the settled state to — the far side for
// a commit, cs.where.settled() for a release. A committing caller holds the
// cluster's shard lock; a release needs none.
func (rt *Runtime) settle(cs *clusterState, to residency, apply func(*clusterState)) {
	ts := rt.mgr.tab(cs.id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if apply != nil {
		apply(cs)
	}
	ts.move(cs, to)
}

// The retained copy (DESIGN §6d). A cluster that has been shipped in full, or
// reloaded from a full shipment, keeps that shipment on its donors as cs.base;
// the three functions below are the only code that assigns it (check.sh greps
// for it), each under the record's table-shard lock.

// anchor records that the cluster's state equals copy c on the donors: it has
// just been shipped in full (members and slots are what was encoded) or
// reloaded from it. Nothing is dirty against a fresh anchor.
func (m *Manager) anchor(cs *clusterState, c donorCopy, members, slots []heap.ObjID) {
	cs.base = shipmentBase{donorCopy: c, members: members, slots: slots}
	cs.dirty = nil
	if len(members) > 0 {
		m.retaining.Store(true)
	}
}

// forget drops the record's claim on its retained copy and returns the copy,
// which the caller owes the donors a Drop for (dropAll, or queueDrops under
// m.mu). The next swap-out ships in full.
func (cs *clusterState) forget() donorCopy {
	c := cs.base.donorCopy
	cs.base, cs.dirty = shipmentBase{}, nil
	return c
}

// rehome records a repaired replica set: set now holds the shipment, and the
// retained copy follows it — the same set when the shipment is the copy,
// baseSet when the shipment is a delta against it.
func (cs *clusterState) rehome(set, baseSet []string) {
	cs.devices = set
	switch cs.base.key {
	case "":
	case cs.key:
		cs.base.devices = set
	default:
		cs.base.devices = baseSet
	}
}

// cleanCopy returns the retained copy when, by everything the record knows,
// the resident cluster still equals it: nothing written since the anchor and
// the same members. The slot table and the donors are checked by the caller,
// off the lock (swapOut.snapshot, Runtime.holds).
func (cs *clusterState) cleanCopy() (shipmentBase, bool) {
	b := cs.base
	if !b.usable() || len(cs.dirty) != 0 || len(cs.objects) != len(b.members) {
		return shipmentBase{}, false
	}
	for _, oid := range b.members {
		if !cs.objects[oid] {
			return shipmentBase{}, false
		}
	}
	return b, true
}

// holds reports whether copy c can still be counted on, from what the owner
// knows without a link operation: its lease has not run out and every donor
// holding it resolves (a removed device or an open breaker does not).
func (rt *Runtime) holds(c donorCopy) bool {
	if !c.leaseUntil.IsZero() && !rt.obsReg.Clock().Now().Before(c.leaseUntil) {
		return false
	}
	for _, d := range c.devices {
		if _, err := rt.stores.Lookup(d); err != nil {
			return false
		}
	}
	return true
}

// LeaseRenewed records that every donor holding cluster id's copy under key —
// its shipment, its retained copy, or both at once — has just renewed the
// key's lease: the owner may count on the copy for another leaseTTL.
func (rt *Runtime) LeaseRenewed(id ClusterID, key string) {
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cs, ok := ts.clusters[id]
	if !ok {
		return
	}
	for _, c := range [...]*donorCopy{&cs.shipment.donorCopy, &cs.base.donorCopy} {
		if c.key == key && c.leaseTTL > 0 {
			c.leaseUntil = rt.obsReg.Clock().Now().Add(c.leaseTTL)
		}
	}
}
