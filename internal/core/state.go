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
func newClusterState(id ClusterID, at residency) *clusterState {
	return &clusterState{id: id, where: at}
}

// at returns cluster id's record if the cluster is at want, or the sentinel
// naming why an operation that needs it there cannot have it: unknown, busy
// (a reserved cluster is busy to everyone but its owner, whichever side of
// the swap it is on), or on the wrong side.
func (tab *clusterTable) at(id ClusterID, want residency) (*clusterState, error) {
	cs, err := tab.state(id)
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

// put adds a record to the table and drop removes one, keeping the by-state
// tally the gauges read.
func (tab *clusterTable) put(cs *clusterState) {
	tab.clusters.add(cs)
	tab.tally[cs.where]++
}

func (tab *clusterTable) drop(cs *clusterState) {
	tab.clusters.remove(cs)
	tab.tally[cs.where]--
}

// move is the one assignment to a record's residency.
func (tab *clusterTable) move(cs *clusterState, to residency) {
	if moves[cs.where]&(1<<to) == 0 {
		panic(fmt.Sprintf("core: cluster %d: illegal move %s -> %s", cs.id, cs.where, to))
	}
	tab.tally[cs.where]--
	tab.tally[to]++
	cs.where = to
}

// count sums the table's tally over the states in accepts, for the gauges.
func (rt *Runtime) count(in func(residency) bool) float64 {
	rt.lock()
	defer rt.unlock()
	n := 0
	for r, c := range rt.mgr.table.tally {
		if in(residency(r)) {
			n += c
		}
	}
	return float64(n)
}

// reserve takes cluster id from the settled state from into the reserved
// state to, making the caller its only owner until settle: validate, move,
// and let snap copy out what the operation will work from; the reservation
// holds the cluster while the operation lets go of the runtime lock for its
// I/O. It reports ErrUnknownCluster,
// ErrClusterBusy, ErrClusterSwapped / ErrClusterLoaded (the cluster is on the
// wrong side) or ErrClusterEmpty (nothing to swap out).
func (rt *Runtime) reserve(id ClusterID, from, to residency, snap func(*clusterState)) (*clusterState, error) {
	rt.assertLocked()
	tab := &rt.mgr.table
	cs, err := tab.at(id, from)
	if err == nil && to == reservedOut && len(cs.members) == 0 {
		err = fmt.Errorf("%w: %d", ErrClusterEmpty, id)
	}
	if err != nil {
		return nil, err
	}
	tab.move(cs, to)
	if snap != nil {
		snap(cs)
	}
	return cs, nil
}

// settle ends a reservation: apply (if any) rewrites the record and the
// cluster moves to the settled state to — the far side for a commit,
// cs.where.settled() for a release. A commit re-points every proxy the record
// lists in the same hold, so a proxy's target and its cluster's residency
// change together.
func (rt *Runtime) settle(cs *clusterState, to residency, apply func(*clusterState)) {
	rt.assertLocked()
	tab := &rt.mgr.table
	if apply != nil {
		apply(cs)
	}
	flips := cs.where.out() != to.out()
	tab.move(cs, to)
	if flips {
		for _, p := range cs.inbound {
			tab.point(p, p.ID(), proxyUltimate(p), cs.id)
		}
	}
}

// The retained copy (DESIGN §6d). Each record names at most one payload on
// its donors, cs.retained: the shipment a swapped-out cluster reloads from,
// which stays on its donors once the cluster is resident again. The three
// functions below are the only code that assigns it (check.sh greps for it).

// anchor records that the cluster's state equals copy c on the donors: it has
// just been shipped (the record's members and slots are what was encoded) or
// reloaded from it. Nothing is dirty against a fresh anchor.
func (cs *clusterState) anchor(c donorCopy, slots []heap.ObjID) {
	cs.retained = retainedCopy{donorCopy: c, slots: slots}
	cs.dirty = false
}

// forget drops the record's claim on its retained copy and returns the copy,
// which the caller owes the donors a Drop for (dropAll or queueDrops). The
// next swap-out ships in full.
func (cs *clusterState) forget() donorCopy {
	c := cs.retained.donorCopy
	cs.retained, cs.dirty = retainedCopy{}, false
	return c
}

// rehome records a repaired replica set: set now holds the copy.
func (cs *clusterState) rehome(set []string) {
	cs.retained.devices = set
}

// cleanCopy returns the retained copy when, by everything the record knows,
// the resident cluster still equals it: no member written, joined or swept
// since the anchor. The slot table and the donors are checked by the caller
// (swapOut.snapshot, Runtime.holds).
func (cs *clusterState) cleanCopy() (retainedCopy, bool) {
	if !cs.retained.usable() || cs.dirty {
		return retainedCopy{}, false
	}
	return cs.retained, true
}

// changed records that the resident cluster no longer equals its retained
// copy, if it has one: its next swap-out ships. It counts every change, so a
// swap-out in flight sees one made since it took its copy.
func (cs *clusterState) changed() {
	cs.changes++
	if cs.retained.key != "" {
		cs.dirty = true
	}
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

// LeaseRenewed records that every donor holding cluster id's copy under key
// has just renewed the key's lease: the owner may count on the copy for
// another leaseTTL.
func (rt *Runtime) LeaseRenewed(id ClusterID, key string) {
	rt.lock()
	defer rt.unlock()
	tab := &rt.mgr.table
	if cs := tab.clusters.get(id); cs != nil && cs.retained.key == key && cs.retained.leaseTTL > 0 {
		cs.retained.leaseUntil = rt.obsReg.Clock().Now().Add(cs.retained.leaseTTL)
	}
}
