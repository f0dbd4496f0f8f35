package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/telemetry"
)

// run is the consecutive ids [lo, lo+n) of members of one class (an index
// into Runtime.classes, which a checkpoint names for every member).
type run struct {
	lo    heap.ObjID
	n     uint32
	class uint32
}

func (r run) end() heap.ObjID { return r.lo + heap.ObjID(r.n) }

// runs is a cluster's member list, ascending and disjoint, whether the
// cluster is resident or swapped out: a cluster allocated in one go is one
// run (heap ids rise), and ids survive a swap, so no swap rewrites it.
type runs []run

// add appends r, which lies above every run of rs, joined to the last run
// when the two are adjacent and of one class.
func (rs runs) add(r run) runs {
	if n := len(rs); n > 0 && rs[n-1].end() == r.lo && rs[n-1].class == r.class {
		rs[n-1].n += r.n
		return rs
	}
	return append(rs, r)
}

// has reports whether oid is a member.
func (rs runs) has(oid heap.ObjID) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].end() > oid })
	return i < len(rs) && rs[i].lo <= oid
}

// count returns the number of members.
func (rs runs) count() (n int) {
	for _, r := range rs {
		n += int(r.n)
	}
	return n
}

// ids yields every member, ascending.
func (rs runs) ids(yield func(heap.ObjID) bool) {
	for _, r := range rs {
		for id := r.lo; id < r.end(); id++ {
			if !yield(id) {
				return
			}
		}
	}
}

// keep returns the members keep admits as fresh runs: rs itself may be a
// swap-out's snapshot, never edited in place.
func (rs runs) keep(keep func(heap.ObjID) bool) runs {
	var out runs
	for _, r := range rs {
		for id := r.lo; id < r.end(); id++ {
			if keep(id) {
				out = out.add(run{id, 1, r.class})
			}
		}
	}
	return out
}

// sorted orders rs by id, in place, and joins adjacent runs of one class.
func (rs runs) sorted() runs {
	slices.SortFunc(rs, func(a, b run) int { return cmp.Compare(a.lo, b.lo) })
	out := rs[:0]
	for _, r := range rs {
		out = out.add(r)
	}
	return out
}

// donorCopy names one payload the donors hold and what a fetch of it must
// match. devices is the replica set, primary first (a singleton under the
// default replication factor of 1); it is replaced, never edited in place.
type donorCopy struct {
	key          string
	devices      []string
	payloadBytes int
	// crc is the IEEE CRC32 of the payload as shipped (every replica is
	// byte-identical). Swap-in and repair verify fetched bytes against it,
	// convicting a copy that rotted at rest and falling through to the next
	// replica. 0 means unknown (state restored from a pre-checksum stream).
	crc uint32
	// format is the wire format of the payload ("" = XML, the pre-negotiation
	// default). Informational: the payload self-describes.
	format string
	// leaseTTL is the shortest lease any of the donors grants a stored key
	// (store.Stats.LeaseTTL at shipment; 0 = none of them expires keys), and
	// leaseUntil the deadline the owner knows the copy is held to: the
	// shipment time plus leaseTTL, moved forward by LeaseRenewed. Zero means
	// no deadline.
	leaseTTL   time.Duration
	leaseUntil time.Time
}

// primary is the best-ranked donor holding the copy ("" when there is none).
func (c donorCopy) primary() string {
	if len(c.devices) == 0 {
		return ""
	}
	return c.devices[0]
}

// retainedCopy is the one payload the donors hold for a cluster: while it is
// swapped out, what a reload fetches; while it is resident again, the
// shipment its donors kept, with what the owner needs to tell, locally,
// whether the resident cluster still equals it. A cluster that does leaves
// without a byte (swapOut.reserve); one that does not ships in full. slots is
// the payload's outbound slot table, the ultimate target of each slot in slot
// order; its membership is the record's list while the record is not dirty.
// The slot table is not checkpointed, so a restored copy serves reloads and
// cleanup but anchors nothing until the cluster is next reloaded or shipped.
// Only anchor, forget and rehome (state.go) write a record's copy.
type retainedCopy struct {
	donorCopy
	slots []heap.ObjID
}

// usable reports whether the copy can stand in for the resident cluster: key
// known AND slot table known (nil after a checkpoint restore; empty, not nil,
// for a cluster with no outbound slot).
func (c retainedCopy) usable() bool { return c.key != "" && c.slots != nil }

// shipment is the swapped-out side of a cluster record: the replacement-object
// standing in for it. The payload is the record's retained copy.
type shipment struct {
	replacement heap.ObjID
	// bytesAtSwap is the resident size at swap-out, to pre-check reload room.
	bytesAtSwap int64
}

// clusterState is the SwappingManager's per-swap-cluster record.
type clusterState struct {
	id  ClusterID
	pos uint32 // the record's place in the table's id-ordered list (records)
	// members is edited in place only by assign, since a swap-out reads it
	// from reserve to commit.
	members runs

	// ledger is the cluster's access record — recency and frequency fed by
	// proxy traversal as the paper describes, swap history, and (with a
	// tracker attached) heat and thrash. Only feed writes it (ledger.go).
	ledger telemetry.Ledger

	// where is the one place the cluster is (state.go); only reserve, settle
	// and newClusterState write it.
	where residency

	// shipment is zero while the members are on the heap.
	shipment

	// retained is the payload the donors hold for the cluster, and dirty
	// reports the cluster changed since it was anchored: a member written
	// (touch), joined (assign) or swept (compact). It resets when a shipment
	// becomes the copy or a reload proves the copy equals resident state.
	retained retainedCopy
	dirty    bool
	// changes counts the changes to the resident cluster (changed), copy or
	// not: a swap-out reads it when it takes its copy of the members and
	// refuses to commit once it has moved (swapOut.commit).
	changes uint32

	// zeroed reports the record is in the table's zeroed list: its edges
	// may hold a zero count that the next purge compacts (countEdge).
	// lastEdge is the index of the edge countEdge last counted, where it
	// looks first.
	zeroed   bool
	lastEdge int32

	// inbound lists the live swap-cluster-proxies whose ultimate target is a
	// member (for the root cluster, also an object never assigned): what the
	// paper's replacement-object receives, re-pointed by settle. edges
	// counts the live proxies sourced here by their target's cluster,
	// ascending by it: the graph the prefetch window walks. A proxy's own fields
	// say where it is listed and counted. swept is the last reclaimed pass
	// that compacted inbound.
	inbound []*heap.Object
	edges   []edge
	swept   uint64
}

// edge counts the live swap-cluster-proxies from one cluster into cluster to.
type edge struct {
	to ClusterID
	n  int32
}

// countEdge adds delta to the count of proxies from cs into cluster to. An
// edge that comes to count none stays, at zero, until the next collection's
// purge (reclaimed) compacts cs's list: the proxies a walk drops die
// together in one pass and the next walk mints them again, and a count that
// waits at zero is found again without shifting the list twice. A record is
// listed for that purge once, however many of its counts fall to zero, so
// the list is never longer than the records it names. Readers skip zero
// counts. The edge last counted is tried before a search: a walk mints its
// proxies, and a collection sweeps them, one source and target cluster after
// another.
func (tab *clusterTable) countEdge(cs *clusterState, to ClusterID, delta int32) {
	i := int(cs.lastEdge)
	if i >= len(cs.edges) || cs.edges[i].to != to {
		var found bool
		i, found = slices.BinarySearchFunc(cs.edges, to, func(e edge, to ClusterID) int { return cmp.Compare(e.to, to) })
		if !found {
			cs.edges = slices.Insert(cs.edges, i, edge{to: to})
		}
		cs.lastEdge = int32(i)
	}
	if cs.edges[i].n += delta; cs.edges[i].n == 0 && !cs.zeroed {
		cs.zeroed = true
		tab.zeroed = append(tab.zeroed, cs)
	}
}

// compactEdges drops the zero counts of every record listed in tab.zeroed,
// and empties the list.
func (tab *clusterTable) compactEdges() {
	for i, cs := range tab.zeroed {
		cs.edges = slices.DeleteFunc(cs.edges, func(e edge) bool { return e.n == 0 })
		cs.zeroed = false
		tab.zeroed[i] = nil
	}
	tab.zeroed = tab.zeroed[:0]
}

// moveEdge moves one proxy of src's count from cluster from to cluster to,
// when src still has a record.
func (tab *clusterTable) moveEdge(src, from, to ClusterID) {
	if ss := tab.clusters.get(src); ss != nil {
		tab.countEdge(ss, from, -1)
		tab.countEdge(ss, to, 1)
	}
}

// proxyKey identifies the unique swap-cluster-proxy for a
// (source-cluster, target-object) pair. The paper: "When there are multiple
// references to the same object, across the same pair of swap-clusters, only
// a swap-cluster-proxy is required."
type proxyKey struct {
	src    ClusterID
	target heap.ObjID
}

// targetBits is how many low bits of a packed proxyKey hold the target's id;
// the source cluster's id takes the rest.
const targetBits = 40

// pack returns k as one word, and false when an id does not fit its bits.
func (k proxyKey) pack() (uint64, bool) {
	if k.target>>targetBits != 0 || uint64(k.src)>>(64-targetBits) != 0 {
		return 0, false
	}
	return uint64(k.src)<<targetBits | uint64(k.target), true
}

// proxyIndex maps each key to its shared proxy. A key that packs into one
// word is held in packed, a table of its own that hashes no Go map; any other
// key in wide, made when the first one comes.
type proxyIndex struct {
	packed keyTable
	wide   map[proxyKey]heap.ObjID
}

func (x *proxyIndex) get(k proxyKey) (heap.ObjID, bool) {
	if w, ok := k.pack(); ok {
		return x.packed.get(w)
	}
	pid, ok := x.wide[k]
	return pid, ok
}

func (x *proxyIndex) set(k proxyKey, pid heap.ObjID) {
	if w, ok := k.pack(); ok {
		x.packed.set(w, pid)
		return
	}
	if x.wide == nil {
		x.wide = make(map[proxyKey]heap.ObjID)
	}
	x.wide[k] = pid
}

// drop deletes k's entry if it is still pid.
func (x *proxyIndex) drop(k proxyKey, pid heap.ObjID) {
	if w, ok := k.pack(); ok {
		x.packed.drop(w, pid)
	} else {
		dropEntry(x.wide, k, pid)
	}
}

// all yields every entry.
func (x *proxyIndex) all(yield func(proxyKey, heap.ObjID) bool) {
	for _, s := range x.packed.slots {
		if s.key != 0 && !yield(proxyKey{src: ClusterID(s.key >> targetBits), target: heap.ObjID(s.key & (1<<targetBits - 1))}, s.pid) {
			return
		}
	}
	for k, pid := range x.wide {
		if !yield(k, pid) {
			return
		}
	}
}

// clusterTable is the SwappingManager's state, all of it under the runtime
// lock, which the caller of every method here holds: the record (residency
// included) of every swap-cluster, added and removed only through put and
// drop (state.go) and found by id without hashing (records), the objects
// belonging to each, and each one's inbound proxies and outbound edges; the
// proxy reuse indexes, the deferred-drop queue and the victim buffer. lastID
// is the highest cluster id handed out.
//
// An object's cluster is kept once. A resident object's header word names
// the record that lists it (heap.Object.Owner): a member's cluster, whose
// runs list it, or a swap-cluster-proxy's home, the cluster of its ultimate
// target, whose inbound list lists it. A swapped-out member has no header:
// the record listing it is found by a scan (listing).
type clusterTable struct {
	clusters records
	tally    [numResidencies]int // records by residency
	lastID   ClusterID
	sweeps   uint64 // reclaimed passes

	// zeroed lists the records whose edges have counted a zero since the
	// last purge compacted them (countEdge).
	zeroed []*clusterState

	// proxies indexes the shared swap-cluster-proxies by key for reuse: a
	// proxy is shared exactly when it is its key's entry. objProxies indexes
	// the object-fault proxies by the remote identity they stand for.
	proxies    proxyIndex
	objProxies map[heap.ObjID]heap.ObjID

	// pendingDrops holds (device, key) pairs whose Drop failed (device
	// unreachable); retried on the next collection until the per-ticket
	// budget is spent, then abandoned with a swap.drop.abandoned event.
	pendingDrops   []dropTicket
	abandonedDrops int
	// dead holds, in sweep order, the copies of the dead swapped clusters a
	// purge forgot (sweepSwapped), which the next runtime pass tells their
	// donors to drop (dropDead).
	dead []forgotCopy

	// victims is the buffer eviction candidates are ranked in, reused from
	// call to call: SelectVictims ranks in it, and a victim walk takes it
	// for its length, nil until the walk puts it back (SwapOutVictims): a
	// walk lets go of the lock while its victims ship.
	victims []victimRank
}

// state returns the record for id.
func (tab *clusterTable) state(id ClusterID) (*clusterState, error) {
	cs := tab.clusters.get(id)
	if cs == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCluster, id)
	}
	return cs, nil
}

// Manager is the paper's SwappingManager: it tracks swap-clusters, the
// objects belonging to each, and all swap-cluster-proxies — each listed by
// the record of its target's cluster, and purged from each collection's
// swept list by reclaimed.
type Manager struct {
	rt *Runtime

	table clusterTable

	// clock is the recency clock advanced by boundary crossings and
	// allocations.
	clock uint64
}

type dropTicket struct {
	device   string
	key      string
	cluster  ClusterID
	attempts int
}

func newManager(rt *Runtime) *Manager {
	m := &Manager{rt: rt, table: clusterTable{
		objProxies: make(map[heap.ObjID]heap.ObjID),
	}}
	m.table.put(newClusterState(RootCluster, resident))
	return m
}

// shipmentOf returns the cluster's shipment while its members are on the
// donors; ok is false for a resident or unknown cluster.
func (m *Manager) shipmentOf(id ClusterID) (shipment, bool) {
	cs := m.table.clusters.get(id)
	if cs == nil || !cs.where.out() {
		return shipment{}, false
	}
	return cs.shipment, true
}

// aim returns where a proxy to the object ultimate of cluster home points:
// at ultimate, or at home's replacement-object while home is swapped out.
func (tab *clusterTable) aim(ultimate heap.ObjID, home ClusterID) heap.ObjID {
	if cs := tab.clusters.get(home); cs != nil && cs.where.out() {
		return cs.replacement
	}
	return ultimate
}

// point re-aims proxy p, handed to the caller under id, at its ultimate
// target in cluster home, or at home's replacement-object while it is
// swapped out (aim), and writes home into p's header; it reports false,
// writing nothing, if p is no longer resident under id. A proxy is born
// aimed (newProxy), so point serves the two holds that move a listed proxy or
// its cluster: retarget, and settle as the cluster moves.
func (tab *clusterTable) point(p *heap.Object, id, ultimate heap.ObjID, home ClusterID) bool {
	if !setProxySlot(p, id, slotTarget, heap.Ref(tab.aim(ultimate, home))) {
		return false
	}
	p.SetOwner(uint32(home))
	return true
}

// overlap returns an id two runs of the table list, if any.
func (tab *clusterTable) overlap() (heap.ObjID, bool) {
	var all runs
	for cs := range tab.clusters.all {
		all = append(all, cs.members...)
	}
	all = all.sorted()
	for i := 1; i < len(all); i++ {
		if all[i].lo < all[i-1].end() {
			return all[i].lo, true
		}
	}
	return 0, false
}

// listing returns the record whose runs list oid, or nil, by a scan: for a
// swapped-out member, which has no header to read. Workloads keep at most a
// few hundred clusters.
func (tab *clusterTable) listing(oid heap.ObjID) *clusterState {
	for cs := range tab.clusters.all {
		if cs.members.has(oid) {
			return cs
		}
	}
	return nil
}

// NewCluster declares a fresh, empty swap-cluster and returns its id.
func (m *Manager) NewCluster() ClusterID {
	m.rt.lock()
	defer m.rt.unlock()
	return m.table.newCluster()
}

// newCluster adds a fresh, empty record under the next id.
func (tab *clusterTable) newCluster() ClusterID {
	tab.lastID++
	tab.put(newClusterState(tab.lastID, resident))
	return tab.lastID
}

// Clusters returns the ids of all known swap-clusters in order.
func (m *Manager) Clusters() []ClusterID {
	m.rt.lock()
	defer m.rt.unlock()
	out := make([]ClusterID, 0, m.table.clusters.len())
	for cs := range m.table.clusters.all {
		out = append(out, cs.id)
	}
	return out
}

// assign records a fresh object of the given class (Runtime.classes) as a
// member of a cluster, which then no longer equals its retained copy.
func (m *Manager) assign(o *heap.Object, cluster ClusterID, class uint32) error {
	m.rt.assertLocked()
	// Resident and unreserved only: a swap-out in flight has already
	// snapshotted the members it will ship and free, and a late joiner would
	// be left behind, resident, in a cluster recorded as swapped.
	cs, err := m.table.at(cluster, resident)
	if err != nil {
		return err
	}
	// A fresh id is above every id the heap has handed out or installed, so
	// the member joins the end of the list.
	cs.members = cs.members.add(run{o.ID(), 1, class})
	o.SetOwner(uint32(cluster))
	cs.changed()
	// Allocation into a cluster is a use signal: advance its recency so
	// victim selection does not evict the cluster being built.
	m.clock++
	m.feed(cs, used)
	return nil
}

// ClusterOf reports the swap-cluster an object belongs to, resident or
// swapped out; a swap-cluster-proxy answers for the object it designates.
// Objects never assigned, and other middleware objects, belong to
// RootCluster.
func (m *Manager) ClusterOf(id heap.ObjID) ClusterID {
	m.rt.lock()
	defer m.rt.unlock()
	return m.clusterOf(id)
}

func (m *Manager) clusterOf(id heap.ObjID) ClusterID {
	d, _ := m.rt.designate(id)
	return d.home
}

// own writes cluster cs into the header of each resident object of members:
// the members a swap-in or a checkpoint restore installed, or a merge or
// split moved.
func (m *Manager) own(cs *clusterState, members runs) {
	for id := range members.ids {
		if o, err := m.rt.h.Get(id); err == nil {
			o.SetOwner(uint32(cs.id))
		}
	}
}

// IsSwapped reports whether the cluster is currently swapped out.
func (m *Manager) IsSwapped(id ClusterID) bool {
	m.rt.lock()
	defer m.rt.unlock()
	_, out := m.shipmentOf(id)
	return out
}

// enlist lists a proxy p that newProxy minted complete, born under id from
// cluster src to the object ultimate of cluster home: in the inbound list of
// home, as an edge out of its source and, unless it is an assign-mode cursor,
// as the proxy proxyFor hands out for (src, ultimate), in the index slot
// proxyFor's lookup missed at. It writes nothing into p. It runs in the mint's
// hold, before anything else can, so it never meets a swept proxy there; it
// reports false, listing nothing, when p is no longer resident under id — a
// collection swept it first, and a later one may have reissued its block as
// another proxy — and so reads p's mode only once that check has passed.
func (m *Manager) enlist(p *heap.Object, id heap.ObjID, src ClusterID, ultimate heap.ObjID, home ClusterID) bool {
	m.rt.assertLocked()
	if !p.ResidentAs(id) {
		return false
	}
	tab := &m.table
	if cs := tab.clusters.get(home); cs != nil {
		cs.inbound = append(cs.inbound, p)
	}
	if cs := tab.clusters.get(src); cs != nil {
		tab.countEdge(cs, home, 1)
	}
	if proxyMode(p) == proxyModeNormal {
		tab.proxies.set(proxyKey{src: src, target: ultimate}, id)
	}
	return true
}

// retarget re-aims proxy p, handed to the caller under id, at the object
// ultimate of cluster to (the Assign iteration optimization): p moves to the
// inbound list of to, its source's edge with it, and is pointed there. It
// reports false, touching nothing, when to is p's source cluster: the caller
// dismantles. When p is no longer resident under id it fails with
// heap.ErrNoSuchObject and touches nothing either: the block may be another
// proxy by now, listed where that one is. p's fields are read only after the
// check.
func (m *Manager) retarget(p *heap.Object, id, ultimate heap.ObjID, to ClusterID) (bool, error) {
	m.rt.assertLocked()
	tab := &m.table
	if !p.ResidentAs(id) {
		return false, fmt.Errorf("%w: @%d", heap.ErrNoSuchObject, id)
	}
	src, from := proxySrc(p), ClusterID(p.Owner())
	if to == src {
		return false, nil
	}
	fs, ts := tab.clusters.get(from), tab.clusters.get(to)
	if from != to && fs != nil && ts != nil {
		if i := slices.Index(fs.inbound, p); i >= 0 {
			fs.inbound = slices.Delete(fs.inbound, i, i+1)
			ts.inbound = append(ts.inbound, p)
			tab.moveEdge(src, from, to)
		}
	}
	setProxySlot(p, id, slotObj, heap.Int(int64(ultimate)))
	tab.point(p, id, ultimate, to)
	return true, nil
}

// dropEntry deletes index[k] if it is still pid.
func dropEntry[K comparable](index map[K]heap.ObjID, k K, pid heap.ObjID) {
	if index[k] == pid {
		delete(index, k)
	}
}

// neighbors is the prefetch window (fault.Config.Neighbors, which the fault
// engine's Rank exposes): the at most k clusters nearest cluster along the
// replacement-object graph, appended to buf[:0], best first. It takes
// cluster's neighbors ranked by proxy-edge count (ties toward the lower id),
// then continues from the best-ranked cluster taken so far, hop by hop, until
// it has k; on a chain that is the next k links. The root cluster, self-edges
// and cluster itself are never taken. A proxy from A to B exists exactly
// because application references cross that boundary, so a fault on A makes
// B the next likely fault, and B's neighbors the ones after. No allocation
// when cap(buf) >= k.
func (m *Manager) neighbors(cluster uint32, k int, buf []uint32) []uint32 {
	out := buf[:0]
	origin := ClusterID(cluster)
	for i, from := 0, origin; len(out) < k; i++ {
		out = m.table.appendNeighbors(out, k, origin, from)
		if i >= len(out) {
			break
		}
		from = ClusterID(out[i])
	}
	return out
}

// appendNeighbors appends from's best-ranked neighbors not yet in out (nor
// origin) until out holds k.
func (tab *clusterTable) appendNeighbors(out []uint32, k int, origin, from ClusterID) []uint32 {
	cs := tab.clusters.get(from)
	if cs == nil {
		return out
	}
	for len(out) < k {
		best, most := RootCluster, int32(0)
		for _, e := range cs.edges { // ascending: the first of equals is the lower id
			if e.to == RootCluster || e.to == from || e.to == origin || slices.Contains(out, uint32(e.to)) {
				continue
			}
			if e.n > most {
				best, most = e.to, e.n
			}
		}
		if most == 0 {
			break
		}
		out = append(out, uint32(best))
	}
	return out
}

// ProxyCount reports the number of live swap-cluster-proxies: every one is
// listed by the record of its target's cluster.
func (m *Manager) ProxyCount() int {
	m.rt.lock()
	defer m.rt.unlock()
	n := 0
	for cs := range m.table.clusters.all {
		n += len(cs.inbound)
	}
	return n
}

// ClusterInfo is a public snapshot of one swap-cluster's state.
type ClusterInfo struct {
	ID            ClusterID
	Objects       int
	ResidentBytes int64
	Swapped       bool
	// Busy reports a swap transition in flight on another goroutine.
	Busy bool
	// Device is the primary replica (the best-ranked donor holding the
	// shipment); Devices is the full replica set, primary first. These, Key,
	// PayloadBytes and Format are filled while the cluster is swapped out.
	Device       string
	Devices      []string
	Key          string
	PayloadBytes int
	// Format is the wire format of the current shipment ("" while resident
	// or for pre-negotiation XML shipments).
	Format string
	// BaseKey and BaseDevices name the retained copy: the last shipment the
	// donors still hold, which a clean swap-out reuses ("" and nil when none
	// is anchored). While the cluster is swapped out it is Key itself. Lease
	// renewal covers it: a resident cluster's copy lives on its donors too.
	BaseKey     string
	BaseDevices []string
	// Dirty reports a member written since the retained copy was anchored:
	// the next swap-out ships instead of leaving on the copy.
	Dirty      bool
	Crossings  uint64
	LastAccess uint64
	SwapOuts   uint64
	SwapIns    uint64
}

// Info snapshots one cluster.
func (m *Manager) Info(id ClusterID) (ClusterInfo, error) {
	m.rt.lock()
	defer m.rt.unlock()
	cs, err := m.table.state(id)
	if err != nil {
		return ClusterInfo{}, err
	}
	return m.infoOf(cs), nil
}

// InfoAll snapshots every cluster in id order, all under one hold of the
// runtime lock: one cut of the table.
func (m *Manager) InfoAll() []ClusterInfo {
	m.rt.lock()
	defer m.rt.unlock()
	return m.infoAll()
}

func (m *Manager) infoAll() []ClusterInfo {
	out := make([]ClusterInfo, 0, m.table.clusters.len())
	for cs := range m.table.clusters.all {
		out = append(out, m.infoOf(cs))
	}
	return out
}

// infoOf snapshots one record.
func (m *Manager) infoOf(cs *clusterState) ClusterInfo {
	c := cs.retained.donorCopy
	info := ClusterInfo{
		ID:          cs.id,
		Objects:     cs.members.count(),
		Swapped:     cs.where.out(),
		Busy:        cs.where.reserved(),
		BaseKey:     c.key,
		BaseDevices: append([]string(nil), c.devices...),
		Dirty:       cs.dirty,
		Crossings:   cs.ledger.Crossings,
		LastAccess:  cs.ledger.LastAccess,
		SwapOuts:    cs.ledger.SwapOuts,
		SwapIns:     cs.ledger.SwapIns,
	}
	if info.Swapped {
		info.Device, info.Devices, info.Key = c.primary(), append([]string(nil), c.devices...), c.key
		info.PayloadBytes, info.Format = c.payloadBytes, c.format
	} else {
		info.ResidentBytes = m.residentBytes(cs)
	}
	return info
}

// residentBytes sums the accounted sizes of a loaded cluster's resident
// members.
func (m *Manager) residentBytes(cs *clusterState) int64 {
	var n int64
	for id := range cs.members.ids {
		if o, err := m.rt.h.Get(id); err == nil {
			n += o.Size()
		}
	}
	return n
}

// VictimStrategy orders candidate clusters for eviction.
type VictimStrategy uint8

const (
	// VictimColdest evicts the least-recently crossed cluster (LRU over
	// boundary traversals).
	VictimColdest VictimStrategy = iota + 1
	// VictimLargest evicts the cluster holding the most resident bytes.
	VictimLargest
	// VictimLeastUsed evicts the least-frequently crossed cluster (LFU).
	VictimLeastUsed
)

// strategyNames names the strategies in policy XML.
var strategyNames = [...]string{VictimColdest: "coldest", VictimLargest: "largest", VictimLeastUsed: "least-used"}

// String names the strategy (used by policy XML).
func (s VictimStrategy) String() string {
	if s == 0 || int(s) >= len(strategyNames) {
		return "strategy?"
	}
	return strategyNames[s]
}

// VictimStrategyFromString parses policy XML strategy names.
func VictimStrategyFromString(s string) (VictimStrategy, error) {
	if i := slices.Index(strategyNames[:], s); i > 0 {
		return VictimStrategy(i), nil
	}
	return 0, fmt.Errorf("core: unknown victim strategy %q", s)
}

// SelectVictims returns every eligible eviction candidate — loaded, non-empty,
// not busy, not the root cluster — ordered by the strategy, best victim
// first, ties toward the lower cluster id: the order SwapOutVictims walks.
// It ranks the candidates and copies the ranking out under one hold of the
// runtime lock, and touches the heap only for VictimLargest, the one strategy
// that needs resident sizes. The ranking is built in the table's candidate
// buffer, kept across calls, so the result is its one allocation.
func (m *Manager) SelectVictims(strategy VictimStrategy) []ClusterID {
	m.rt.lock()
	defer m.rt.unlock()
	tab := &m.table
	ranked := m.gatherVictims(strategy, tab.victims)
	slices.SortFunc(ranked, victimRank.compare)
	out := make([]ClusterID, len(ranked))
	for i, r := range ranked {
		out[i] = r.id
	}
	tab.keepVictims(ranked)
	return out
}

// keepVictims takes buf back as the candidate buffer, unless the table's is
// larger.
func (tab *clusterTable) keepVictims(buf []victimRank) {
	if cap(buf) > cap(tab.victims) {
		tab.victims = buf[:0]
	}
}

// gatherVictims appends every eligible eviction candidate under strategy to
// buf[:0], with its ranking key, in the cluster table's order.
func (m *Manager) gatherVictims(strategy VictimStrategy, buf []victimRank) []victimRank {
	ranked := buf[:0]
	for cs := range m.table.clusters.all {
		if cs.id == RootCluster || cs.where != resident || len(cs.members) == 0 {
			continue
		}
		r := victimRank{id: cs.id}
		switch strategy {
		case VictimLargest:
			r.key = math.MaxUint64 - uint64(m.residentBytes(cs))
		case VictimLeastUsed:
			r.key = cs.ledger.Crossings
		default: // VictimColdest
			r.key = cs.ledger.LastAccess
		}
		ranked = append(ranked, r)
	}
	return ranked
}

// victimRank is one eviction candidate as SelectVictims ranks it.
type victimRank struct {
	id  ClusterID
	key uint64 // ascending: the smaller key is the better victim
}

// compare orders candidates by key, ties toward the lower cluster id.
func (a victimRank) compare(b victimRank) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// heapifyVictims orders buf as a binary min-heap under victimRank.compare:
// buf[0] is the best victim.
func heapifyVictims(buf []victimRank) {
	for i := len(buf)/2 - 1; i >= 0; i-- {
		siftVictim(buf, i)
	}
}

// popVictim removes the best victim from the heap buf and returns it with
// the heap that is left.
func popVictim(buf []victimRank) (victimRank, []victimRank) {
	best, last := buf[0], len(buf)-1
	buf[0] = buf[last]
	buf = buf[:last]
	siftVictim(buf, 0)
	return best, buf
}

// siftVictim moves buf[i] down the heap buf until neither child ranks
// before it.
func siftVictim(buf []victimRank, i int) {
	for {
		c := 2*i + 1
		if c >= len(buf) {
			return
		}
		if r := c + 1; r < len(buf) && buf[r].compare(buf[c]) < 0 {
			c = r
		}
		if buf[i].compare(buf[c]) <= 0 {
			return
		}
		buf[i], buf[c] = buf[c], buf[i]
		i = c
	}
}

// SelectVictim picks the next cluster to swap out under the given strategy:
// the head of the SelectVictims ranking. ok is false when no cluster is
// eligible.
func (m *Manager) SelectVictim(strategy VictimStrategy) (ClusterID, bool) {
	victims := m.SelectVictims(strategy)
	if len(victims) == 0 {
		return 0, false
	}
	return victims[0], true
}
