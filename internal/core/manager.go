package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/telemetry"
)

// objInfo is the SwappingManager's per-object record: which swap-cluster the
// object belongs to and its class (an index into Runtime.classes, which a
// checkpoint names for every member, swapped-out ones included). It holds no
// pointer, so the Go collector does not scan it.
type objInfo struct {
	cluster ClusterID
	class   uint32
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
	id ClusterID
	// members lists the objects belonging to the cluster, ascending, under
	// the table lock; it is edited in place only while the cluster is
	// resident, since a swap-out reads it from reserve to commit.
	members []heap.ObjID

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

	// zeroed reports the record is in the table's zeroed list: its edges
	// may hold a zero count that the next purge compacts (countEdge).
	zeroed bool

	// inbound lists the live swap-cluster-proxies whose ultimate target is a
	// member (for the root cluster, also an object never assigned): what the
	// paper's replacement-object receives, re-pointed by settle. edges
	// counts the live proxies sourced here by their target's cluster,
	// ascending by it: the graph NeighborClusters walks. A proxy's own fields
	// say where it is listed and counted. swept is the last reclaimed pass
	// that compacted inbound. All three change only under the table lock.
	inbound []*heap.Object
	edges   []edge
	swept   uint64
}

// has reports whether oid is a member. The caller holds the table lock.
func (cs *clusterState) has(oid heap.ObjID) bool {
	_, ok := slices.BinarySearch(cs.members, oid)
	return ok
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
// counts. The caller holds tab.mu.
func (tab *clusterTable) countEdge(cs *clusterState, to ClusterID, delta int32) {
	i, found := slices.BinarySearchFunc(cs.edges, to, func(e edge, to ClusterID) int { return cmp.Compare(e.to, to) })
	if !found {
		cs.edges = slices.Insert(cs.edges, i, edge{to: to})
	}
	if cs.edges[i].n += delta; cs.edges[i].n == 0 && !cs.zeroed {
		cs.zeroed = true
		tab.zeroed = append(tab.zeroed, cs)
	}
}

// compactEdges drops the zero counts of every record listed in tab.zeroed,
// and empties the list. The caller holds tab.mu.
func (tab *clusterTable) compactEdges() {
	for i, cs := range tab.zeroed {
		cs.edges = slices.DeleteFunc(cs.edges, func(e edge) bool { return e.n == 0 })
		cs.zeroed = false
		tab.zeroed[i] = nil
	}
	tab.zeroed = tab.zeroed[:0]
}

// moveEdge moves one proxy of src's count from cluster from to cluster to,
// when src still has a record. The caller holds tab.mu.
func (tab *clusterTable) moveEdge(src, from, to ClusterID) {
	if ss, ok := tab.clusters[src]; ok {
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
// word is held in packed, whose lookups, inserts and deletes take Go's
// 64-bit map path; any other key in wide, made when the first one comes.
type proxyIndex struct {
	packed map[uint64]heap.ObjID
	wide   map[proxyKey]heap.ObjID
}

func (x *proxyIndex) get(k proxyKey) (heap.ObjID, bool) {
	if w, ok := k.pack(); ok {
		pid, ok := x.packed[w]
		return pid, ok
	}
	pid, ok := x.wide[k]
	return pid, ok
}

func (x *proxyIndex) set(k proxyKey, pid heap.ObjID) {
	if w, ok := k.pack(); ok {
		x.packed[w] = pid
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
		dropEntry(x.packed, w, pid)
	} else {
		dropEntry(x.wide, k, pid)
	}
}

// all yields every entry.
func (x *proxyIndex) all(yield func(proxyKey, heap.ObjID) bool) {
	for w, pid := range x.packed {
		if !yield(proxyKey{src: ClusterID(w >> targetBits), target: heap.ObjID(w & (1<<targetBits - 1))}, pid) {
			return
		}
	}
	for k, pid := range x.wide {
		if !yield(k, pid) {
			return
		}
	}
}

// clusterTable is the SwappingManager's state, all of it under one lock: the
// record (residency included) of every swap-cluster, added and removed only
// through put and drop (state.go), the objects belonging to each, and each
// one's inbound proxies and outbound edges; the proxy reuse indexes, the
// deferred-drop queue and the victim buffer. members is the
// object-to-cluster index, kept in step with every record's member list;
// lastID is the highest cluster id handed out.
type clusterTable struct {
	mu       sync.Mutex
	clusters map[ClusterID]*clusterState
	members  map[heap.ObjID]objInfo
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

	// victims is the buffer eviction candidates are ranked in, reused from
	// call to call: SelectVictims ranks in it under the lock, and a victim
	// walk takes it for its length, nil until the walk puts it back
	// (SwapOutVictims).
	victims []victimRank
}

// state returns the record for id. The caller holds tab.mu.
func (tab *clusterTable) state(id ClusterID) (*clusterState, error) {
	cs, ok := tab.clusters[id]
	if !ok {
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
	// allocations; atomic so a crossing takes no lock to read it.
	clock atomic.Uint64
	// retaining is set by the first anchor of a usable copy and never reset:
	// until a cluster has something to be dirty against, the write observer
	// returns before it takes a lock.
	retaining atomic.Bool
}

type dropTicket struct {
	device   string
	key      string
	cluster  ClusterID
	attempts int
}

func newManager(rt *Runtime) *Manager {
	m := &Manager{rt: rt, table: clusterTable{
		clusters:   make(map[ClusterID]*clusterState),
		members:    make(map[heap.ObjID]objInfo),
		proxies:    proxyIndex{packed: make(map[uint64]heap.ObjID)},
		objProxies: make(map[heap.ObjID]heap.ObjID),
	}}
	m.table.put(newClusterState(RootCluster, resident))
	return m
}

// shipmentOf returns the cluster's shipment while its members are on the
// donors; ok is false for a resident or unknown cluster.
func (m *Manager) shipmentOf(id ClusterID) (shipment, bool) {
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	cs, ok := m.table.clusters[id]
	if !ok || !cs.where.out() {
		return shipment{}, false
	}
	return cs.shipment, true
}

// point aims proxy p, handed to the caller under id, at its ultimate target,
// or at the replacement-object of that target's cluster while it is swapped
// out, and reports false if p is no longer resident under id. It is the one
// writer of a proxy's target, and its caller holds tab.mu and lists p:
// enlist, retarget, or settle as the cluster moves.
func (tab *clusterTable) point(p *heap.Object, id, ultimate heap.ObjID) bool {
	to := ultimate
	if cs, ok := tab.clusters[tab.members[to].cluster]; ok && cs.where.out() {
		to = cs.replacement
	}
	return setProxySlot(p, id, slotTarget, heap.Ref(to))
}

// NewCluster declares a fresh, empty swap-cluster and returns its id.
func (m *Manager) NewCluster() ClusterID {
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	return m.table.newCluster()
}

// newCluster adds a fresh, empty record under the next id. The caller holds
// tab.mu.
func (tab *clusterTable) newCluster() ClusterID {
	tab.lastID++
	tab.put(newClusterState(tab.lastID, resident))
	return tab.lastID
}

// Clusters returns the ids of all known swap-clusters in order.
func (m *Manager) Clusters() []ClusterID {
	var ids []ClusterID
	m.table.mu.Lock()
	for id := range m.table.clusters {
		ids = append(ids, id)
	}
	m.table.mu.Unlock()
	slices.Sort(ids)
	return ids
}

// assign records an object of the given class (Runtime.classes) as a member
// of a cluster, which then no longer equals its retained copy.
func (m *Manager) assign(id heap.ObjID, cluster ClusterID, class uint32) error {
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	// Resident and unreserved only: a swap-out in flight has already
	// snapshotted the members it will ship and free, and a late joiner would
	// be left behind, resident, in a cluster recorded as swapped.
	cs, err := m.table.at(cluster, resident)
	if err != nil {
		return err
	}
	if prev, dup := m.table.members[id]; dup {
		return fmt.Errorf("core: object @%d already assigned to cluster %d", id, prev.cluster)
	}
	m.table.members[id] = objInfo{cluster: cluster, class: class}
	// Heap ids rise, so this is an append in practice.
	i, _ := slices.BinarySearch(cs.members, id)
	cs.members = slices.Insert(cs.members, i, id)
	cs.changed()
	// Allocation into a cluster is a use signal: advance its recency so
	// victim selection does not evict the cluster being built.
	m.feed(cs, used, m.clock.Add(1), m.rt.telem.Now())
	return nil
}

// ClusterOf reports the swap-cluster an object belongs to. Objects never
// assigned belong to RootCluster.
func (m *Manager) ClusterOf(id heap.ObjID) ClusterID {
	info, _ := m.member(id)
	return info.cluster
}

// member returns an object's membership record — its cluster and class,
// valid even while the object is swapped out. An object never assigned has
// none: it belongs to RootCluster, the zero record's cluster.
func (m *Manager) member(id heap.ObjID) (objInfo, bool) {
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	info, ok := m.table.members[id]
	return info, ok
}

// IsSwapped reports whether the cluster is currently swapped out.
func (m *Manager) IsSwapped(id ClusterID) bool {
	_, out := m.shipmentOf(id)
	return out
}

// enlist points a freshly minted proxy p, born under id from cluster src to
// the object ultimate, and lists it in one table hold: in the inbound list of
// its target's cluster, as an edge out of its source and, unless it is an
// assign-mode cursor, as the proxy proxyFor hands out for (src, ultimate). It
// reports false, writing and listing nothing, when p is no longer resident
// under id — a collection swept it first, and a later one may have reissued
// its block as another proxy — so it reads p's mode only once point has
// passed that check (see retarget).
func (m *Manager) enlist(p *heap.Object, id heap.ObjID, src ClusterID, ultimate heap.ObjID) bool {
	tab := &m.table
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if !tab.point(p, id, ultimate) {
		return false
	}
	home := tab.members[ultimate].cluster
	if cs, ok := tab.clusters[home]; ok {
		cs.inbound = append(cs.inbound, p)
	}
	if cs, ok := tab.clusters[src]; ok {
		tab.countEdge(cs, home, 1)
	}
	if proxyMode(p) == proxyModeNormal {
		tab.proxies.set(proxyKey{src: src, target: ultimate}, id)
	}
	return true
}

// retarget re-aims proxy p, handed to the caller under id, at the object
// ultimate (the Assign iteration optimization) in one table hold: p moves to
// the inbound list of ultimate's cluster, its source's edge with it, and is
// pointed there. It reports false, touching nothing, when ultimate is in p's
// source cluster: the caller dismantles. When p is no longer resident under id
// it fails with heap.ErrNoSuchObject and touches nothing either: the block
// may be another proxy by now, listed where that one is. Within the hold a
// block that passed the check is not reissued — that takes a further
// collection, whose purge waits for the table lock — so p's fields are read
// only after it.
func (m *Manager) retarget(p *heap.Object, id, ultimate heap.ObjID) (bool, error) {
	tab := &m.table
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if !p.ResidentAs(id) {
		return false, fmt.Errorf("%w: @%d", heap.ErrNoSuchObject, id)
	}
	src := proxySrc(p)
	from, to := tab.members[proxyUltimate(p)].cluster, tab.members[ultimate].cluster
	if to == src {
		return false, nil
	}
	fs, fok := tab.clusters[from]
	ts, tok := tab.clusters[to]
	if from != to && fok && tok {
		if i := slices.Index(fs.inbound, p); i >= 0 {
			fs.inbound = slices.Delete(fs.inbound, i, i+1)
			ts.inbound = append(ts.inbound, p)
			tab.moveEdge(src, from, to)
		}
	}
	setProxySlot(p, id, slotObj, heap.Int(int64(ultimate)))
	tab.point(p, id, ultimate)
	return true, nil
}

// lookupProxy finds the live shared proxy for key, if any.
func (m *Manager) lookupProxy(key proxyKey) (heap.ObjID, bool) {
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	return m.table.proxies.get(key)
}

// unshare withdraws proxy pid from reuse, if it holds key's slot.
func (m *Manager) unshare(key proxyKey, pid heap.ObjID) {
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	m.table.proxies.drop(key, pid)
}

// dropEntry deletes index[k] if it is still pid. The caller holds the table
// lock.
func dropEntry[K comparable](index map[K]heap.ObjID, k K, pid heap.ObjID) {
	if index[k] == pid {
		delete(index, k)
	}
}

// NeighborClusters is the prefetch window: the at most k clusters nearest
// cluster along the replacement-object graph, appended to buf[:0], best
// first. It takes cluster's neighbors ranked by proxy-edge count (ties toward
// the lower id), then continues from the best-ranked cluster taken so far,
// hop by hop, until it has k; on a chain that is the next k links. The root
// cluster, self-edges and cluster itself are never taken. A proxy from A to B
// exists exactly because application references cross that boundary, so a
// fault on A makes B the next likely fault, and B's neighbors the ones after.
// One hold of the table lock, and no allocation when cap(buf) >= k.
func (m *Manager) NeighborClusters(cluster uint32, k int, buf []uint32) []uint32 {
	out := buf[:0]
	origin := ClusterID(cluster)
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
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
// origin) until out holds k. The caller holds tab.mu.
func (tab *clusterTable) appendNeighbors(out []uint32, k int, origin, from ClusterID) []uint32 {
	cs, ok := tab.clusters[from]
	if !ok {
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
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	n := 0
	for _, cs := range m.table.clusters {
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
	m.table.mu.Lock()
	defer m.table.mu.Unlock()
	cs, err := m.table.state(id)
	if err != nil {
		return ClusterInfo{}, err
	}
	return m.infoOf(cs), nil
}

// InfoAll snapshots every cluster in id order, all under one hold of the
// table lock: one cut of the table.
func (m *Manager) InfoAll() []ClusterInfo {
	var out []ClusterInfo
	m.table.mu.Lock()
	for _, cs := range m.table.clusters {
		out = append(out, m.infoOf(cs))
	}
	m.table.mu.Unlock()
	slices.SortFunc(out, func(a, b ClusterInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// infoOf snapshots one record; the caller holds the table lock.
func (m *Manager) infoOf(cs *clusterState) ClusterInfo {
	c := cs.retained.donorCopy
	info := ClusterInfo{
		ID:          cs.id,
		Objects:     len(cs.members),
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
// members; the caller holds the table lock.
func (m *Manager) residentBytes(cs *clusterState) int64 {
	var n int64
	for _, id := range cs.members {
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

// String names the strategy (used by policy XML).
func (s VictimStrategy) String() string {
	switch s {
	case VictimColdest:
		return "coldest"
	case VictimLargest:
		return "largest"
	case VictimLeastUsed:
		return "least-used"
	default:
		return "strategy?"
	}
}

// VictimStrategyFromString parses policy XML strategy names.
func VictimStrategyFromString(s string) (VictimStrategy, error) {
	switch s {
	case "coldest":
		return VictimColdest, nil
	case "largest":
		return VictimLargest, nil
	case "least-used":
		return VictimLeastUsed, nil
	default:
		return 0, fmt.Errorf("core: unknown victim strategy %q", s)
	}
}

// SelectVictims returns every eligible eviction candidate — loaded, non-empty,
// not busy, not the root cluster — ordered by the strategy, best victim
// first, ties toward the lower cluster id: the order SwapOutVictims walks.
// It ranks the candidates and copies the ranking out under one hold of the
// table lock, and touches the heap only for VictimLargest, the one strategy
// that needs resident sizes. The ranking is built in the table's candidate
// buffer, kept across calls, so the result is its one allocation.
func (m *Manager) SelectVictims(strategy VictimStrategy) []ClusterID {
	tab := &m.table
	tab.mu.Lock()
	defer tab.mu.Unlock()
	ranked := m.rankVictims(strategy, tab.victims)
	out := make([]ClusterID, len(ranked))
	for i, r := range ranked {
		out[i] = r.id
	}
	tab.keepVictims(ranked)
	return out
}

// keepVictims takes buf back as the candidate buffer, unless the one the
// table holds is larger. The caller holds tab.mu.
func (tab *clusterTable) keepVictims(buf []victimRank) {
	if cap(buf) > cap(tab.victims) {
		tab.victims = buf[:0]
	}
}

// rankVictims appends every eligible eviction candidate under strategy to
// buf[:0], with its ranking key, and sorts them best victim first. The
// caller holds the table lock.
func (m *Manager) rankVictims(strategy VictimStrategy, buf []victimRank) []victimRank {
	ranked := buf[:0]
	for id, cs := range m.table.clusters {
		if id == RootCluster || cs.where != resident || len(cs.members) == 0 {
			continue
		}
		r := victimRank{id: id}
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
	slices.SortFunc(ranked, victimRank.compare)
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
