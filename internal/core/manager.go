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
// object belongs to and its class name (needed to synthesize proxies for
// objects that are currently swapped out, hence not resident).
type objInfo struct {
	cluster ClusterID
	class   string
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
// without a byte (swapOut.reserve); one that does not ships in full. members
// is the membership the payload holds, ascending; slots is its outbound slot
// table, the ultimate target of each slot in slot order. Neither is
// checkpointed, so a restored copy serves reloads and cleanup but anchors
// nothing until the cluster is next reloaded or shipped. Only anchor, forget
// and rehome (state.go) write a record's copy.
type retainedCopy struct {
	donorCopy
	members []heap.ObjID
	slots   []heap.ObjID
}

// usable reports whether the copy can stand in for the resident cluster (key
// known AND the membership table survived — false after a checkpoint
// restore).
func (c retainedCopy) usable() bool { return c.key != "" && len(c.members) > 0 }

// shipment is the swapped-out side of a cluster record: the replacement-object
// standing in for it. The payload is the record's retained copy.
type shipment struct {
	replacement heap.ObjID
	// bytesAtSwap is the resident size at swap-out, to pre-check reload room.
	bytesAtSwap int64
}

// clusterState is the SwappingManager's per-swap-cluster record.
type clusterState struct {
	id      ClusterID
	objects map[heap.ObjID]bool

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
	// reports a member written since it was anchored (touch); it resets
	// when a shipment becomes the copy or a reload proves the copy equals
	// resident state.
	retained retainedCopy
	dirty    bool
}

// proxyKey identifies the unique swap-cluster-proxy for a
// (source-cluster, target-object) pair. The paper: "When there are multiple
// references to the same object, across the same pair of swap-clusters, only
// a swap-cluster-proxy is required."
type proxyKey struct {
	src    ClusterID
	target heap.ObjID
}

// proxyRecord is the SwappingManager's one record of a live
// swap-cluster-proxy (a weak reference: the collection that sweeps the proxy
// purges it, in Manager.reclaimed).
type proxyRecord struct {
	key    proxyKey
	cursor bool      // a private self-patching cursor: never offered for shared reuse
	home   ClusterID // the cluster whose inbound index lists it: its target's
}

// clusterTable is the SwappingManager's cluster table: the record (residency
// included) of every swap-cluster, added and removed only through put and
// drop (state.go), and the objects belonging to each. members is the
// object-to-cluster index, kept in step with every record's member set;
// lastID is the highest cluster id handed out. The proxy registry and the
// drop queue stay under Manager.mu, and no code holds both locks except
// CheckInvariants.
type clusterTable struct {
	mu       sync.Mutex
	clusters map[ClusterID]*clusterState
	members  map[heap.ObjID]objInfo
	tally    [numResidencies]int // records by residency
	lastID   ClusterID
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
// objects belonging to each, and all swap-cluster-proxies (through weak
// references, purged from each collection's swept list by reclaimed).
type Manager struct {
	rt *Runtime

	table clusterTable

	mu sync.Mutex
	// proxyRecs holds every live swap-cluster-proxy's record; proxies indexes
	// the shared ones by key for reuse, and inbound indexes all of them by the
	// cluster of their ultimate target (record.home), so swap-out can patch
	// every inbound proxy of the victim cluster. outbound counts them by
	// source cluster and home: the replacement-object graph's edges, which
	// the prefetch window walks (NeighborClusters).
	proxyRecs    map[heap.ObjID]proxyRecord
	proxies      map[proxyKey]heap.ObjID
	inbound      map[ClusterID]map[heap.ObjID]bool
	outbound     map[ClusterID]map[ClusterID]int
	objProxies   map[heap.ObjID]heap.ObjID // remote identity -> proxy id
	objProxyMeta map[heap.ObjID]heap.ObjID // proxy id -> remote identity

	// pendingDrops holds (device, key) pairs whose Drop failed (device
	// unreachable); retried on the next collection until the per-ticket
	// budget is spent, then abandoned with a swap.drop.abandoned event.
	pendingDrops   []dropTicket
	abandonedDrops int

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
	m := &Manager{
		rt:           rt,
		table:        clusterTable{clusters: make(map[ClusterID]*clusterState), members: make(map[heap.ObjID]objInfo)},
		proxyRecs:    make(map[heap.ObjID]proxyRecord),
		proxies:      make(map[proxyKey]heap.ObjID),
		inbound:      make(map[ClusterID]map[heap.ObjID]bool),
		outbound:     make(map[ClusterID]map[ClusterID]int),
		objProxies:   make(map[heap.ObjID]heap.ObjID),
		objProxyMeta: make(map[heap.ObjID]heap.ObjID),
	}
	m.table.put(newClusterState(RootCluster, 0, resident))
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

// replacementIfSwapped reports the cluster's replacement-object while it is
// swapped out — the target a fresh inbound reference must be mediated onto.
func (m *Manager) replacementIfSwapped(id ClusterID) (heap.ObjID, bool) {
	was, out := m.shipmentOf(id)
	return was.replacement, out
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
	tab.put(newClusterState(tab.lastID, 0, resident))
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

// assign records an object as a member of a cluster.
func (m *Manager) assign(id heap.ObjID, cluster ClusterID, class string) error {
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
	cs.objects[id] = true
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

// member returns an object's membership record — its cluster and class name,
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

// registerProxy records a freshly created proxy.
func (m *Manager) registerProxy(pid heap.ObjID, rec proxyRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recordProxy(pid, rec)
}

// recordProxy stores a proxy's record and indexes it: as inbound to rec.home,
// as an edge out of its source cluster and, when it is shareable and the slot
// is vacant, under its key for reuse. The caller holds m.mu.
func (m *Manager) recordProxy(pid heap.ObjID, rec proxyRecord) {
	m.proxyRecs[pid] = rec
	if _, taken := m.proxies[rec.key]; !taken && !rec.cursor {
		m.proxies[rec.key] = pid
	}
	idx := m.inbound[rec.home]
	if idx == nil {
		idx = make(map[heap.ObjID]bool)
		m.inbound[rec.home] = idx
	}
	idx[pid] = true
	out := m.outbound[rec.key.src]
	if out == nil {
		out = make(map[ClusterID]int)
		m.outbound[rec.key.src] = out
	}
	out[rec.home]++
}

// unindexProxy takes a proxy out of every index. The caller holds m.mu.
func (m *Manager) unindexProxy(pid heap.ObjID, rec proxyRecord) {
	if m.proxies[rec.key] == pid {
		delete(m.proxies, rec.key)
	}
	delete(m.inbound[rec.home], pid)
	if out := m.outbound[rec.key.src]; out[rec.home] > 1 {
		out[rec.home]--
	} else {
		delete(out, rec.home)
	}
}

// lookupProxy finds the live shared proxy for key, if any.
func (m *Manager) lookupProxy(key proxyKey) (heap.ObjID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pid, ok := m.proxies[key]
	return pid, ok
}

// retargetProxy moves a proxy to a new target in cluster home (the Assign
// iteration optimization). The registry slot for the new key is claimed only
// if vacant, and never by a private cursor: a shared reuse would hand out a
// reference that patches itself away underneath the holder.
func (m *Manager) retargetProxy(pid, target heap.ObjID, home ClusterID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.proxyRecs[pid]
	if !ok {
		// The proxy was collected and purged (or never registered): a
		// retarget must not resurrect registry entries for a dead object.
		return
	}
	m.unindexProxy(pid, rec)
	rec.key.target, rec.home = target, home
	m.recordProxy(pid, rec)
}

// purge removes every registry entry of a proxy — swap-cluster or
// object-fault — that is no longer resident. proxyFor and ObjProxyFor call it
// on a registry hit the heap no longer holds; reclaimed purges a whole
// collection's swept ids under one hold of m.mu instead.
func (m *Manager) purge(pid heap.ObjID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.purgeLocked(pid)
}

// purgeLocked is purge for a caller that holds m.mu.
func (m *Manager) purgeLocked(pid heap.ObjID) {
	if rec, ok := m.proxyRecs[pid]; ok {
		delete(m.proxyRecs, pid)
		m.unindexProxy(pid, rec)
	} else if remote, ok := m.objProxyMeta[pid]; ok {
		delete(m.objProxyMeta, pid)
		if m.objProxies[remote] == pid {
			delete(m.objProxies, remote)
		}
	}
}

// rehomeProxies moves the inbound proxies of cluster from — those whose target
// is in moved, or all of them when moved is nil — to cluster to's index, after
// a resize moved their targets there.
func (m *Manager) rehomeProxies(from, to ClusterID, moved map[heap.ObjID]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for pid := range m.inbound[from] {
		rec := m.proxyRecs[pid]
		if moved != nil && !moved[rec.key.target] {
			continue
		}
		m.unindexProxy(pid, rec)
		rec.home = to
		m.recordProxy(pid, rec)
	}
	if len(m.inbound[from]) == 0 {
		delete(m.inbound, from)
	}
}

// inboundProxies snapshots the live proxies whose ultimate target lies in
// cluster id.
func (m *Manager) inboundProxies(id ClusterID) []heap.ObjID {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := m.inbound[id]
	out := make([]heap.ObjID, 0, len(idx))
	for pid := range idx {
		out = append(out, pid)
	}
	slices.Sort(out)
	return out
}

// NeighborClusters is the prefetch window: the at most k clusters nearest
// cluster along the replacement-object graph, appended to buf[:0], best
// first. It takes cluster's neighbors ranked by proxy-edge count (ties toward
// the lower id), then continues from the best-ranked cluster taken so far,
// hop by hop, until it has k; on a chain that is the next k links. The root
// cluster, self-edges and cluster itself are never taken. A proxy from A to B
// exists exactly because application references cross that boundary, so a
// fault on A makes B the next likely fault, and B's neighbors the ones after.
// One hold of m.mu, and no allocation when cap(buf) >= k.
func (m *Manager) NeighborClusters(cluster uint32, k int, buf []uint32) []uint32 {
	out := buf[:0]
	origin := ClusterID(cluster)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, from := 0, origin; len(out) < k; i++ {
		out = m.appendNeighbors(out, k, origin, from)
		if i >= len(out) {
			break
		}
		from = ClusterID(out[i])
	}
	return out
}

// appendNeighbors appends from's best-ranked neighbors not yet in out (nor
// origin) until out holds k. The caller holds m.mu.
func (m *Manager) appendNeighbors(out []uint32, k int, origin, from ClusterID) []uint32 {
	edges := m.outbound[from]
	for len(out) < k {
		best, most := RootCluster, 0
		for dst, n := range edges {
			if dst == RootCluster || dst == from || dst == origin || slices.Contains(out, uint32(dst)) {
				continue
			}
			if n > most || n == most && dst < best {
				best, most = dst, n
			}
		}
		if most == 0 {
			break
		}
		out = append(out, uint32(best))
	}
	return out
}

// ProxyCount reports the number of live registered swap-cluster-proxies.
func (m *Manager) ProxyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.proxyRecs)
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
		Objects:     len(cs.objects),
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
	for id := range cs.objects {
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
// first, ties toward the lower cluster id. The ranking reads the records
// under one hold of the table lock and touches the heap only for
// VictimLargest, the one strategy that needs resident sizes.
func (m *Manager) SelectVictims(strategy VictimStrategy) []ClusterID {
	type ranked struct {
		id  ClusterID
		key uint64 // ascending: the smaller key is the better victim
	}
	var eligible []ranked
	m.table.mu.Lock()
	for id, cs := range m.table.clusters {
		if id == RootCluster || cs.where != resident || len(cs.objects) == 0 {
			continue
		}
		r := ranked{id: id}
		switch strategy {
		case VictimLargest:
			r.key = math.MaxUint64 - uint64(m.residentBytes(cs))
		case VictimLeastUsed:
			r.key = cs.ledger.Crossings
		default: // VictimColdest
			r.key = cs.ledger.LastAccess
		}
		eligible = append(eligible, r)
	}
	m.table.mu.Unlock()
	slices.SortFunc(eligible, func(a, b ranked) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	out := make([]ClusterID, len(eligible))
	for i, r := range eligible {
		out[i] = r.id
	}
	return out
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
