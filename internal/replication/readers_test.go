package replication

import "objectswap/internal/heap"

// Readers and knobs only the tests use: the master's shipment count, the
// replicator's grouping factor and its replica map.

// Fetches reports how many cluster shipments the master has served.
func (m *Master) Fetches() (n int) {
	m.rt.WithHeap(func(*heap.Heap) { n = m.fetches })
	return n
}

// SetGroupSize adapts, at runtime, how many future replication clusters are
// grouped into one swap-cluster (the paper's adaptable macro-object size).
// The current group is closed: the next shipment starts a new swap-cluster.
func (r *Replicator) SetGroupSize(n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groupSize = n
	r.inCurrent = r.groupSize // force a fresh swap-cluster on next shipment
}

// GroupSize reports the current grouping factor.
func (r *Replicator) GroupSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.groupSize
}

// LocalOf reports the local replica of a master identity, if replicated.
func (r *Replicator) LocalOf(remote heap.ObjID) (heap.ObjID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.remoteToLocal[remote]
	return id, ok
}
