// Package replication implements OBIWAN's incremental object replication:
// the substrate Object-Swapping is built on.
//
// A well-resourced master node holds the authoritative object graph.
// Constrained devices replicate it incrementally, in clusters of adaptable
// size: objects not yet replicated are represented by object-fault proxies
// transparent to application code; invoking one fetches the cluster of
// objects containing the target (wrapped in XML, as everything OBIWAN ships),
// installs them locally, and then performs proxy replacement — the fetched
// proxies disappear from the graph so the application thereafter runs at
// full speed, except that references crossing swap-cluster boundaries are
// re-mediated by permanent swap-cluster-proxies.
//
// Swap-cluster formation happens here too: each replicated cluster is
// assigned to a swap-cluster, grouping a configurable number of replication
// clusters per swap-cluster (the paper's "number (also adaptable) of chained
// object clusters" regarded as a single macro-object).
package replication

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// Errors reported by the replication module.
var (
	// ErrUnknownRoot reports a named root absent from the master.
	ErrUnknownRoot = errors.New("replication: unknown root")
	// ErrUnknownObject reports a cluster request for an id the master does
	// not hold.
	ErrUnknownObject = errors.New("replication: unknown object")
)

// Transport fetches graph shipments from a master node. Implementations:
// Master (in-process) and Client (HTTP web-services bridge). Every fetch
// takes a context so callers can bound transfers over flaky links.
type Transport interface {
	// FetchRoot resolves a named root on the master to its object identity
	// and class.
	FetchRoot(ctx context.Context, name string) (heap.ObjID, string, error)
	// FetchCluster returns the wrapped cluster of objects containing id.
	FetchCluster(ctx context.Context, id heap.ObjID) (*xmlcodec.Doc, error)
}

// Master is the authoritative node: it owns the source object graph (on an
// unconstrained heap) and serves it in BFS clusters of ClusterSize objects.
type Master struct {
	mu          sync.Mutex
	h           *heap.Heap
	rt          *heap.DirectRuntime
	reg         *heap.Registry
	clusterSize int
	fetches     int
}

// NewMaster builds a master over its own unconstrained heap. clusterSize is
// the number of objects shipped per object fault (the paper evaluates 20, 50
// and 100).
func NewMaster(reg *heap.Registry, clusterSize int) *Master {
	if clusterSize <= 0 {
		clusterSize = 50
	}
	h := heap.New(0)
	return &Master{
		h:           h,
		rt:          heap.NewDirectRuntime(h),
		reg:         reg,
		clusterSize: clusterSize,
	}
}

// Heap exposes the master's heap for graph construction.
func (m *Master) Heap() *heap.Heap { return m.h }

// Runtime exposes the master's direct (non-swapping) runtime.
func (m *Master) Runtime() *heap.DirectRuntime { return m.rt }

// Registry exposes the shared class registry.
func (m *Master) Registry() *heap.Registry { return m.reg }

// ClusterSize reports the configured shipment size.
func (m *Master) ClusterSize() int { return m.clusterSize }

// Fetches reports how many cluster shipments the master has served.
func (m *Master) Fetches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fetches
}

// FetchRoot implements Transport. The in-process master cannot block, so the
// context is only checked for prior cancellation.
func (m *Master) FetchRoot(ctx context.Context, name string) (heap.ObjID, string, error) {
	if err := ctx.Err(); err != nil {
		return heap.NilID, "", err
	}
	v, ok := m.h.Root(name)
	if !ok {
		return heap.NilID, "", fmt.Errorf("%w: %q", ErrUnknownRoot, name)
	}
	id, err := v.Ref()
	if err != nil || id == heap.NilID {
		return heap.NilID, "", fmt.Errorf("%w: root %q is not an object reference", ErrUnknownRoot, name)
	}
	o, err := m.h.Get(id)
	if err != nil {
		return heap.NilID, "", err
	}
	return id, o.Class().Name, nil
}

// FetchCluster implements Transport: it serves the BFS cluster of up to
// ClusterSize objects rooted at id. References leaving the shipment are
// encoded as remote references carrying the target's class, so the receiver
// can synthesize object-fault proxies without further round trips.
func (m *Master) FetchCluster(ctx context.Context, id heap.ObjID) (*xmlcodec.Doc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.fetches++
	m.mu.Unlock()

	seed, err := m.h.Get(id)
	if err != nil {
		return nil, fmt.Errorf("%w: @%d", ErrUnknownObject, id)
	}

	// Deterministic BFS over the reference graph.
	members := map[heap.ObjID]bool{id: true}
	order := []heap.ObjID{id}
	queue := []*heap.Object{seed}
	for len(queue) > 0 && len(order) < m.clusterSize {
		o := queue[0]
		queue = queue[1:]
		var edges []heap.ObjID
		for i := 0; i < o.NumFields(); i++ {
			o.Field(i).MapRefs(func(rid heap.ObjID) heap.ObjID {
				if rid != heap.NilID {
					edges = append(edges, rid)
				}
				return rid
			})
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		for _, rid := range edges {
			if len(order) >= m.clusterSize || members[rid] {
				continue
			}
			ro, err := m.h.Get(rid)
			if err != nil {
				return nil, fmt.Errorf("replication: dangling edge @%d: %w", rid, err)
			}
			members[rid] = true
			order = append(order, rid)
			queue = append(queue, ro)
		}
	}

	objs := make([]*heap.Object, 0, len(order))
	for _, oid := range order {
		o, _ := m.h.Get(oid)
		objs = append(objs, o)
	}
	encodeRef := func(rid heap.ObjID) (xmlcodec.Value, error) {
		if members[rid] {
			return xmlcodec.InternalRef(rid), nil
		}
		ro, err := m.h.Get(rid)
		if err != nil {
			return xmlcodec.Value{}, fmt.Errorf("replication: dangling edge @%d: %w", rid, err)
		}
		return xmlcodec.RemoteRefOf(rid, ro.Class().Name), nil
	}
	key := fmt.Sprintf("replcluster-%d", id)
	return xmlcodec.EncodeObjects(key, objs, encodeRef)
}

var _ Transport = (*Master)(nil)
