package core

import (
	"fmt"
	"slices"

	"objectswap/internal/heap"
)

// Swap-cluster resizing: the paper makes both the replication-cluster size
// and the number of clusters grouped into one swap-cluster "adaptable", and
// the ablation benchmarks show why adaptation matters (bad granularity
// thrashes the link). MergeClusters and SplitCluster adapt the granularity
// of an already-built graph at runtime while preserving the mediation
// invariant: after either operation, every cross-cluster reference is
// proxied at the correct source cluster and every intra-cluster reference is
// direct.

// MergeClusters folds cluster src into cluster dst: all of src's objects
// become members of dst, proxies across the former boundary are dismantled
// into direct references, and src is removed. Both clusters must be resident
// and inactive; dst may be RootCluster (demoting a cluster into the global
// space), src may not.
func (rt *Runtime) MergeClusters(dst, src ClusterID) error {
	if src == RootCluster {
		return ErrRootCluster
	}
	if src == dst {
		return fmt.Errorf("core: merge: src and dst are both cluster %d", src)
	}

	// Resizing rewrites membership and member fields; it is a graph mutation
	// and must not interleave with concurrent swaps or collections, so it
	// holds the runtime lock throughout. The mutate section keeps proxy
	// allocations made during re-mediation from running the evictor, which
	// would let go of it.
	rt.lock()
	defer rt.unlock()
	defer rt.beginMutate()()

	tab := &rt.mgr.table
	ds, err := tab.at(dst, resident)
	var ss *clusterState
	if err == nil {
		ss, err = tab.at(src, resident)
	}
	if err != nil {
		return fmt.Errorf("core: merge of clusters %d/%d: %w", dst, src, err)
	}
	if err = rt.checkInactive(src, ss.members.has); err == nil {
		err = rt.checkInactive(dst, ds.members.has)
	}
	if err != nil {
		return err
	}

	// 1. Move membership, and the inbound proxies with their targets.
	rt.mgr.regroup(ss, ds, func(heap.ObjID) bool { return true })
	// The one place a merge decides what the survivor inherits: src's
	// counters summed into its own, the later recency, the hotter heat and
	// thrash. Dropping src's record drops the rest of its history. Neither
	// retained copy holds the merged cluster: both are forgotten, and the
	// donors told so at the next collection.
	rt.telem.Merge(&ds.ledger, &ss.ledger)
	tab.queueDrops(forgotCopy{src, ss.forget()}, forgotCopy{dst, ds.forget()})
	tab.drop(ss)

	// 2. Re-mediate the fields of every member of the merged cluster:
	// references to proxies whose ultimate target now shares the cluster are
	// dismantled; proxies sourced at the vanished src are replaced by
	// dst-sourced mediation.
	return rt.remediateCluster(dst)
}

// SplitCluster moves the given members of cluster src into a fresh cluster
// and returns its id. Boundary edges created by the split are mediated with
// new proxies; references within each half stay direct. The cluster must be
// resident and inactive, and every listed object must be a member.
func (rt *Runtime) SplitCluster(src ClusterID, members []heap.ObjID) (ClusterID, error) {
	if src == RootCluster {
		return 0, ErrRootCluster
	}
	if len(members) == 0 {
		return 0, fmt.Errorf("%w: empty split set", ErrClusterEmpty)
	}

	// See MergeClusters: resizing is a stop-the-world graph mutation.
	rt.lock()
	defer rt.unlock()
	defer rt.beginMutate()()

	tab := &rt.mgr.table
	ss, err := tab.at(src, resident)
	for _, oid := range members {
		if err == nil && !ss.members.has(oid) {
			err = fmt.Errorf("core: split: @%d is not a member of cluster %d", oid, src)
		}
	}
	if err == nil {
		err = rt.checkInactive(src, ss.members.has)
	}
	if err != nil {
		return 0, err
	}

	moved := slices.Sorted(slices.Values(members))
	fresh := tab.newCluster()
	fs := tab.clusters.get(fresh)
	rt.mgr.regroup(ss, fs, func(oid heap.ObjID) bool {
		_, ok := slices.BinarySearch(moved, oid)
		return ok
	})
	// The fresh half starts no colder than the cluster it was cut from, whose
	// retained copy holds neither half.
	fs.ledger.LastAccess = ss.ledger.LastAccess
	tab.queueDrops(forgotCopy{src, ss.forget()})

	// Re-mediate both halves: edges crossing the new boundary gain proxies;
	// proxies that now point within their holder's cluster are dismantled.
	if err := rt.remediateCluster(src); err != nil {
		return fresh, err
	}
	if err := rt.remediateCluster(fresh); err != nil {
		return fresh, err
	}
	return fresh, nil
}

// regroup moves the members of from that moves picks to to's runs, their
// headers with them, and every proxy of from's inbound list whose ultimate
// target moved to to's inbound list, its header and its source's edge with
// it. Both clusters are resident.
func (m *Manager) regroup(from, to *clusterState, moves func(heap.ObjID) bool) {
	tab := &m.table
	moved := from.members.keep(moves)
	from.members = from.members.keep(func(oid heap.ObjID) bool { return !moves(oid) })
	to.members = slices.Concat(to.members, moved).sorted()
	m.own(to, moved)
	from.inbound = slices.DeleteFunc(from.inbound, func(p *heap.Object) bool {
		if !moves(proxyUltimate(p)) {
			return false
		}
		p.SetOwner(uint32(to.id))
		to.inbound = append(to.inbound, p)
		tab.moveEdge(proxySrc(p), from.id, to.id)
		return true
	})
}

// remediateCluster rewrites the fields of every member of cluster id so the
// mediation invariant holds: intra-cluster references direct, cross-cluster
// references proxied with source id. Object-fault placeholders pass through.
func (rt *Runtime) remediateCluster(id ClusterID) error {
	// Re-mediation rewrites references to semantically identical ones.
	defer rt.h.SuspendWriteObserver()()
	cs, err := rt.mgr.table.state(id)
	if err != nil {
		return err
	}
	for oid := range cs.members.ids {
		o, err := rt.h.Get(oid)
		if err != nil {
			continue // reclaimed as garbage: that collection forgot its record
		}
		for i := 0; i < o.NumFields(); i++ {
			v := o.Field(i)
			if v.Kind() != heap.KindRef && v.Kind() != heap.KindList {
				continue
			}
			nv, err := rt.translate(v, id)
			if err != nil {
				return fmt.Errorf("core: re-mediate @%d field %s: %w",
					oid, o.Class().Field(i).Name, err)
			}
			if !nv.Equal(v) {
				if err := o.SetField(i, nv); err != nil {
					return err
				}
			}
		}
	}
	// Roots are cluster-0 state: when id is the root cluster (a merge into
	// it), re-mediate them too.
	if id == RootCluster {
		for _, name := range rt.h.RootNames() {
			v, _ := rt.h.Root(name)
			if v.Kind() != heap.KindRef && v.Kind() != heap.KindList {
				continue
			}
			nv, err := rt.translate(v, RootCluster)
			if err != nil {
				return fmt.Errorf("core: re-mediate root %s: %w", name, err)
			}
			if !nv.Equal(v) {
				rt.h.SetRoot(name, nv)
			}
		}
	}
	return nil
}
