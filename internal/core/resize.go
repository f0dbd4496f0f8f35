package core

import (
	"fmt"
	"maps"
	"sort"

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
	// stops the world (every shard lock, in order). The mutate section keeps
	// proxy allocations made during re-mediation from re-entering the evictor
	// (whose swap-outs and Collect would deadlock on the held shard locks).
	rt.lockAll()
	defer rt.unlockAll()
	endMutate := rt.beginMutate(nil)
	defer endMutate()

	m := rt.mgr
	lo, hi := m.lockPair(dst, src)
	ds, err := m.tab(dst).at(dst, resident)
	var ss *clusterState
	if err == nil {
		ss, err = m.tab(src).at(src, resident)
	}
	if err != nil {
		unlockPair(lo, hi)
		return fmt.Errorf("core: merge of clusters %d/%d: %w", dst, src, err)
	}
	moved := maps.Clone(ss.objects)
	unlockPair(lo, hi)

	members := maps.Clone(moved)
	isMember := func(oid heap.ObjID) bool { return members[oid] }
	if err := rt.checkInactive(src, isMember); err != nil {
		return err
	}
	dts := m.tab(dst)
	dts.mu.Lock()
	for oid := range ds.objects {
		members[oid] = true
	}
	dts.mu.Unlock()
	if err := rt.checkInactive(dst, isMember); err != nil {
		return err
	}

	// 1. Move membership.
	m.mu.Lock()
	lo, hi = m.lockPair(dst, src)
	for oid := range moved {
		info := m.objects[oid]
		info.cluster = dst
		m.objects[oid] = info
		delete(ss.objects, oid)
		ds.objects[oid] = true
	}
	// The one place a merge decides what the survivor inherits: src's
	// counters summed into its own, the later recency, the hotter heat and
	// thrash. Dropping src's record drops the rest of its history. Neither
	// retained copy holds the merged cluster: both are forgotten, and the
	// donors told so at the next collection.
	rt.telem.Merge(&ds.ledger, &ss.ledger)
	m.queueDrops(ss.forget(), src)
	m.queueDrops(ds.forget(), dst)
	m.tab(src).drop(ss)
	// Inbound proxies previously indexed under src now target dst members.
	m.rehomeProxies(src, dst, nil)
	unlockPair(lo, hi)
	m.mu.Unlock()

	// 2. Re-mediate the fields of every member of the merged cluster:
	// references to proxies whose ultimate target now shares the cluster are
	// dismantled; proxies sourced at the vanished src are replaced by
	// dst-sourced mediation.
	if err := rt.remediateCluster(dst); err != nil {
		return err
	}
	return nil
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
	rt.lockAll()
	defer rt.unlockAll()
	endMutate := rt.beginMutate(nil)
	defer endMutate()

	m := rt.mgr
	sts := m.tab(src)
	sts.mu.Lock()
	ss, err := sts.at(src, resident)
	if err != nil {
		sts.mu.Unlock()
		return 0, err
	}
	for _, oid := range members {
		if !ss.objects[oid] {
			sts.mu.Unlock()
			return 0, fmt.Errorf("core: split: @%d is not a member of cluster %d", oid, src)
		}
	}
	all := maps.Clone(ss.objects)
	sts.mu.Unlock()
	if err := rt.checkInactive(src, func(oid heap.ObjID) bool { return all[oid] }); err != nil {
		return 0, err
	}

	fresh := m.NewCluster()
	m.mu.Lock()
	lo, hi := m.lockPair(src, fresh)
	fs := m.tab(fresh).clusters[fresh]
	for _, oid := range members {
		info := m.objects[oid]
		info.cluster = fresh
		m.objects[oid] = info
		delete(ss.objects, oid)
		fs.objects[oid] = true
	}
	// The fresh half starts no colder than the cluster it was cut from, whose
	// retained copy holds neither half.
	fs.ledger.LastAccess = ss.ledger.LastAccess
	m.queueDrops(ss.forget(), src)
	// Inbound proxies whose ultimate moved follow it in the index.
	m.rehomeProxies(src, fresh, fs.objects)
	unlockPair(lo, hi)
	m.mu.Unlock()

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

// remediateCluster rewrites the fields of every member of cluster id so the
// mediation invariant holds: intra-cluster references direct, cross-cluster
// references proxied with source id. Object-fault placeholders pass through.
func (rt *Runtime) remediateCluster(id ClusterID) error {
	// Re-mediation rewrites references to semantically identical ones.
	defer rt.h.SuspendWriteObserver()()
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	cs, err := ts.state(id)
	if err != nil {
		ts.mu.Unlock()
		return err
	}
	ids := make([]heap.ObjID, 0, len(cs.objects))
	for oid := range cs.objects {
		ids = append(ids, oid)
	}
	ts.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, oid := range ids {
		o, err := rt.h.Get(oid)
		if err != nil {
			continue // reclaimed as garbage; its record goes at the next compact
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
