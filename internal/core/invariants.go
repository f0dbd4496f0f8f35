package core

import (
	"fmt"
	"maps"

	"objectswap/internal/heap"
)

// CheckInvariants validates the SwappingManager's bookkeeping against the
// heap and the paper's structural rules, returning every violation found.
// It is exercised by the property-based test suites after random operation
// sequences, and is available to applications as a diagnostic.
//
// Checked invariants:
//
//  1. membership — every record's member list is strictly ascending, and
//     it agrees with the object index both ways: an indexed object is listed
//     by the known cluster the index names, a listed one indexed to it;
//  2. residency — a cluster is in exactly one place: a swapped cluster's
//     replacement-object is resident and none of its members is (swap-out
//     frees them at commit);
//  3. proxy records, read from the heap — every resident
//     swap-cluster-proxy is listed exactly once, in the inbound list of its
//     ultimate target's cluster, and counted once in its source record's
//     edges (a source merged away takes its count with it); each record's
//     edges are ascending and count exactly those proxies; every shared-proxy
//     entry is a resident normal-mode swap-cluster-proxy whose source and
//     ultimate target are its key, and every object-fault entry a resident
//     object-fault proxy standing for its remote identity;
//  4. mediation — every reference held in an application object's field is
//     intra-cluster direct, or a proxy sourced at the holding cluster, or an
//     object-fault placeholder;
//  5. proxy targets — a proxy's target field designates its ultimate target
//     when the target's cluster is loaded, and the cluster's
//     replacement-object while it is swapped out;
//  6. accounting — the heap's used-byte counter equals the sum of resident
//     object sizes.
//
// One hold of the runtime lock reads the records, the reuse indexes and the
// heap as one cut.
func (m *Manager) CheckInvariants() []error {
	m.rt.lock()
	defer m.rt.unlock()
	tab := &m.table
	clusters, members := tab.clusters, tab.members
	h := m.rt.h
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// 1. Membership agreement.
	for oid, info := range members {
		cs, ok := clusters[info.cluster]
		if !ok {
			fail("object @%d assigned to unknown cluster %d", oid, info.cluster)
			continue
		}
		if !cs.has(oid) {
			fail("object @%d missing from cluster %d member list", oid, info.cluster)
		}
	}
	for cid, cs := range clusters {
		for i, oid := range cs.members {
			if i > 0 && cs.members[i-1] >= oid {
				fail("cluster %d lists @%d after @%d: member list not ascending", cid, oid, cs.members[i-1])
			}
			if info, ok := members[oid]; !ok || info.cluster != cid {
				fail("cluster %d lists @%d but object index disagrees", cid, oid)
			}
		}
	}

	// 2. Residency.
	for cid, cs := range clusters {
		if !cs.where.out() {
			continue
		}
		if !h.Contains(cs.replacement) {
			fail("swapped cluster %d lost its replacement-object @%d", cid, cs.replacement)
		}
		for _, oid := range cs.members {
			if h.Contains(oid) {
				fail("swapped cluster %d member @%d is resident", cid, oid)
			}
		}
	}

	// 3. Proxy records, read from the heap.
	listed := make(map[heap.ObjID]int)
	for cid, cs := range clusters {
		for _, p := range cs.inbound {
			listed[p.ID()]++
			if !h.Contains(p.ID()) || !isProxy(p) {
				fail("cluster %d lists @%d as an inbound proxy, which is no resident swap-cluster-proxy", cid, p.ID())
			} else if home := members[proxyUltimate(p)].cluster; home != cid {
				fail("cluster %d lists proxy @%d, whose target @%d is in cluster %d", cid, p.ID(), proxyUltimate(p), home)
			}
		}
	}
	edges := make(map[[2]ClusterID]int32)
	for _, oid := range h.IDs() {
		p, err := h.Get(oid)
		if err != nil || !isProxy(p) {
			continue
		}
		home := members[proxyUltimate(p)].cluster
		if n := listed[oid]; n != 1 {
			fail("proxy @%d is listed %d times, want once, by cluster %d", oid, n, home)
		}
		if src := proxySrc(p); clusters[src] != nil {
			edges[[2]ClusterID{src, home}]++
		}
	}
	counted := make(map[[2]ClusterID]int32)
	for cid, cs := range clusters {
		for i, e := range cs.edges {
			if i > 0 && cs.edges[i-1].to >= e.to {
				fail("cluster %d lists its edge into %d out of order", cid, e.to)
			}
			if e.n < 0 {
				fail("cluster %d counts %d proxies into %d", cid, e.n, e.to)
			}
			if e.n != 0 { // a zero waits for the next purge (countEdge)
				counted[[2]ClusterID{cid, e.to}] = e.n
			}
		}
	}
	if !maps.Equal(counted, edges) {
		fail("the records count proxy edges %v, the heap holds %v", counted, edges)
	}
	for key, pid := range tab.proxies.all {
		p, err := h.Get(pid)
		if err != nil || !isProxy(p) || proxySrc(p) != key.src || proxyUltimate(p) != key.target || proxyMode(p) != proxyModeNormal {
			fail("shared proxy @%d for (%d,@%d) is no resident normal-mode swap-cluster-proxy of that key", pid, key.src, key.target)
		}
	}
	for remote, pid := range tab.objProxies {
		if p, err := h.Get(pid); err != nil || !isObjProxy(p) || ObjProxyRemote(p) != remote {
			fail("object-fault proxy @%d for remote @%d is no resident placeholder standing for it", pid, remote)
		}
	}

	// 6. Accounting.
	var liveBytes int64
	for _, oid := range h.IDs() {
		if o, err := h.Get(oid); err == nil {
			liveBytes += o.Size()
		}
	}
	if used := h.Used(); used != liveBytes {
		fail("heap accounting drift: used %d, live object bytes %d", used, liveBytes)
	}

	// 4+5. Field mediation and proxy target fields.
	for _, oid := range h.IDs() {
		o, err := h.Get(oid)
		if err != nil {
			continue
		}
		switch o.Class().Special {
		case heap.SpecialNone:
			holder := RootCluster
			if info, ok := members[oid]; ok {
				holder = info.cluster
			}
			for i := 0; i < o.NumFields(); i++ {
				o.Field(i).MapRefs(func(rid heap.ObjID) heap.ObjID {
					if rid == heap.NilID {
						return rid
					}
					ro, err := h.Get(rid)
					if err != nil {
						fail("object @%d field %s holds dangling @%d",
							oid, o.Class().Field(i).Name, rid)
						return rid
					}
					switch ro.Class().Special {
					case heap.SpecialNone:
						tc := RootCluster
						if info, ok := members[rid]; ok {
							tc = info.cluster
						}
						if tc != holder {
							fail("object @%d (cluster %d) holds un-proxied reference to @%d (cluster %d)",
								oid, holder, rid, tc)
						}
					case heap.SpecialSCProxy:
						if src := proxySrc(ro); src != holder {
							fail("object @%d (cluster %d) holds proxy @%d sourced at %d",
								oid, holder, rid, src)
						}
					case heap.SpecialObjProxy:
						// Placeholders are cluster-agnostic.
					default:
						fail("object @%d holds %s reference @%d", oid, ro.Class().Special, rid)
					}
					return rid
				})
			}
		case heap.SpecialSCProxy:
			ultimate := proxyUltimate(o)
			tc := RootCluster
			if info, ok := members[ultimate]; ok {
				tc = info.cluster
			}
			tgt := proxyTarget(o)
			cs := clusters[tc]
			if cs != nil && cs.where.out() {
				if tgt != cs.replacement {
					fail("proxy @%d to swapped cluster %d targets @%d, want replacement @%d",
						oid, tc, tgt, cs.replacement)
				}
			} else if tgt != ultimate {
				fail("proxy @%d targets @%d, want ultimate @%d", oid, tgt, ultimate)
			}
		}
	}
	return errs
}
