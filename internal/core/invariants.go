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
//  1. membership — runs are non-empty, ascending and disjoint across
//     records; every resident member's header names the record that lists
//     it, and a header naming a cluster other than the root is listed by it;
//  2. residency — a cluster is in exactly one place: a swapped cluster's
//     replacement-object is resident and none of its members is (swap-out
//     frees them at commit);
//  3. proxy records, read from the heap — every resident
//     swap-cluster-proxy's header names its home, its ultimate target's
//     cluster, whose inbound list lists it exactly once, and it is counted
//     once in its source record's
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
	clusters := &tab.clusters
	h := m.rt.h
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	lists := func(cid ClusterID, oid heap.ObjID) bool {
		cs := clusters.get(cid)
		return cs != nil && cs.members.has(oid)
	}

	// 1 and 2. Membership from the records' side (the objects' side is read
	// from the heap below), and residency.
	for cs := range clusters.all {
		cid := cs.id
		for i, r := range cs.members {
			if r.n == 0 || i > 0 && cs.members[i-1].end() > r.lo {
				fail("cluster %d lists run @%d+%d out of place: runs not ascending", cid, r.lo, r.n)
			}
			for oid := r.lo; oid < r.end(); oid++ {
				switch o, err := h.Get(oid); {
				case err != nil:
				case cs.where.out():
					fail("swapped cluster %d member @%d is resident", cid, oid)
				case o.Class().Special != heap.SpecialNone || ClusterID(o.Owner()) != cid:
					fail("cluster %d lists @%d, whose header names cluster %d", cid, oid, o.Owner())
				}
			}
		}
		if cs.where.out() && !h.Contains(cs.replacement) {
			fail("swapped cluster %d lost its replacement-object @%d", cid, cs.replacement)
		}
	}
	if oid, ok := tab.overlap(); ok {
		fail("@%d is listed by two runs", oid)
	}

	// 3. Proxy records: the inbound lists, and the edges the records count.
	listed := make(map[heap.ObjID]int)
	for cs := range clusters.all {
		cid := cs.id
		for _, p := range cs.inbound {
			listed[p.ID()]++
			if !h.Contains(p.ID()) || !isProxy(p) {
				fail("cluster %d lists @%d as an inbound proxy, which is no resident swap-cluster-proxy", cid, p.ID())
			} else if home := ClusterID(p.Owner()); home != cid {
				fail("cluster %d lists proxy @%d, whose header names cluster %d", cid, p.ID(), home)
			}
		}
	}
	counted := make(map[[2]ClusterID]int32)
	for cs := range clusters.all {
		cid := cs.id
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

	// 1 and 3 to 6, read from each resident object: its header, its fields
	// and its size.
	edges := make(map[[2]ClusterID]int32)
	var liveBytes int64
	for _, oid := range h.IDs() {
		o, _ := h.Get(oid)
		liveBytes += o.Size()
		switch home := ClusterID(o.Owner()); o.Class().Special {
		case heap.SpecialNone:
			if home != RootCluster && !lists(home, oid) {
				fail("object @%d names cluster %d in its header, which does not list it", oid, home)
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
						if tc := ClusterID(ro.Owner()); tc != home {
							fail("object @%d (cluster %d) holds un-proxied reference to @%d (cluster %d)",
								oid, home, rid, tc)
						}
					case heap.SpecialSCProxy:
						if src := proxySrc(ro); src != home {
							fail("object @%d (cluster %d) holds proxy @%d sourced at %d",
								oid, home, rid, src)
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
			u, tgt := proxyUltimate(o), proxyTarget(o)
			if ro, err := h.Get(u); err == nil && ClusterID(ro.Owner()) != home || err != nil && !lists(home, u) {
				fail("proxy @%d names cluster %d in its header, which does not hold its target @%d", oid, home, u)
			}
			if n := listed[oid]; n != 1 {
				fail("proxy @%d is listed %d times, want once, by cluster %d", oid, n, home)
			}
			if src := proxySrc(o); clusters.get(src) != nil {
				edges[[2]ClusterID{src, home}]++
			}
			if cs := clusters.get(home); cs != nil && cs.where.out() {
				if tgt != cs.replacement {
					fail("proxy @%d to swapped cluster %d targets @%d, want replacement @%d",
						oid, home, tgt, cs.replacement)
				}
			} else if tgt != u {
				fail("proxy @%d targets @%d, want ultimate @%d", oid, tgt, u)
			}
		}
	}
	if !maps.Equal(counted, edges) {
		fail("the records count proxy edges %v, the heap holds %v", counted, edges)
	}
	if used := h.Used(); used != liveBytes {
		fail("heap accounting drift: used %d, live object bytes %d", used, liveBytes)
	}
	return errs
}
