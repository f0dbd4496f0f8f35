package core

import (
	"fmt"

	"objectswap/internal/heap"
)

// CheckInvariants validates the SwappingManager's bookkeeping against the
// heap and the paper's structural rules, returning every violation found.
// It is exercised by the property-based test suites after random operation
// sequences, and is available to applications as a diagnostic.
//
// Checked invariants:
//
//  1. membership — every tracked object belongs to exactly one known
//     cluster, and cluster member sets agree with the per-object index;
//  2. residency — a cluster is in exactly one place: a swapped cluster's
//     replacement-object is resident and none of its members is (swap-out
//     frees them at commit);
//  3. proxy registry — every recorded proxy is resident, is a
//     swap-cluster-proxy, agrees with its record's key (source cluster and
//     ultimate target), is listed in exactly one inbound index (its record's
//     home) and counted once in the outbound edges of its source, and at most
//     one shared proxy exists per (source, target) pair;
//  4. mediation — every reference held in an application object's field is
//     intra-cluster direct, or a proxy sourced at the holding cluster, or an
//     object-fault placeholder;
//  5. proxy targets — a proxy's target field designates its ultimate target
//     when the target's cluster is loaded, and the cluster's
//     replacement-object while it is swapped out;
//  6. accounting — the heap's used-byte counter equals the sum of resident
//     object sizes.
func (m *Manager) CheckInvariants() []error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lockTabs()
	defer m.unlockTabs()
	// A merged view of the sharded table; every shard is locked above, so the
	// cut is consistent.
	clusters := make(map[ClusterID]*clusterState)
	for _, ts := range m.tabs {
		for cid, cs := range ts.clusters {
			clusters[cid] = cs
		}
	}
	h := m.rt.h
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// 1. Membership agreement.
	for oid, info := range m.objects {
		cs, ok := clusters[info.cluster]
		if !ok {
			fail("object @%d assigned to unknown cluster %d", oid, info.cluster)
			continue
		}
		if !cs.objects[oid] {
			fail("object @%d missing from cluster %d member set", oid, info.cluster)
		}
	}
	for cid, cs := range clusters {
		for oid := range cs.objects {
			if info, ok := m.objects[oid]; !ok || info.cluster != cid {
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
		for oid := range cs.objects {
			if h.Contains(oid) {
				fail("swapped cluster %d member @%d is resident", cid, oid)
			}
		}
	}

	// 3. Proxy registry consistency.
	indexed := 0
	for _, idx := range m.inbound {
		indexed += len(idx)
	}
	if indexed != len(m.proxyRecs) {
		fail("inbound indexes list %d proxies, registry records %d", indexed, len(m.proxyRecs))
	}
	for pid, rec := range m.proxyRecs {
		if !m.inbound[rec.home][pid] {
			fail("proxy @%d missing from the inbound index of its home cluster %d", pid, rec.home)
		}
		p, err := h.Get(pid)
		if err != nil {
			fail("registered proxy @%d not resident (cursor=%v, key src=%d target=@%d)",
				pid, rec.cursor, rec.key.src, rec.key.target)
			continue
		}
		if !isProxy(p) {
			fail("registered proxy @%d is a %s", pid, p.Class().Name)
			continue
		}
		if got := proxySrc(p); got != rec.key.src {
			fail("proxy @%d source %d disagrees with registry key %d", pid, got, rec.key.src)
		}
		if got := proxyUltimate(p); got != rec.key.target {
			fail("proxy @%d ultimate @%d disagrees with registry key @%d", pid, got, rec.key.target)
		}
	}
	edges := make(map[[2]ClusterID]int)
	for _, rec := range m.proxyRecs {
		edges[[2]ClusterID{rec.key.src, rec.home}]++
	}
	for src, out := range m.outbound {
		for home, n := range out {
			if want := edges[[2]ClusterID{src, home}]; n != want {
				fail("outbound index counts %d proxies from cluster %d into %d, registry records %d", n, src, home, want)
			}
			delete(edges, [2]ClusterID{src, home})
		}
	}
	for e, n := range edges {
		fail("outbound index misses %d proxies from cluster %d into %d", n, e[0], e[1])
	}
	// The shared index is a map, so at most one shared proxy per key holds by
	// construction; each entry must be a recorded, shareable proxy of that key.
	for key, pid := range m.proxies {
		if rec, ok := m.proxyRecs[pid]; !ok || rec.cursor || rec.key != key {
			fail("shared proxy @%d for (%d,@%d) has record %+v (recorded=%v)", pid, key.src, key.target, rec, ok)
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
			if info, ok := m.objects[oid]; ok {
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
						if info, ok := m.objects[rid]; ok {
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
			if info, ok := m.objects[ultimate]; ok {
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
