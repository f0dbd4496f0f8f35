package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"objectswap/internal/heap"
)

// DumpDot writes the device's object graph in Graphviz DOT form, grouping
// objects by swap-cluster and drawing the middleware artifacts the paper's
// Figures 3 and 4 show: swap-cluster-proxies on boundary edges,
// replacement-objects standing in for swapped clusters, and object-fault
// proxies for un-replicated edges. Render with:
//
//	go run ./cmd/obiswap -dot | dot -Tsvg > graph.svg
func (rt *Runtime) DumpDot(w io.Writer) error {
	rt.lock()
	defer rt.unlock()
	h := rt.h
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("digraph objectswap {\n  rankdir=LR;\n  node [fontsize=10];\n")

	// Group resident application objects per cluster, in cluster order.
	var apps []*heap.Object
	var middleware []heap.ObjID
	for _, oid := range h.IDs() {
		if o, _ := h.Get(oid); o.Class().Special == heap.SpecialNone {
			apps = append(apps, o)
		} else {
			middleware = append(middleware, oid)
		}
	}
	slices.SortStableFunc(apps, func(a, b *heap.Object) int { return cmp.Compare(a.Owner(), b.Owner()) })
	for i, o := range apps {
		if c := o.Owner(); i == 0 || apps[i-1].Owner() != c {
			p("  subgraph cluster_%d {\n    label=\"swap-cluster %d\";\n    style=rounded;\n", c, c)
		}
		p("    n%d [label=\"%s@%d\", shape=box];\n", o.ID(), o.Class().Name, o.ID())
		if i == len(apps)-1 || apps[i+1].Owner() != o.Owner() {
			p("  }\n")
		}
	}
	// Swapped clusters appear as annotations.
	for _, info := range rt.mgr.infoAll() {
		if !info.Swapped {
			continue
		}
		p("  swapped_%d [label=\"cluster %d swapped\\n%d objects on %s\", shape=folder, style=dashed];\n",
			info.ID, info.ID, info.Objects, info.Device)
	}
	// Middleware nodes.
	for _, oid := range middleware {
		o, _ := h.Get(oid)
		switch o.Class().Special {
		case heap.SpecialSCProxy:
			p("  n%d [label=\"proxy@%d\\nsrc=%d -> @%d\", shape=diamond, color=blue];\n",
				oid, oid, proxySrc(o), proxyUltimate(o))
		case heap.SpecialReplacement:
			cv, _ := o.FieldByName(fldClust)
			ci, _ := cv.Int()
			p("  n%d [label=\"replacement@%d\\ncluster %d\", shape=octagon, color=red];\n", oid, oid, ci)
		case heap.SpecialObjProxy:
			p("  n%d [label=\"objfault@%d\\nremote @%d\", shape=diamond, color=gray];\n",
				oid, oid, ObjProxyRemote(o))
		default:
			p("  n%d [label=\"%s@%d\", shape=component];\n", oid, o.Class().Name, oid)
		}
	}

	// Roots.
	for _, name := range h.RootNames() {
		v, _ := h.Root(name)
		p("  root_%s [label=\"%s\", shape=plaintext];\n", sanitize(name), name)
		v.MapRefs(func(rid heap.ObjID) heap.ObjID {
			if rid != heap.NilID {
				p("  root_%s -> n%d;\n", sanitize(name), rid)
			}
			return rid
		})
	}

	// Edges.
	for _, oid := range h.IDs() {
		o, _ := h.Get(oid)
		for i := 0; i < o.NumFields(); i++ {
			fieldName := o.Class().Field(i).Name
			o.Field(i).MapRefs(func(rid heap.ObjID) heap.ObjID {
				if rid != heap.NilID {
					if h.Contains(rid) {
						p("  n%d -> n%d [label=\"%s\", fontsize=8];\n", oid, rid, fieldName)
					} else {
						p("  n%d -> missing%d [label=\"%s (away)\", style=dotted, fontsize=8];\n",
							oid, rid, fieldName)
						p("  missing%d [label=\"@%d\", style=dotted];\n", rid, rid)
					}
				}
				return rid
			})
		}
	}
	p("}\n")
	return err
}

// sanitize makes a root name usable as a DOT identifier fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return '_'
	}, s)
}
