package objectswap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowed names the exported functions and methods in internal/ that
// no non-test Go outside their package calls by name, and why each stays.
// Keys are "<package dir under internal/>.<Func>" or
// "<package dir>.<Type>.<Method>".
var exportAllowed = map[string]string{
	"core.Manager.IsSwapped":          "test reader: the root package's tests check a cluster's residency",
	"core.Runtime.IsProxyRef":         "test reader: schema, gentest and root tests check that a cross-cluster edge is mediated",
	"core.Runtime.ReplicaSet":         "test reader: the root package's durability tests read a repaired cluster's replica set",
	"heap.Class.MethodNames":          "test reader: schema/gentest compares generated and synthesized method tables",
	"heap.Heap.SetCapacity":           "test knob: core tests shrink a live heap's budget to force evictions",
	"obs.NewVirtualClock":             "test double: a deterministic clock for telemetry, lease, bus and fault tests",
	"obs.VirtualClock.Advance":        "test double: moves obs.VirtualClock",
	"obs.Registry.Gauge":              "metric kind: opshttp's exposition test renders an unlabelled gauge, which no component registers yet",
	"placement.Order":                 "test reader: core and root failure tests predict the rendezvous placement order",
	"replication.Master.FetchRoot":    "interface method: replication.Transport",
	"replication.Master.FetchCluster": "interface method: replication.Transport",
	"replication.Client.FetchRoot":    "interface method: replication.Transport",
	"replication.Client.FetchCluster": "interface method: replication.Transport",
	"replication.Master.PushCluster":  "interface method: replication.UpdateTransport",
	"replication.Client.PushCluster":  "interface method: replication.UpdateTransport",
	"store.NewFlaky":                  "test double: store.Flaky injects donor failures and latency into other packages' tests",
	"store.Flaky.FailNext":            "test double: store.Flaky injects donor failures and latency into other packages' tests",
	"store.Flaky.FailOn":              "test double: store.Flaky injects donor failures and latency into other packages' tests",
	"store.Flaky.FailRate":            "test double: store.Flaky's seeded random failures, pinned by the store package's own Flaky tests",
	"store.Flaky.HangOn":              "test double: store.Flaky injects donor failures and latency into other packages' tests",
	"store.Flaky.SetLatency":          "test double: store.Flaky's injected latency, pinned by the store package's own Flaky tests",
	"store.Flaky.Calls":               "test double: store.Flaky injects donor failures and latency into other packages' tests",
	"store.LeaseGC.LeaseCount":        "test reader: the root package's lease test counts tracked leases",
	"telemetry.Tracker.HeatClassOf":   "test reader: the root package's telemetry test reads a cluster's heat class",
}

// interfaceMethods are method names the standard library calls through an
// interface, not a selector in this module: fmt.Stringer and http.Handler.
var interfaceMethods = map[string]bool{"String": true, "ServeHTTP": true}

// TestInternalExportsAreCalled holds internal/ to the surface its callers
// use: every exported function and every exported method of an exported type
// in a non-test, non-generated file under internal/ is named by a selector
// in non-test Go outside its package (cmd/, examples/, the root package,
// other internal/ packages, benchmark/ and benchmark/'s test files), or is
// in exportAllowed with its reason. Matching is by name only: a selector
// .Foo anywhere outside the package counts for every Foo in it. Methods of
// unexported types are reached only through interfaces and are not listed.
func TestInternalExportsAreCalled(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name, pkg, pos string }
	var decls []decl
	// refs maps a selector name to the package directories that name it.
	refs := map[string]map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		test := strings.HasSuffix(path, "_test.go")
		if test && dir != "benchmark" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if refs[sel.Sel.Name] == nil {
					refs[sel.Sel.Name] = map[string]bool{}
				}
				refs[sel.Sel.Name][dir] = true
			}
			return true
		})
		pkg, ok := strings.CutPrefix(dir, "internal/")
		if !ok || test || ast.IsGenerated(f) {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := receiverType(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) || interfaceMethods[fn.Name.Name] {
					continue
				}
				key = pkg + "." + recv + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, dir, fset.Position(fn.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, d := range decls {
		for dir := range refs[d.name] {
			if dir != d.pkg {
				used[d.key] = true
			}
		}
	}
	var unused []string
	for _, d := range decls {
		if !used[d.key] && exportAllowed[d.key] == "" {
			unused = append(unused, d.pos+": "+d.key)
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test Go outside its package calls it: delete it, unexport it, or allow-list it with its reason", u)
	}
	for key := range exportAllowed {
		found := false
		for _, d := range decls {
			found = found || d.key == key
		}
		if !found {
			t.Errorf("exportAllowed lists %s, which is not an exported function or method in internal/", key)
		}
	}
}

// receiverType is the name of a method receiver's type: T, *T, T[P], *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
