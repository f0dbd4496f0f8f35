package objectswap

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/replication"
	"objectswap/internal/store"
	"objectswap/internal/txn"
)

func taskClass() *heap.Class {
	c := heap.NewClass("Task",
		heap.FieldDef{Name: "title", Kind: heap.KindString},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
	c.AddMethod("title", func(call *heap.Call) ([]heap.Value, error) {
		v, _ := call.Self.FieldByName("title")
		return []heap.Value{v}, nil
	})
	c.AddMethod("next", func(call *heap.Call) ([]heap.Value, error) {
		v, _ := call.Self.FieldByName("next")
		return []heap.Value{v}, nil
	})
	return c
}

func TestSystemQuickstartFlow(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice("desktop", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())

	cluster := sys.NewCluster()
	a, err := sys.NewObject(cls, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetField(a.RefTo(), "title", heap.Str("write paper")); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRoot("todo", a.RefTo()); err != nil {
		t.Fatal(err)
	}

	// Explicit swap-out and transparent reload.
	ev, err := sys.SwapOut(cluster)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Objects != 1 {
		t.Fatalf("event = %+v", ev)
	}
	sys.Collect()
	root, err := sys.MustRoot("todo")
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Invoke(root, "title")
	if err != nil {
		t.Fatal(err)
	}
	title, _ := out[0].Str()
	if title != "write paper" {
		t.Fatalf("title = %q", title)
	}

	// Identity and field reads through the façade.
	eq, err := sys.RefEqual(root, a.RefTo())
	if err != nil || !eq {
		t.Fatalf("RefEqual = %v, %v", eq, err)
	}
	v, err := sys.Field(root, "title")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.Str(); s != "write paper" {
		t.Fatalf("Field = %v", v)
	}
	infos := sys.Clusters()
	if len(infos) != 2 { // root + one
		t.Fatalf("clusters = %d", len(infos))
	}
	if _, err := sys.MustRoot("ghost"); !errors.Is(err, ErrNoRoot) {
		t.Fatalf("MustRoot ghost: %v", err)
	}
}

func TestSystemPressurePolicyEndToEnd(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 9216, MemoryThreshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	dev := store.NewMem(0)
	if err := sys.AttachDevice("neighbor", dev); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())

	var swaps []SwapEvent
	sys.Bus().Subscribe(event.TopicSwapOut, func(ev event.Event) {
		swaps = append(swaps, ev.Payload.(SwapEvent))
	})

	for c := 0; c < 8; c++ {
		cluster := sys.NewCluster()
		for i := 0; i < 6; i++ {
			o, err := sys.NewObject(cls, cluster)
			if err != nil {
				t.Fatalf("cluster %d obj %d: %v", c, i, err)
			}
			if err := sys.SetField(o.RefTo(), "title", heap.Str(fmt.Sprintf("t-%d-%d", c, i))); err != nil {
				t.Fatal(err)
			}
			if err := sys.SetRoot(fmt.Sprintf("r-%d-%d", c, i), o.RefTo()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(swaps) == 0 {
		t.Fatal("pressure policy never swapped")
	}
	if keys, _ := dev.Keys(context.Background()); len(keys) == 0 {
		t.Fatal("device holds nothing")
	}
	// Everything still readable.
	for c := 0; c < 8; c++ {
		for i := 0; i < 6; i++ {
			root, err := sys.MustRoot(fmt.Sprintf("r-%d-%d", c, i))
			if err != nil {
				t.Fatal(err)
			}
			out, err := sys.Invoke(root, "title")
			if err != nil {
				t.Fatalf("r-%d-%d: %v", c, i, err)
			}
			if s, _ := out[0].Str(); s != fmt.Sprintf("t-%d-%d", c, i) {
				t.Fatalf("r-%d-%d = %q", c, i, s)
			}
		}
	}
}

func TestSystemConnectivityGatesSwapping(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice("pda", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	cluster := sys.NewCluster()
	o, _ := sys.NewObject(cls, cluster)
	_ = sys.SetRoot("x", o.RefTo())

	sys.SetDeviceAvailable("pda", false)
	if _, err := sys.SwapOut(cluster); !errors.Is(err, store.ErrNoDevice) {
		t.Fatalf("swap with no reachable device: %v", err)
	}
	sys.SetDeviceAvailable("pda", true)
	if _, err := sys.SwapOut(cluster); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SwapIn(cluster); err != nil {
		t.Fatal(err)
	}
}

func TestSystemCustomPoliciesAndErrors(t *testing.T) {
	if _, err := New(Config{Policies: []byte("}{")}); err == nil {
		t.Fatal("bad policy document accepted")
	}
	custom := `<policies>
  <policy name="never" category="user">
    <on event="memory.threshold"/>
    <when><gt left="heap.used.pct" right="200"/></when>
    <action do="swap-out"/>
  </policy>
</policies>`
	sys, err := New(Config{HeapCapacity: 4096, Policies: []byte(custom)})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Engine().Policies()); got != 1 {
		t.Fatalf("policies = %d", got)
	}
}

func TestSystemReplication(t *testing.T) {
	// Master side.
	reg := heap.NewRegistry()
	reg.MustRegister(taskClass())
	master := replication.NewMaster(reg, 5)
	cls, _ := reg.Lookup("Task")
	var prev *heap.Object
	for i := 0; i < 12; i++ {
		o, _ := master.Heap().New(cls)
		o.MustSet("title", heap.Str(fmt.Sprintf("m%d", i)))
		if prev == nil {
			master.Heap().SetRoot("inbox", o.RefTo())
		} else {
			prev.MustSet("next", o.RefTo())
		}
		prev = o
	}

	// Device side through the façade.
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	_ = sys.AttachDevice("neighbor", store.NewMem(0))
	sys.MustRegisterClass(taskClass())
	repl := sys.ReplicateFrom(master, 1)
	if _, err := repl.ReplicateRoot(context.Background(), "inbox"); err != nil {
		t.Fatal(err)
	}
	root, _ := sys.MustRoot("inbox")
	cur := root
	count := 0
	for !cur.IsNil() {
		out, err := sys.Invoke(cur, "title")
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := out[0].Str(); s != fmt.Sprintf("m%d", count) {
			t.Fatalf("item %d = %q", count, s)
		}
		next, err := sys.Field(cur, "next")
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		count++
	}
	if count != 12 {
		t.Fatalf("replicated %d items", count)
	}
	if repl.StatsSnapshot().ClustersFetched < 2 {
		t.Fatalf("stats = %+v", repl.StatsSnapshot())
	}
}

func TestSystemMergeSplitAndTransactions(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	_ = sys.AttachDevice("d", store.NewMem(0))
	cls := sys.MustRegisterClass(taskClass())

	a, b := sys.NewCluster(), sys.NewCluster()
	oa, _ := sys.NewObject(cls, a)
	ob, _ := sys.NewObject(cls, b)
	_ = sys.SetField(oa.RefTo(), "next", ob.RefTo())
	_ = sys.SetRoot("x", oa.RefTo())

	// Merge through the façade: the cross-cluster edge dismantles.
	if err := sys.MergeClusters(a, b); err != nil {
		t.Fatal(err)
	}
	nv, _ := oa.FieldByName("next")
	if nv.MustRef() != ob.ID() {
		t.Fatalf("edge not dismantled after merge: %v", nv)
	}
	// Split it back out.
	fresh, err := sys.SplitCluster(a, []heap.ObjID{ob.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == a {
		t.Fatal("split returned source cluster")
	}
	nv, _ = oa.FieldByName("next")
	if !sys.Runtime().IsProxyRef(nv) {
		t.Fatalf("edge not re-mediated after split: %v", nv)
	}

	// Transactions through the façade.
	tx := sys.Transactions()
	if err := tx.Run(func(m *txn.Manager) error {
		return m.Set(oa.RefTo(), "title", heap.Str("inside"))
	}); err != nil {
		t.Fatal(err)
	}
	v, _ := oa.FieldByName("title")
	if s, _ := v.Str(); s != "inside" {
		t.Fatalf("committed write lost: %q", s)
	}
}

func TestSystemReport(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20, DeviceName: "report-pda"})
	if err != nil {
		t.Fatal(err)
	}
	_ = sys.AttachDevice("d", store.NewMem(0))
	cls := sys.MustRegisterClass(taskClass())
	c := sys.NewCluster()
	o, _ := sys.NewObject(cls, c)
	_ = sys.SetRoot("x", o.RefTo())
	if _, err := sys.SwapOut(c); err != nil {
		t.Fatal(err)
	}
	got := sys.Report()
	for _, want := range []string{
		`device "report-pda"`,
		"swap-clusters (2)",
		"0 (globals)",
		"swapped -> d",
		"shipments",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q:\n%s", want, got)
		}
	}
	sys.SetDeviceAvailable("d", false)
	if !strings.Contains(sys.Report(), "unreachable") {
		t.Fatal("report does not show unreachable device")
	}
}

// TestWriteThroughHeldReferenceSurvivesSwapOut: host code keeps a direct
// reference across a swap-out and writes through it with no collection in
// between. The write must fault the cluster in and land on the one live copy
// — not on a stale resident one that the next fault would overwrite with the
// shipped value.
func TestWriteThroughHeldReferenceSurvivesSwapOut(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("desktop", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	c := sys.NewCluster()
	o, err := sys.NewObject(cls, c)
	if err != nil {
		t.Fatal(err)
	}
	held := o.RefTo()
	if err := sys.SetField(held, "title", heap.Str("v0")); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRoot("todo", held); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SwapOut(c); err != nil {
		t.Fatal(err)
	}

	if err := sys.SetField(held, "title", heap.Str("v1")); err != nil {
		t.Fatal(err)
	}
	if sys.Runtime().Manager().IsSwapped(c) {
		t.Fatal("write through the held reference did not fault the cluster in")
	}
	root, err := sys.MustRoot("todo")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Field(root, "title")
	if err != nil {
		t.Fatal(err)
	}
	if title, _ := got.Str(); title != "v1" {
		t.Fatalf("read through the root returns %q, want the written %q", title, "v1")
	}
	if errs := sys.Runtime().Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}
