package core

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
	"objectswap/internal/wire"
	"objectswap/internal/xmlcodec"
)

// restoreTarget builds a fresh runtime sharing the checkpointed device's
// store registry (the neighborhood survives the reboot).
func restoreTarget(t testing.TB, devices *store.Registry) *Runtime {
	t.Helper()
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices))
	rt.MustRegisterClass(newNodeClass())
	return rt
}

func TestCheckpointRoundTripResident(t *testing.T) {
	f := newFixture(t, 0)
	_, _ = f.buildList(t, 30, 10, 16)
	want := f.snapshotTags(t)

	var buf bytes.Buffer
	if err := f.rt.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	rt2 := restoreTarget(t, f.reg)
	if err := rt2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if errs := rt2.Manager().CheckInvariants(); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatal("invariants broken after restore")
	}
	f2 := &fixture{rt: rt2, reg: f.reg, mem: f.mem, node: f.node}
	got := f2.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("restored list length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCheckpointWithSwappedClusters(t *testing.T) {
	// The crown case: checkpoint while clusters live on a nearby device,
	// reboot, restore, and fault them back from where they were left.
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 40, 10, 16)
	want := f.snapshotTags(t)
	if _, err := f.rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapOut(clusters[3]); err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()

	var buf bytes.Buffer
	if err := f.rt.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// "Reboot": a brand new runtime over the same neighborhood.
	rt2 := restoreTarget(t, f.reg)
	if err := rt2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rt2.Name() != f.rt.Name() {
		t.Fatalf("device name not restored: %q vs %q", rt2.Name(), f.rt.Name())
	}
	if !rt2.Manager().IsSwapped(clusters[1]) || !rt2.Manager().IsSwapped(clusters[3]) {
		t.Fatal("swapped state lost in restore")
	}
	// The payload checksum survives the restore, so the restored runtime
	// keeps verifying replicas against bit rot.
	for _, cid := range []ClusterID{clusters[1], clusters[3]} {
		tab := &rt2.mgr.table
		rt2.lock()
		crc := tab.clusters.get(cid).retained.crc
		rt2.unlock()
		if crc == 0 {
			t.Fatalf("cluster %d: payload CRC lost in checkpoint restore", cid)
		}
	}
	if errs := rt2.Manager().CheckInvariants(); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatal("invariants broken after restore")
	}

	// Traversal faults both clusters back from the device.
	f2 := &fixture{rt: rt2, reg: f.reg, mem: f.mem, node: f.node}
	got := f2.snapshotTags(t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if rt2.Manager().IsSwapped(clusters[1]) {
		t.Fatal("cluster not faulted in after restore traversal")
	}
	// Post-restore swapping works and generates non-colliding keys.
	ev, err := rt2.SwapOut(clusters[2])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Key == "" {
		t.Fatal("empty key")
	}
	if _, err := rt2.SwapIn(clusters[2]); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointPreservesObjProxies(t *testing.T) {
	// Un-replicated edges (object-fault placeholders) survive a reboot.
	f := newFixture(t, 0)
	c := f.rt.Manager().NewCluster()
	o, _ := f.rt.NewObject(f.node, c)
	pid, err := f.rt.ObjProxyFor(4242, "Node")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.rt.SetFieldValue(o.RefTo(), "next", heap.Ref(pid)); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.SetRoot("head", o.RefTo()); err != nil {
		t.Fatal(err)
	}
	rootProxy, err := f.rt.ObjProxyFor(555, "Node")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.rt.SetRoot("pending", heap.Ref(rootProxy)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := f.rt.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rt2 := restoreTarget(t, f.reg)
	if err := rt2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rt2.Manager().ObjProxyCount() != 2 {
		t.Fatalf("objproxies after restore = %d, want 2", rt2.Manager().ObjProxyCount())
	}
	var ro, np *heap.Object
	inHold(rt2, func(h *heap.Heap) {
		if ro, err = h.Get(heap.ObjID(o.ID())); err != nil {
			return
		}
		nv, _ := ro.FieldByName("next")
		np, err = h.Get(nv.MustRef())
	})
	if err != nil {
		t.Fatal(err)
	}
	if ObjProxyRemote(np) != 4242 || objProxyClassOf(np) != "Node" {
		t.Fatalf("restored placeholder = remote %d class %q", ObjProxyRemote(np), objProxyClassOf(np))
	}
}

// bagClass carries one field of every kind a resident cluster document holds,
// a list among them.
func bagClass() *heap.Class {
	return heap.NewClass("Bag",
		heap.FieldDef{Name: "items", Kind: heap.KindList},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
		heap.FieldDef{Name: "label", Kind: heap.KindString},
		heap.FieldDef{Name: "blob", Kind: heap.KindBytes},
		heap.FieldDef{Name: "n", Kind: heap.KindInt},
		heap.FieldDef{Name: "x", Kind: heap.KindFloat},
		heap.FieldDef{Name: "ok", Kind: heap.KindBool},
	)
}

// goldenRuntime is a fresh runtime of the checkpoint golden: two donors, K = 2.
func goldenRuntime(devices *store.Registry) *Runtime {
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices),
		WithName("golden"), WithDefaultReplicas(2))
	rt.MustRegisterClass(newNodeClass())
	rt.MustRegisterClass(bagClass())
	return rt
}

// goldenState builds every kind of record a checkpoint writes:
//   - resident cluster A, whose Bag's list holds an internal ref, a
//     cross-cluster proxy ref and an object-fault placeholder, and whose next
//     field holds a member of swapped cluster E directly;
//   - cluster B, swapped at K = 2 with outbound slots 0 and 2 (slot 1 nil);
//   - cluster C, shipped and reloaded, so resident on a retained copy;
//   - roots: nil, proxied, proxied into a swapped cluster, object-fault.
func goldenState(t *testing.T, rt *Runtime) {
	t.Helper()
	node, _ := rt.Registry().Lookup("Node")
	bag, _ := rt.Registry().Lookup("Bag")
	mgr := rt.Manager()
	ca, cb, cc, ce := mgr.NewCluster(), mgr.NewCluster(), mgr.NewCluster(), mgr.NewCluster()
	obj := func(cls *heap.Class, c ClusterID, tag int64) *heap.Object {
		o, err := rt.NewObject(cls, c)
		if err != nil {
			t.Fatal(err)
		}
		if cls == node {
			inHold(rt, func(*heap.Heap) {
				o.MustSet("tag", heap.Int(tag)).MustSet("payload", heap.Bytes([]byte{byte(tag), 0xff}))
			})
		}
		return o
	}
	set := func(o *heap.Object, field string, v heap.Value) {
		t.Helper()
		if err := rt.SetFieldValue(o.RefTo(), field, v); err != nil {
			t.Fatal(err)
		}
	}
	root := func(name string, v heap.Value) {
		t.Helper()
		if err := rt.SetRoot(name, v); err != nil {
			t.Fatal(err)
		}
	}

	a1, a2 := obj(bag, ca, 0), obj(node, ca, 2)
	b := []*heap.Object{obj(node, cb, 10), obj(node, cb, 11), obj(node, cb, 12)}
	c := []*heap.Object{obj(node, cc, 20), obj(node, cc, 21), obj(node, cc, 22)}
	e1 := obj(node, ce, 30)
	fault, err := rt.ObjProxyFor(4242, "Node")
	if err != nil {
		t.Fatal(err)
	}
	inHold(rt, func(*heap.Heap) {
		a1.MustSet("label", heap.Str(`a <&> "bag"`)).MustSet("blob", heap.Bytes([]byte("\x00\x01blob"))).
			MustSet("n", heap.Int(-7)).MustSet("x", heap.Float(2.5)).MustSet("ok", heap.Bool(true))
	})
	set(a1, "items", heap.List(a2.RefTo(), c[0].RefTo(), heap.Ref(fault), heap.Int(5)))
	for i := range b {
		set(b[i], "next", c[i].RefTo())
	}
	root("a", a1.RefTo())
	root("b", b[0].RefTo())
	root("e", e1.RefTo())
	root("none", heap.Nil())
	pending, err := rt.ObjProxyFor(555, "Node")
	if err != nil {
		t.Fatal(err)
	}
	root("pending", heap.Ref(pending))

	if _, err := rt.SwapOut(cc); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapIn(cc); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapOut(cb); err != nil {
		t.Fatal(err)
	}
	// Sparse slot table: drop the middle outbound slot, as a delta remap of a
	// target no longer referenced leaves it.
	tab := &rt.mgr.table
	var slots []heap.Value
	inHold(rt, func(h *heap.Heap) {
		var repl *heap.Object
		if repl, err = h.Get(tab.clusters.get(cb).replacement); err != nil {
			return
		}
		outV, _ := repl.FieldByName(fldOut)
		slots, _ = outV.List()
		if len(slots) != 3 {
			return
		}
		slots = slices.Clone(slots)
		slots[1] = heap.Nil()
		err = repl.SetFieldByName(fldOut, heap.List(slots...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 3 {
		t.Fatalf("cluster B has %d outbound slots, want 3", len(slots))
	}
	// A member of E held directly across E's swap-out.
	inHold(rt, func(*heap.Heap) { err = a1.SetFieldByName("next", e1.RefTo()) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapOut(ce); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointGolden pins the checkpoint stream byte for byte, and shows a
// restored runtime saves the same stream again.
func TestCheckpointGolden(t *testing.T) {
	devices := store.NewRegistry(store.SelectMostFree)
	for _, name := range []string{"donor-a", "donor-b"} {
		if err := devices.Add(name, store.NewMem(0)); err != nil {
			t.Fatal(err)
		}
	}
	rt := goldenRuntime(devices)
	goldenState(t, rt)
	var saved bytes.Buffer
	if err := rt.SaveCheckpoint(&saved); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/checkpoint.golden.xml")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), want) {
		t.Fatalf("checkpoint stream differs from testdata/checkpoint.golden.xml:\n got:  %s\n want: %s", saved.Bytes(), want)
	}

	rt2 := goldenRuntime(devices)
	if err := rt2.LoadCheckpoint(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := rt2.SaveCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("save → restore → save changed the stream:\n got:  %s\n want: %s", again.Bytes(), want)
	}
}

func TestCheckpointValidation(t *testing.T) {
	f := newFixture(t, 0)
	f.buildList(t, 10, 10, 8)

	// Restore into a non-fresh runtime is refused.
	var buf bytes.Buffer
	if err := f.rt.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.LoadCheckpoint(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrNotFresh) {
		t.Fatalf("restore into used runtime: %v", err)
	}
	// Garbage input.
	rt2 := restoreTarget(t, f.reg)
	if err := rt2.LoadCheckpoint(bytes.NewReader([]byte("}{"))); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("garbage checkpoint: %v", err)
	}
	// Wrong version.
	rt3 := restoreTarget(t, f.reg)
	bad := `<checkpoint version="9" device="d" keyseq="0" maxid="0"></checkpoint>`
	if err := rt3.LoadCheckpoint(bytes.NewReader([]byte(bad))); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("wrong version: %v", err)
	}
	// A cluster document must be XML: a binary frame, a frame-like prefix and
	// a truncated wrapper are each a malformed checkpoint.
	for _, doc := range []string{obwDoc(t), "OBW2 frame", "&lt;swapcluster id=&#34;c&#34;"} {
		rt4 := restoreTarget(t, f.reg)
		ckpt := `<checkpoint version="1" device="d" keyseq="0" maxid="1"><cluster id="1"><member id="1" class="Node"/><doc>` +
			doc + `</doc></cluster></checkpoint>`
		if err := rt4.LoadCheckpoint(bytes.NewReader([]byte(ckpt))); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("cluster document %q: %v", doc, err)
		}
	}
	// A document this runtime cannot stage keeps its cause.
	rt5 := restoreTarget(t, f.reg)
	ghost := `<checkpoint version="1" device="d" keyseq="0" maxid="1"><cluster id="1"><member id="1" class="Ghost"/>` +
		`<doc>&lt;swapcluster id="c" version="1"&gt;&lt;object id="1" class="Ghost"/&gt;&lt;/swapcluster&gt;</doc></cluster></checkpoint>`
	if err := rt5.LoadCheckpoint(bytes.NewReader([]byte(ghost))); !errors.Is(err, heap.ErrUnknownClass) {
		t.Fatalf("unknown class: %v", err)
	}
}

// obwDoc is a one-object binary frame, as it would sit where a checkpoint
// holds a cluster's XML.
func obwDoc(t testing.TB) string {
	frame, err := wire.Encode(wire.FormatBinary, &xmlcodec.Doc{ClusterID: "ckpt-cluster-1", Version: xmlcodec.Version,
		Objects: []xmlcodec.Object{{ID: 1, Class: "Node"}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(frame)
}
