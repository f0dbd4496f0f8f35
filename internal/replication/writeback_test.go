package replication

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// masterObj returns the master's object id, read in one hold of its runtime.
func masterObj(m *Master, id heap.ObjID) (o *heap.Object) {
	m.rt.WithHeap(func(h *heap.Heap) { o, _ = h.Get(id) })
	return o
}

func TestWritebackScalarUpdate(t *testing.T) {
	m := buildMaster(t, 20, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	v, _ := r.ReplicateRoot(context.Background(), "head")
	if _, err := rt.Invoke(v, "walk", heap.Int(1)); err != nil {
		t.Fatal(err)
	}
	if r.DirtyCount() != 0 {
		t.Fatalf("dirty after replication = %d", r.DirtyCount())
	}

	// Mutate a replica through the runtime.
	head, _ := rt.Root("head")
	if err := rt.SetFieldValue(head, "tag", heap.Int(777)); err != nil {
		t.Fatal(err)
	}
	if r.DirtyCount() != 1 {
		t.Fatalf("dirty = %d, want 1", r.DirtyCount())
	}

	n, err := r.PushUpdates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || r.DirtyCount() != 0 {
		t.Fatalf("pushed %d, dirty %d", n, r.DirtyCount())
	}
	// Verify on the master.
	masterHeadID, _, _ := m.FetchRoot(context.Background(), "head")
	mo := masterObj(m, masterHeadID)
	tag, _ := mo.FieldByName("tag")
	if tag.MustInt() != 777 {
		t.Fatalf("master tag = %v", tag)
	}
	if r.StatsSnapshot().UpdatesPushed != 1 {
		t.Fatalf("stats = %+v", r.StatsSnapshot())
	}
}

func TestWritebackReferenceRewiring(t *testing.T) {
	// Rewire a replica's edge to another replica; the master sees the same
	// rewiring in its own identity space.
	m := buildMaster(t, 20, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	v, _ := r.ReplicateRoot(context.Background(), "head")
	if _, err := rt.Invoke(v, "walk", heap.Int(1)); err != nil {
		t.Fatal(err)
	}

	// Point local head's next at the local tail replica.
	masterHeadID, _, _ := m.FetchRoot(context.Background(), "head")
	localHead, _ := r.LocalOf(masterHeadID)
	// Find the master tail (tag 19) and its replica.
	var masterTail heap.ObjID
	m.rt.WithHeap(func(h *heap.Heap) {
		for _, id := range h.IDs() {
			o, _ := h.Get(id)
			if tag, _ := o.FieldByName("tag"); tag.MustInt() == 19 {
				masterTail = id
			}
		}
	})
	localTail, ok := r.LocalOf(masterTail)
	if !ok {
		t.Fatal("tail not replicated")
	}
	if err := rt.SetFieldValue(heap.Ref(localHead), "next", heap.Ref(localTail)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushUpdates(context.Background()); err != nil {
		t.Fatal(err)
	}
	mo := masterObj(m, masterHeadID)
	nv, _ := mo.FieldByName("next")
	if nv.MustRef() != masterTail {
		t.Fatalf("master next = %v, want @%d", nv, masterTail)
	}
	// The master's list is now head->tail: 2 nodes.
	out, err := m.Runtime().Invoke(mo.RefTo(), "walk", heap.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 2 {
		t.Fatalf("master walk = %v", out[0])
	}
}

func TestWritebackRejectsUnsyncedReference(t *testing.T) {
	m := buildMaster(t, 10, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	v, _ := r.ReplicateRoot(context.Background(), "head")
	if _, err := rt.Invoke(v, "tag"); err != nil {
		t.Fatal(err)
	}
	// A device-local object (no master identity) referenced from a replica.
	cls, _ := rt.Registry().Lookup("Node")
	localOnly, err := rt.NewObject(cls, rt.Manager().NewCluster())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRoot("keep", localOnly.RefTo()); err != nil {
		t.Fatal(err)
	}
	head, _ := rt.Root("head")
	if err := rt.SetFieldValue(head, "next", localOnly.RefTo()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushUpdates(context.Background()); !errors.Is(err, ErrUnsyncedReference) {
		t.Fatalf("push with local-only ref: %v", err)
	}
}

func TestWritebackOverHTTP(t *testing.T) {
	m := buildMaster(t, 20, 10)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	rt := newDevice(t, 0)
	r := Attach(rt, NewClient(srv.URL))
	v, _ := r.ReplicateRoot(context.Background(), "head")
	if _, err := rt.Invoke(v, "tag"); err != nil {
		t.Fatal(err)
	}
	head, _ := rt.Root("head")
	if err := rt.SetFieldValue(head, "tag", heap.Int(31337)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushUpdates(context.Background()); err != nil {
		t.Fatal(err)
	}
	masterHeadID, _, _ := m.FetchRoot(context.Background(), "head")
	mo := masterObj(m, masterHeadID)
	tag, _ := mo.FieldByName("tag")
	if tag.MustInt() != 31337 {
		t.Fatalf("master tag over HTTP = %v", tag)
	}
}

func TestWritebackNoDirtyIsNoop(t *testing.T) {
	m := buildMaster(t, 10, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	if n, err := r.PushUpdates(context.Background()); err != nil || n != 0 {
		t.Fatalf("empty push = %d, %v", n, err)
	}
}

func TestApplyUpdateValidation(t *testing.T) {
	m := buildMaster(t, 5, 5)
	if err := m.apply(nil); err == nil {
		t.Error("nil update accepted")
	}
	if err := m.apply(&xmlcodec.Doc{Version: xmlcodec.Version, Objects: []xmlcodec.Object{
		{ID: 99999, Class: "Node"},
	}}); err == nil {
		t.Error("update for unknown master object accepted")
	}
	headID, _, _ := m.FetchRoot(context.Background(), "head")
	if err := m.apply(&xmlcodec.Doc{Version: xmlcodec.Version, Objects: []xmlcodec.Object{
		{ID: headID, Class: "WrongClass"},
	}}); err == nil {
		t.Error("class mismatch accepted")
	}
}

func TestWritebackAfterSwapCycle(t *testing.T) {
	// A dirty replica that was swapped out is faulted back and pushed.
	m := buildMaster(t, 20, 10)
	rt := newDevice(t, 0)
	r := Attach(rt, m)
	v, _ := r.ReplicateRoot(context.Background(), "head")
	if _, err := rt.Invoke(v, "walk", heap.Int(1)); err != nil {
		t.Fatal(err)
	}
	head, _ := rt.Root("head")
	if err := rt.SetFieldValue(head, "tag", heap.Int(555)); err != nil {
		t.Fatal(err)
	}
	// Swap the dirty replica's cluster out before pushing.
	clusters := rt.Manager().Clusters()
	if _, err := rt.SwapOut(clusters[1]); err != nil {
		t.Fatal(err)
	}
	rt.Collect()
	n, err := r.PushUpdates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("pushed %d", n)
	}
	masterHeadID, _, _ := m.FetchRoot(context.Background(), "head")
	mo := masterObj(m, masterHeadID)
	tag, _ := mo.FieldByName("tag")
	if tag.MustInt() != 555 {
		t.Fatalf("master tag = %v", tag)
	}
}
