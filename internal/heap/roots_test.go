package heap

import "testing"

// The owner's roots (Owner.Roots) are how the references host code holds
// reach a pass: the swapping runtime lists there what it handed out. These
// tests hold the heap's side of that rule, with a test owner standing in.

// TestOwnerRootsKeepHostHeldObjects: an object only the owner's roots name
// survives every pass, full and young, for as long as they name it, and the
// first full pass after the owner lets go of it sweeps it.
func TestOwnerRootsKeepHostHeldObjects(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	id := o.ID()
	owner := own(h, id)

	for i := 0; i < 3; i++ {
		if st := h.Collect(); st.Reclaimed != 0 {
			t.Fatalf("full pass %d reclaimed %d, want the held object kept", i+1, st.Reclaimed)
		}
		if st := h.CollectYoung(); st.Reclaimed != 0 {
			t.Fatalf("young pass %d reclaimed %d, want the held object kept", i+1, st.Reclaimed)
		}
	}
	owner.extra = nil
	if st := h.Collect(); st.Reclaimed != 1 || h.Contains(id) {
		t.Fatalf("full pass after the owner let go reclaimed %d (resident: %v), want the object", st.Reclaimed, h.Contains(id))
	}
}

// TestFreshGarbageCollectedAtOnce: there is no grace: a fresh object nothing
// names goes at the first pass.
func TestFreshGarbageCollectedAtOnce(t *testing.T) {
	h := New(0)
	_, _ = h.New(nodeClass())
	if st := h.Collect(); st.Reclaimed != 1 {
		t.Fatalf("first pass reclaimed %d, want the fresh garbage", st.Reclaimed)
	}
}

// TestOwnerRootsBesideNamedRoots: an object a named root and the owner both
// hold stays while either does, and goes at the first pass after both let go.
func TestOwnerRootsBesideNamedRoots(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	owner := own(h, o.ID())
	h.SetRoot("r", o.RefTo())
	h.Collect()
	owner.extra = nil
	h.Collect()
	if !h.Contains(o.ID()) {
		t.Fatal("rooted object collected")
	}
	h.SetRoot("r", Nil())
	if st := h.Collect(); st.Reclaimed != 1 {
		t.Fatal("object survived after both its root and its holder let go")
	}
}

// TestOwnerRootOfRemovedObjectResurrectsNothing: an owner root naming an
// object Remove detached marks nothing, breaks no pass, and names no object
// allocated after it.
func TestOwnerRootOfRemovedObjectResurrectsNothing(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	own(h, o.ID())
	if err := h.Remove(o.ID()); err != nil {
		t.Fatal(err)
	}
	if st := h.Collect(); st.Reclaimed != 0 {
		t.Fatalf("phantom reclaim: %d", st.Reclaimed)
	}
	fresh, _ := h.New(nodeClass())
	if fresh.ID() == o.ID() {
		t.Fatalf("removed id @%d reissued", o.ID())
	}
	if st := h.Collect(); st.Reclaimed != 1 {
		t.Fatalf("the stale owner root kept a later object: reclaimed %d, want 1", st.Reclaimed)
	}
}

// TestOwnerRootsKeepTransitiveReferences: a held object's fields keep their
// targets alive too.
func TestOwnerRootsKeepTransitiveReferences(t *testing.T) {
	h := New(0)
	a, _ := h.New(nodeClass())
	b, _ := h.New(nodeClass())
	_ = a.SetFieldByName("next", b.RefTo())
	own(h, a.ID())
	if st := h.Collect(); st.Reclaimed != 0 {
		t.Fatalf("held object's edge not traced (%d reclaimed)", st.Reclaimed)
	}
}
