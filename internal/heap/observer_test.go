package heap

import (
	"testing"
)

// TestInstallBatchFiresNoObservers: restoring a cluster is not a mutation.
// The batch install writes no field through SetField, so neither the write
// nor the access observers hear about its members — while a write to any
// other object, before, during or after, keeps reaching them. That is what
// lets a background swap-in reinstall one cluster without touching the
// dirty-marks and heat of application writes elsewhere, with no suspension
// to scope.
func TestInstallBatchFiresNoObservers(t *testing.T) {
	h := New(0)
	c := nodeClass()
	outside, err := h.New(c)
	if err != nil {
		t.Fatal(err)
	}

	var writes, accesses []ObjID
	h.SetWriteObserver(func(id ObjID) { writes = append(writes, id) })
	h.AddWriteObserver(func(id ObjID) { writes = append(writes, id) })
	h.AddAccessObserver(func(id ObjID) { accesses = append(accesses, id) })

	fields := c.Ops().NewFieldVector()
	slot, _ := c.FieldIndex("tag")
	fields[slot] = Int(7)
	installed, err := h.InstallBatch([]Staged{{ID: 100, Class: c, Fields: fields}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := installed[0].FieldByName("tag"); !got.Equal(Int(7)) {
		t.Fatalf("installed tag = %v, want 7", got)
	}
	if len(writes) != 0 || len(accesses) != 0 {
		t.Fatalf("batch install notified observers: writes %v, accesses %v", writes, accesses)
	}

	if err := outside.SetFieldByName("tag", Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := installed[0].SetFieldByName("tag", Int(8)); err != nil {
		t.Fatal(err)
	}
	want := []ObjID{outside.ID(), outside.ID(), 100, 100} // both write observers, in order
	if len(writes) != len(want) {
		t.Fatalf("writes = %v, want %v", writes, want)
	}
	for i := range want {
		if writes[i] != want[i] {
			t.Fatalf("writes = %v, want %v", writes, want)
		}
	}
	if len(accesses) != 2 {
		t.Fatalf("accesses = %v, want one per write", accesses)
	}
}

// TestSuspendWriteObserverIsGlobalAndNests: the suspension middleware wraps
// around writes that restore rather than mutate (resize, checkpoint restore)
// silences every observer until the last resume.
func TestSuspendWriteObserverIsGlobalAndNests(t *testing.T) {
	h := New(0)
	o, err := h.New(nodeClass())
	if err != nil {
		t.Fatal(err)
	}
	var writes, accesses int
	h.SetWriteObserver(func(ObjID) { writes++ })
	h.AddAccessObserver(func(ObjID) { accesses++ })

	outer := h.SuspendWriteObserver()
	inner := h.SuspendWriteObserver()
	inner()
	if err := o.SetFieldByName("tag", Int(1)); err != nil {
		t.Fatal(err)
	}
	h.NoteAccess(o.ID())
	if writes != 0 || accesses != 0 {
		t.Fatalf("under suspension: %d writes, %d accesses, want none", writes, accesses)
	}
	outer()
	if err := o.SetFieldByName("tag", Int(2)); err != nil {
		t.Fatal(err)
	}
	if writes != 1 || accesses != 1 {
		t.Fatalf("after resume: %d writes, %d accesses, want 1 and 1", writes, accesses)
	}
}
