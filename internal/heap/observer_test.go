package heap

import (
	"testing"
)

// TestInstallBatchFiresNoObservers: restoring a cluster is not a mutation.
// The batch install writes no field through SetField, so no write observer
// hears about its members — while a write to any other object, before,
// during or after, keeps reaching them. That is what lets a background
// swap-in reinstall one cluster without touching the dirty-marks and heat of
// application writes elsewhere, with no suspension to scope.
func TestInstallBatchFiresNoObservers(t *testing.T) {
	h := New(0)
	c := nodeClass()
	outside, err := h.New(c)
	if err != nil {
		t.Fatal(err)
	}

	var writes []ObjID
	h.AddWriteObserver(func(o *Object) { writes = append(writes, o.ID()) })
	h.AddWriteObserver(func(o *Object) { writes = append(writes, o.ID()) })

	var b Batch
	slot, _ := c.FieldIndex("tag")
	b.Add(100, c)[slot] = Int(7)
	if _, err := h.InstallBatch(&b); err != nil {
		t.Fatal(err)
	}
	installed, err := h.Get(100)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := installed.FieldByName("tag"); !got.Equal(Int(7)) {
		t.Fatalf("installed tag = %v, want 7", got)
	}
	if len(writes) != 0 {
		t.Fatalf("batch install notified observers: writes %v", writes)
	}

	if err := outside.SetFieldByName("tag", Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := installed.SetFieldByName("tag", Int(8)); err != nil {
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
	var first, second int
	h.AddWriteObserver(func(*Object) { first++ })
	h.AddWriteObserver(func(*Object) { second++ })

	outer := h.SuspendWriteObserver()
	inner := h.SuspendWriteObserver()
	inner()
	if err := o.SetFieldByName("tag", Int(1)); err != nil {
		t.Fatal(err)
	}
	if first != 0 || second != 0 {
		t.Fatalf("under suspension: observers heard %d and %d writes, want none", first, second)
	}
	outer()
	if err := o.SetFieldByName("tag", Int(2)); err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 1 {
		t.Fatalf("after resume: observers heard %d and %d writes, want 1 each", first, second)
	}
}

// TestMiddlewareWritesRunNoObserver: a write to an application object runs
// each write observer once; a write to a middleware object — a class of any
// other special kind — runs none. The swapping runtime writes proxies where
// it lists them, and its own observer would re-enter that listing.
func TestMiddlewareWritesRunNoObserver(t *testing.T) {
	for _, tc := range []struct {
		kind SpecialKind
		want int // writes each observer hears
	}{
		{SpecialNone, 1},
		{SpecialSCProxy, 0},
		{SpecialReplacement, 0},
		{SpecialObjProxy, 0},
		{SpecialSurrogate, 0},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			h := New(0)
			c := nodeClass()
			c.Special = tc.kind
			o, err := h.New(c)
			if err != nil {
				t.Fatal(err)
			}
			var first, second int
			h.AddWriteObserver(func(*Object) { first++ })
			h.AddWriteObserver(func(*Object) { second++ })
			if err := o.SetFieldByName("tag", Int(1)); err != nil {
				t.Fatal(err)
			}
			if first != tc.want || second != tc.want {
				t.Fatalf("observers heard %d and %d writes, want %d each", first, second, tc.want)
			}
		})
	}
}
