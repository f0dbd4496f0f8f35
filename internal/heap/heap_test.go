package heap

import (
	"errors"
	"strings"
	"testing"
)

// nodeClass returns a simple list-node class used across heap tests.
func nodeClass() *Class {
	return NewClass("Node",
		FieldDef{Name: "payload", Kind: KindBytes},
		FieldDef{Name: "next", Kind: KindRef},
		FieldDef{Name: "tag", Kind: KindInt},
	)
}

func TestNewAllocatesAndAccounts(t *testing.T) {
	h := New(0)
	c := nodeClass()
	o, err := h.New(c)
	if err != nil {
		t.Fatal(err)
	}
	if o.ID() == NilID {
		t.Error("allocated object has nil id")
	}
	wantSize := int64(objectOverhead) + 3*valueOverhead
	if o.Size() != wantSize {
		t.Errorf("object size = %d, want %d", o.Size(), wantSize)
	}
	if h.Used() != wantSize {
		t.Errorf("heap used = %d, want %d", h.Used(), wantSize)
	}
	if h.Len() != 1 {
		t.Errorf("heap len = %d, want 1", h.Len())
	}
}

func TestNewUniqueMonotonicIDs(t *testing.T) {
	h := New(0)
	c := nodeClass()
	var last ObjID
	for i := 0; i < 100; i++ {
		o, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		if o.ID() <= last {
			t.Fatalf("ids not strictly increasing: %d after %d", o.ID(), last)
		}
		last = o.ID()
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := nodeClass()
	one := int64(objectOverhead) + 3*valueOverhead
	h := New(one * 2)
	if _, err := h.New(c); err != nil {
		t.Fatal(err)
	}
	if _, err := h.New(c); err != nil {
		t.Fatal(err)
	}
	_, err := h.New(c)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("third alloc: got %v, want ErrOutOfMemory", err)
	}
	// Failed allocation must not leak accounting.
	if h.Used() != one*2 {
		t.Errorf("used after failed alloc = %d, want %d", h.Used(), one*2)
	}
}

func TestSetFieldAccountsVariablePayloads(t *testing.T) {
	h := New(0)
	o, err := h.New(nodeClass())
	if err != nil {
		t.Fatal(err)
	}
	base := h.Used()
	if err := o.SetFieldByName("payload", Bytes(make([]byte, 64))); err != nil {
		t.Fatal(err)
	}
	if h.Used() != base+64 {
		t.Errorf("used after 64-byte payload = %d, want %d", h.Used(), base+64)
	}
	if err := o.SetFieldByName("payload", Bytes(make([]byte, 16))); err != nil {
		t.Fatal(err)
	}
	if h.Used() != base+16 {
		t.Errorf("used after shrink = %d, want %d", h.Used(), base+16)
	}
	if err := o.SetFieldByName("payload", Nil()); err != nil {
		t.Fatal(err)
	}
	if h.Used() != base {
		t.Errorf("used after clearing payload = %d, want %d", h.Used(), base)
	}
}

func TestSetFieldCapacityAndKindChecks(t *testing.T) {
	one := int64(objectOverhead) + 3*valueOverhead
	h := New(one + 10)
	o, err := h.New(nodeClass())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetFieldByName("payload", Bytes(make([]byte, 64))); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized payload: got %v, want ErrOutOfMemory", err)
	}
	if err := o.SetFieldByName("payload", Int(1)); !errors.Is(err, ErrBadKind) {
		t.Fatalf("kind mismatch: got %v, want ErrBadKind", err)
	}
	if err := o.SetFieldByName("next", Int(1)); !errors.Is(err, ErrBadKind) {
		t.Fatalf("int into ref field: got %v, want ErrBadKind", err)
	}
	if err := o.SetFieldByName("tag", Nil()); !errors.Is(err, ErrBadKind) {
		t.Fatalf("nil into int field: got %v, want ErrBadKind", err)
	}
	if err := o.SetFieldByName("next", Nil()); err != nil {
		t.Fatalf("nil into ref field: %v", err)
	}
	if err := o.SetFieldByName("nope", Int(1)); !errors.Is(err, ErrNoSuchField) {
		t.Fatalf("unknown field: got %v, want ErrNoSuchField", err)
	}
}

func TestGetAndContains(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	got, err := h.Get(o.ID())
	if err != nil || got != o {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if !h.Contains(o.ID()) {
		t.Error("Contains should report resident object")
	}
	if _, err := h.Get(o.ID() + 99); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Get missing: got %v, want ErrNoSuchObject", err)
	}
	if h.Contains(o.ID() + 99) {
		t.Error("Contains should not report missing object")
	}
}

func TestRemoveReleasesMemory(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	_ = o.SetFieldByName("payload", Bytes(make([]byte, 100)))
	if err := h.Remove(o.ID()); err != nil {
		t.Fatal(err)
	}
	if h.Used() != 0 {
		t.Errorf("used after remove = %d, want 0", h.Used())
	}
	if h.Contains(o.ID()) {
		t.Error("object still resident after Remove")
	}
	if err := h.Remove(o.ID()); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("double remove: got %v, want ErrNoSuchObject", err)
	}
}

// TestWriteToReclaimedObjectFails: an object that left the heap — removed,
// freed or swept — refuses a write with ErrNoSuchObject, leaving the byte
// budget and the write observers alone, so a caller holding the *Object can
// tell, in the write itself, that a collection got there first.
func TestWriteToReclaimedObjectFails(t *testing.T) {
	for name, leave := range map[string]func(h *Heap, id ObjID){
		"removed": func(h *Heap, id ObjID) { _ = h.Remove(id) },
		"freed":   func(h *Heap, id ObjID) { h.Free([]ObjID{id}) },
		"swept":   func(h *Heap, _ ObjID) { h.Collect() },
	} {
		t.Run(name, func(t *testing.T) {
			h := New(0)
			o, err := h.New(nodeClass())
			if err != nil {
				t.Fatal(err)
			}
			writes := 0
			h.AddWriteObserver(func(*Object) { writes++ })
			leave(h, o.ID())
			if err := o.SetFieldByName("payload", Bytes(make([]byte, 100))); !errors.Is(err, ErrNoSuchObject) {
				t.Fatalf("write after the object left: got %v, want ErrNoSuchObject", err)
			}
			if h.Used() != 0 || writes != 0 {
				t.Fatalf("refused write: used %d, observers heard %d writes; want 0 and 0", h.Used(), writes)
			}
		})
	}
}

// TestInstallRestoresIdentity: an installed object keeps the id it was staged
// under, an install over a resident id or under the nil id fails, and fresh
// allocations never collide with an installed id.
func TestInstallRestoresIdentity(t *testing.T) {
	h := New(0)
	c := nodeClass()
	o, _ := h.New(c)
	id := o.ID()
	if err := h.Remove(id); err != nil {
		t.Fatal(err)
	}
	restored, err := installOne(h, id, c)
	if err != nil {
		t.Fatal(err)
	}
	if restored.ID() != id {
		t.Errorf("restored id = %d, want %d", restored.ID(), id)
	}
	// Collision with a resident object must fail.
	if _, err := installOne(h, id, c); err == nil {
		t.Error("install over resident object: want error")
	}
	// Fresh allocations must not collide with restored ids.
	far := id + 50
	if _, err := installOne(h, far, c); err != nil {
		t.Fatal(err)
	}
	next, _ := h.New(c)
	if next.ID() <= far {
		t.Errorf("fresh id %d collides with restored space (<= %d)", next.ID(), far)
	}
	if _, err := installOne(h, NilID, c); err == nil {
		t.Error("install under NilID: want error")
	}
}

func TestRoots(t *testing.T) {
	h := New(0)
	o, _ := h.New(nodeClass())
	h.SetRoot("head", o.RefTo())
	v, ok := h.Root("head")
	if !ok || v.MustRef() != o.ID() {
		t.Fatalf("Root = %v, %v", v, ok)
	}
	h.SetRoot("cursor", Nil())
	names := h.RootNames()
	if len(names) != 2 || names[0] != "cursor" || names[1] != "head" {
		t.Fatalf("RootNames = %v", names)
	}
}

func TestStatsSnapshot(t *testing.T) {
	h := New(1 << 20)
	for i := 0; i < 5; i++ {
		if _, err := h.New(nodeClass()); err != nil {
			t.Fatal(err)
		}
	}
	st := h.StatsSnapshot()
	if st.Objects != 5 || st.Allocated != 5 {
		t.Errorf("stats = %+v", st)
	}
	if st.Capacity != 1<<20 {
		t.Errorf("capacity = %d", st.Capacity)
	}
	if st.UsedFraction() <= 0 || st.UsedFraction() >= 1 {
		t.Errorf("used fraction = %v", st.UsedFraction())
	}
	if (Stats{}).UsedFraction() != 0 {
		t.Error("unlimited heap should report fraction 0")
	}
}

func TestSetCapacityShrinkBlocksAllocation(t *testing.T) {
	h := New(0)
	if _, err := h.New(nodeClass()); err != nil {
		t.Fatal(err)
	}
	h.SetCapacity(h.Used()) // no headroom left
	if _, err := h.New(nodeClass()); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc after shrink: got %v, want ErrOutOfMemory", err)
	}
}

func TestClassRegistry(t *testing.T) {
	r := NewRegistry()
	c := nodeClass()
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(nodeClass()); err == nil {
		t.Error("duplicate registration: want error")
	}
	got, err := r.Lookup("Node")
	if err != nil || got != c {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup("Ghost"); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("Lookup missing: got %v, want ErrUnknownClass", err)
	}
	if err := r.Register(nil); err == nil {
		t.Error("nil class registration: want error")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "Node" {
		t.Errorf("Names = %v", names)
	}
}

func TestClassMethodTable(t *testing.T) {
	c := NewClass("T").
		AddMethod("b", func(*Call) ([]Value, error) { return nil, nil }).
		AddMethod("a", func(*Call) ([]Value, error) { return nil, nil })
	if _, err := c.Method("a"); err != nil {
		t.Error("method a missing")
	}
	if _, err := c.Method("zz"); err == nil {
		t.Error("phantom method found")
	}
	names := c.MethodNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("MethodNames = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddMethod should panic")
		}
	}()
	c.AddMethod("a", func(*Call) ([]Value, error) { return nil, nil })
}

func TestDuplicateFieldPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "duplicate field") {
			t.Errorf("want duplicate-field panic, got %v", r)
		}
	}()
	NewClass("Bad", FieldDef{Name: "x", Kind: KindInt}, FieldDef{Name: "x", Kind: KindInt})
}

func TestCallArg(t *testing.T) {
	c := &Call{Args: []Value{Int(1)}}
	if c.Arg(0).MustInt() != 1 {
		t.Error("Arg(0) wrong")
	}
	if !c.Arg(1).IsNil() || !c.Arg(-1).IsNil() {
		t.Error("out-of-range Arg should be nil")
	}
}
