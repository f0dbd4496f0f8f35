package heap

import (
	"errors"
	"strings"
	"testing"
)

// stagedNodes stages n chained Node objects under ids first, first+1, ...
func stagedNodes(c *Class, first ObjID, n, payload int) *Batch {
	b := MakeBatch(n, n*c.NumFields())
	for i := 0; i < n; i++ {
		fields := b.Add(first+ObjID(i), c)
		fields[0] = Bytes(make([]byte, payload))
		if i+1 < n {
			fields[1] = Ref(first + ObjID(i) + 1)
		}
		fields[2] = Int(int64(i))
	}
	return &b
}

// TestInstallBatchEqualsOneByOne: a batch install leaves the heap as
// restoring the same objects one batch of one and one SetField at a time
// does — sizes, Used, the id counter and their collection included.
func TestInstallBatchEqualsOneByOne(t *testing.T) {
	c := nodeClass()
	batched, stepwise := New(0), New(0)

	if n, err := batched.InstallBatch(stagedNodes(c, 40, 5, 100)); err != nil || n != 5 {
		t.Fatalf("InstallBatch = %d, %v; want 5 installed", n, err)
	}
	want := stagedNodes(c, 40, 5, 100)
	for i := 0; i < want.Len(); i++ {
		o, err := installOne(stepwise, want.ID(i), c)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range want.Fields(i) {
			if err := o.SetField(j, v); err != nil {
				t.Fatal(err)
			}
		}
		got, err := batched.Get(want.ID(i))
		if err != nil || got.Size() != o.Size() {
			t.Fatalf("object %d: batch gave @%d (%v), stepwise @%d of %d B",
				i, want.ID(i), err, o.ID(), o.Size())
		}
	}
	if batched.Used() != stepwise.Used() || batched.Len() != stepwise.Len() {
		t.Fatalf("batch: %d objects, Used %d; stepwise: %d objects, Used %d",
			batched.Len(), batched.Used(), stepwise.Len(), stepwise.Used())
	}
	if b, s := batched.StatsSnapshot(), stepwise.StatsSnapshot(); b.Allocated != s.Allocated {
		t.Fatalf("Allocated: batch %d, stepwise %d", b.Allocated, s.Allocated)
	}
	for _, h := range []*Heap{batched, stepwise} {
		fresh, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.ID() != 45 {
			t.Fatalf("next fresh id = %d, want 45 (past the restored ones)", fresh.ID())
		}
	}
	// Unrooted restored objects go at the first pass, batched or not.
	batched.Collect()
	stepwise.Collect()
	if batched.Len() != 0 || stepwise.Len() != 0 {
		t.Fatalf("after one collection: batch keeps %d unrooted objects, stepwise %d", batched.Len(), stepwise.Len())
	}
}

// TestInstallBatchAllOrNothing: whatever makes a batch fail — an identity
// already resident, the same identity twice, a value its field cannot hold, a
// member with no class or no identity, no room for the whole of it — the heap
// is left exactly as found. (A short field vector cannot be staged: Batch.Add
// carves every vector to its class.)
func TestInstallBatchAllOrNothing(t *testing.T) {
	c := nodeClass()
	h := New(0)
	resident, err := installOne(h, 42, c)
	if err != nil {
		t.Fatal(err)
	}
	used, objects := h.Used(), h.Len()

	collide := stagedNodes(c, 40, 5, 10) // 40..44 runs into @42
	twice := stagedNodes(c, 50, 2, 10)
	twice.Add(50, c)
	badKind := stagedNodes(c, 60, 3, 10)
	badKind.Fields(1)[2] = Str("not an int")
	noClass := stagedNodes(c, 70, 2, 10)
	noClass.Add(72, nil)
	noID := stagedNodes(c, 74, 2, 10)
	noID.Add(NilID, c)
	for name, batch := range map[string]*Batch{
		"resident identity": collide, "duplicate identity": twice,
		"wrong kind": badKind, "nil class": noClass, "nil id": noID,
	} {
		staged := batch.Len()
		installed, err := h.InstallBatch(batch)
		if err == nil || installed != 0 {
			t.Fatalf("%s: InstallBatch = %v, %v; want an error and nothing installed", name, installed, err)
		}
		if batch.Len() != staged {
			t.Fatalf("%s: the failed batch holds %d members, staged %d", name, batch.Len(), staged)
		}
		if name == "wrong kind" && !errors.Is(err, ErrBadKind) {
			t.Fatalf("%s: %v, want ErrBadKind", name, err)
		}
		if name == "resident identity" && !strings.Contains(err.Error(), "already resident") {
			t.Fatalf("%s: %v", name, err)
		}
		if h.Used() != used || h.Len() != objects {
			t.Fatalf("%s: heap holds %d objects, Used %d after the failed batch; had %d, %d",
				name, h.Len(), h.Used(), objects, used)
		}
	}

	// Room for half the batch is room for none of it; the application share
	// is what counts.
	roomy := stagedNodes(c, 80, 4, 1000)
	h.SetCapacity(used + 2500)
	if _, err := h.InstallBatch(roomy); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("batch into half the room: %v, want ErrOutOfMemory", err)
	}
	h.SetCapacity(used + 5000)
	h.SetReserve(1000)
	if _, err := h.InstallBatch(roomy); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("batch into the middleware reserve: %v, want ErrOutOfMemory", err)
	}
	if h.Used() != used || h.Len() != objects || h.Contains(80) {
		t.Fatalf("heap holds %d objects, Used %d after the out-of-memory batches; had %d, %d", h.Len(), h.Used(), objects, used)
	}
	h.SetReserve(0)
	if _, err := h.InstallBatch(roomy); err != nil {
		t.Fatal(err)
	}
	if roomy.Len() != 0 {
		t.Fatalf("an installed batch still holds %d members; the heap owns them", roomy.Len())
	}
	if _, err := h.Get(resident.ID()); err != nil {
		t.Fatal(err)
	}
}
