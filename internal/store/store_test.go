package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

var ctx = context.Background()

// storeContract runs the full Store contract against any implementation.
func storeContract(t *testing.T, s Store) {
	t.Helper()

	// Empty store.
	keys, err := s.Keys(ctx)
	if err != nil || len(keys) != 0 {
		t.Fatalf("fresh Keys = %v, %v", keys, err)
	}
	if _, err := s.Get(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	if err := s.Drop(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Drop missing: %v", err)
	}

	// Put / Get round trip, including awkward keys.
	awkward := "swap cluster/1:α?&#"
	payload := []byte("<swapcluster id=\"x\"/>")
	if err := s.Put(ctx, awkward, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, awkward)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v", got, err)
	}

	// Replacement under the same key.
	if err := s.Put(ctx, awkward, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get(ctx, awkward)
	if string(got) != "v2" {
		t.Fatalf("replaced payload = %q", got)
	}

	// Keys are sorted and complete.
	if err := s.Put(ctx, "a-key", []byte("a")); err != nil {
		t.Fatal(err)
	}
	keys, err = s.Keys(ctx)
	if err != nil || len(keys) != 2 || keys[0] != "a-key" || keys[1] != awkward {
		t.Fatalf("Keys = %v, %v", keys, err)
	}

	// Stats track items and bytes.
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 2 || st.Used != int64(len("v2")+len("a")) {
		t.Fatalf("Stats = %+v", st)
	}

	// Drop removes exactly one key.
	if err := s.Drop(ctx, "a-key"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "a-key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after drop: %v", err)
	}
	if _, err := s.Get(ctx, awkward); err != nil {
		t.Fatalf("unrelated key dropped: %v", err)
	}

	// Empty keys are rejected.
	if err := s.Put(ctx, "", []byte("x")); err == nil {
		t.Fatal("Put with empty key accepted")
	}
}

func TestMemContract(t *testing.T) {
	storeContract(t, NewMem(0))
}

func TestDiskContract(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, d)
}

func TestMemCapacity(t *testing.T) {
	m := NewMem(10)
	if err := m.Put(ctx, "a", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(ctx, "b", make([]byte, 4)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over capacity: %v", err)
	}
	// Replacing within budget is fine even at the edge.
	if err := m.Put(ctx, "a", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Stats(ctx)
	if st.Used != 10 || st.Free() != 0 {
		t.Fatalf("stats = %+v free=%d", st, st.Free())
	}
}

func TestDiskCapacityAndPersistence(t *testing.T) {
	dir := t.TempDir()
	d, _ := NewDisk(dir, 16)
	if err := d.Put(ctx, "k", make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ctx, "k2", make([]byte, 8)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over capacity: %v", err)
	}
	// Replacement accounting: replacing k with a same-size payload fits.
	if err := d.Put(ctx, "k", make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	// A second store over the same directory sees the data (persistence).
	d2, _ := NewDisk(dir, 0)
	got, err := d2.Get(ctx, "k")
	if err != nil || len(got) != 16 {
		t.Fatalf("persisted Get = %d bytes, %v", len(got), err)
	}
	if d.Dir() != dir {
		t.Fatalf("Dir = %q", d.Dir())
	}
}

func TestMemIsolation(t *testing.T) {
	m := NewMem(0)
	payload := []byte{1, 2, 3}
	_ = m.Put(ctx, "k", payload)
	payload[0] = 99 // caller mutation after Put
	got, _ := m.Get(ctx, "k")
	if got[0] != 1 {
		t.Fatal("Put did not copy payload")
	}
	got[1] = 99 // caller mutation after Get
	again, _ := m.Get(ctx, "k")
	if again[1] != 2 {
		t.Fatal("Get did not copy payload")
	}
}

func TestRegistrySelection(t *testing.T) {
	big := NewMem(1000)
	small := NewMem(100)
	_ = big.Put(ctx, "pad", make([]byte, 100))  // 900 free
	_ = small.Put(ctx, "pad", make([]byte, 50)) // 50 free

	r := NewRegistry(SelectMostFree)
	if err := r.Add("big", big); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("small", small); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("big", big); err == nil {
		t.Fatal("duplicate Add accepted")
	}

	// Availability gates lookup.
	r.SetAvailable("big", false)
	if _, err := r.Lookup("big"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Lookup down device: %v", err)
	}
	if _, err := r.Lookup("ghost"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Lookup unknown device: %v", err)
	}
	if _, err := r.Lookup("small"); err != nil {
		t.Fatalf("Lookup small: %v", err)
	}
	if names := r.Names(); len(names) != 2 {
		t.Fatalf("Names = %v", names)
	}
	r.Remove("big")
	if names := r.Names(); len(names) != 1 || names[0] != "small" {
		t.Fatalf("Names after remove = %v", names)
	}
}

// TestRegistryKeepsAdvertisement: a probe is kept only under the generation
// it was started at, bytes stored since raise its Used, and it is dropped by
// Forget and by a flip of availability, not by a Set to the same state.
func TestRegistryKeepsAdvertisement(t *testing.T) {
	r := NewRegistry(SelectMostFree)
	if err := r.Add("d", NewMem(1000)); err != nil {
		t.Fatal(err)
	}
	entry := func() Device { return r.Available(nil)[0] }
	ad := Stats{Capacity: 1000, Used: 100}

	raced := entry().Gen
	r.Forget("d") // an invalidation while the probe started at raced ran
	r.Advertise("d", raced, ad)
	if entry().Advertised {
		t.Fatal("a probe that raced an invalidation was kept")
	}
	r.Advertise("d", entry().Gen, ad)
	r.Stored("d", 50)
	if d := entry(); !d.Advertised || d.Ad.Free() != 850 {
		t.Fatalf("kept %+v (advertised %v), want 850 free", d.Ad, d.Advertised)
	}
	r.SetAvailable("d", true) // no flip
	if !entry().Advertised {
		t.Fatal("a Set to the same availability dropped the advertisement")
	}
	r.SetAvailable("d", false)
	r.SetAvailable("d", true)
	if entry().Advertised {
		t.Fatal("an availability flip kept the advertisement")
	}
}

// Property: a random sequence of Put/Drop operations leaves Mem and Disk in
// identical observable states.
func TestPropMemDiskEquivalence(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMem(0)
		d, err := NewDisk(t.TempDir(), 0)
		if err != nil {
			return false
		}
		keys := []string{"k1", "k2", "weird key/#", "k3"}
		for op := 0; op < 30; op++ {
			k := keys[r.Intn(len(keys))]
			if r.Intn(3) == 0 {
				e1 := m.Drop(ctx, k)
				e2 := d.Drop(ctx, k)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			} else {
				payload := make([]byte, r.Intn(64))
				r.Read(payload)
				if m.Put(ctx, k, payload) != nil || d.Put(ctx, k, payload) != nil {
					return false
				}
			}
		}
		mk, _ := m.Keys(ctx)
		dk, _ := d.Keys(ctx)
		if fmt.Sprint(mk) != fmt.Sprint(dk) {
			return false
		}
		for _, k := range mk {
			mv, _ := m.Get(ctx, k)
			dv, _ := d.Get(ctx, k)
			if string(mv) != string(dv) {
				return false
			}
		}
		ms, _ := m.Stats(ctx)
		ds, _ := d.Stats(ctx)
		return ms.Items == ds.Items && ms.Used == ds.Used
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
