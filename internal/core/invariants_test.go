package core

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"objectswap/internal/heap"
)

// checkClean asserts zero invariant violations.
func checkClean(t testing.TB, rt *Runtime) {
	t.Helper()
	if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatal("invariant violations")
	}
}

func TestInvariantsHoldAfterConstruction(t *testing.T) {
	f := newFixture(t, 0)
	f.buildList(t, 50, 10, 16)
	checkClean(t, f.rt)
}

func TestInvariantsHoldAcrossSwapCycle(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 50, 10, 16)
	for _, c := range clusters[1:] {
		if _, err := f.rt.SwapOut(c); err != nil {
			t.Fatal(err)
		}
		checkClean(t, f.rt)
		f.rt.Collect()
		checkClean(t, f.rt)
	}
	f.snapshotTags(t) // reload everything
	checkClean(t, f.rt)
}

// TestInvariantsDetectCorruption plants one fault per row behind the
// middleware's back and checks that CheckInvariants reports it.
func TestInvariantsDetectCorruption(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, f *fixture, ids []heap.ObjID, clusters []ClusterID)
		want  string
	}{
		{"cross-cluster direct reference", func(t *testing.T, f *fixture, ids []heap.ObjID, _ []ClusterID) {
			// A direct heap write, bypassing interception.
			var err error
			inHold(f.rt, func(h *heap.Heap) {
				a, _ := h.Get(ids[0])  // cluster 1
				b, _ := h.Get(ids[15]) // cluster 2
				err = a.SetFieldByName("next", b.RefTo())
			})
			if err != nil {
				t.Fatal(err)
			}
		}, "un-proxied reference"},
		{"member list out of order", func(t *testing.T, f *fixture, _ []heap.ObjID, clusters []ClusterID) {
			tab := &f.rt.mgr.table
			f.rt.lock()
			defer f.rt.unlock()
			cs := tab.clusters.get(clusters[0])
			r := cs.members[0]
			cs.members = runs{{r.lo + 5, r.n - 5, r.class}, {r.lo, 5, r.class}}
		}, "not ascending"},
		{"header its cluster does not list", func(t *testing.T, f *fixture, _ []heap.ObjID, clusters []ClusterID) {
			// A dropped run: its members' headers still name the cluster.
			tab := &f.rt.mgr.table
			f.rt.lock()
			defer f.rt.unlock()
			cs := tab.clusters.get(clusters[1])
			cs.members = cs.members[1:]
		}, "does not list it"},
		{"wrong owner word", func(t *testing.T, f *fixture, ids []heap.ObjID, clusters []ClusterID) {
			f.rt.lock()
			defer f.rt.unlock()
			o, _ := f.rt.h.Get(ids[3]) // cluster 1
			o.SetOwner(uint32(clusters[1]))
		}, "whose header names cluster"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 0)
			ids, clusters := f.buildList(t, 20, 10, 8)
			checkClean(t, f.rt)
			tc.plant(t, f, ids, clusters)
			errs := f.rt.Manager().CheckInvariants()
			if !slices.ContainsFunc(errs, func(err error) bool { return strings.Contains(err.Error(), tc.want) }) {
				t.Fatalf("planted fault not reported as %q: %v", tc.want, errs)
			}
		})
	}
}

// TestPropInvariantsUnderRandomOperations drives a random mix of middleware
// operations and asserts the full invariant set after every batch.
func TestPropInvariantsUnderRandomOperations(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := newFixture(t, 0)
		n := 20 + r.Intn(40)
		per := 4 + r.Intn(8)
		ids, clusters := f.buildList(t, n, per, 8)

		for step := 0; step < 30; step++ {
			switch r.Intn(6) {
			case 0: // swap a random cluster out
				c := clusters[r.Intn(len(clusters))]
				if !f.rt.Manager().IsSwapped(c) {
					// Dead clusters may already have been dropped entirely.
					if _, err := f.rt.SwapOut(c); err != nil &&
						!errors.Is(err, ErrClusterEmpty) && !errors.Is(err, ErrUnknownCluster) {
						t.Logf("seed %d: swap-out: %v", seed, err)
						return false
					}
				}
			case 1: // swap a random cluster in
				c := clusters[r.Intn(len(clusters))]
				if f.rt.Manager().IsSwapped(c) {
					if _, err := f.rt.SwapIn(c); err != nil && !errors.Is(err, ErrUnknownCluster) {
						t.Logf("seed %d: swap-in: %v", seed, err)
						return false
					}
				}
			case 2: // collect
				f.rt.Collect()
			case 3: // rewire a random edge through the mediated API
				src := ids[r.Intn(n)]
				dst := ids[r.Intn(n)]
				err := f.rt.SetFieldValue(heap.Ref(src), "next", heap.Ref(dst))
				// Rewiring may have orphaned either endpoint earlier; poking a
				// collected object correctly errors.
				if err != nil && !errors.Is(err, heap.ErrNoSuchObject) {
					t.Logf("seed %d: set field: %v", seed, err)
					return false
				}
			case 4: // read a field through a random reference
				src := ids[r.Intn(n)]
				if _, err := f.rt.Field(heap.Ref(src), "next"); err != nil && !errors.Is(err, heap.ErrNoSuchObject) {
					t.Logf("seed %d: field: %v", seed, err)
					return false
				}
			case 5: // invoke through the head (may fault clusters in)
				if _, err := f.rt.Invoke(f.head(t), "fetch", heap.Int(int64(r.Intn(n)))); err != nil {
					t.Logf("seed %d: invoke: %v", seed, err)
					return false
				}
			}
			if errs := f.rt.Manager().CheckInvariants(); len(errs) > 0 {
				for _, e := range errs {
					t.Logf("seed %d step %d: %v", seed, step, e)
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
