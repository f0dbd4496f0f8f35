package core

import (
	"math/rand"
	"slices"
	"testing"

	"objectswap/internal/heap"
)

// checkRecords asserts that s holds exactly the records of model: each is
// found by get, each knows its place in the list, iteration yields them in
// ascending id order, no slot is occupied beyond them and the slot array is
// within its load bound.
func checkRecords(t *testing.T, s *records, model map[ClusterID]*clusterState) {
	t.Helper()
	if s.len() != len(model) {
		t.Fatalf("set holds %d records, model %d", s.len(), len(model))
	}
	for id, cs := range model {
		if got := s.get(id); got != cs {
			t.Fatalf("get(%d) = %p, model holds %p", id, got, cs)
		}
		if s.list[cs.pos] != cs {
			t.Fatalf("record %d records list position %d, which holds %p", id, cs.pos, s.list[cs.pos])
		}
	}
	var ids []ClusterID
	for cs := range s.all {
		if model[cs.id] != cs {
			t.Fatalf("iteration yields record %d, which the model does not hold", cs.id)
		}
		ids = append(ids, cs.id)
	}
	if len(ids) != len(model) || !slices.IsSorted(ids) {
		t.Fatalf("iteration yields %v, want the model's %d ids ascending", ids, len(model))
	}
	occupied := 0
	for _, cs := range s.slots {
		if cs != nil {
			occupied++
		}
	}
	if occupied != len(model) || 4*len(model) > 3*len(s.slots) {
		t.Fatalf("%d slots of %d occupied for %d records", occupied, len(s.slots), len(model))
	}
}

// TestRecordsMatchMap drives seeded add/remove/get sequences against a Go
// map. Ids come from a few narrow ranges a multiple of the slot count apart,
// so homes collide, probe runs wrap past the end of the slot array and
// removals shift records back across it; ids are added in any order, as a
// checkpoint restore may name them.
func TestRecordsMatchMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var s records
		model := map[ClusterID]*clusterState{}
		pick := func() ClusterID {
			return ClusterID(r.Intn(4)*64 + 56 + r.Intn(16))
		}
		for step := 0; step < 2000; step++ {
			id := pick()
			switch cs := model[id]; {
			case r.Intn(2) == 0 && cs == nil:
				cs = newClusterState(id, resident)
				s.add(cs)
				model[id] = cs
			case r.Intn(2) == 0 && cs != nil:
				s.remove(cs)
				delete(model, id)
			default:
				if len(s.slots) == 0 {
					break // get needs the slot array the first add makes
				}
				if got := s.get(id); got != cs {
					t.Fatalf("seed %d step %d: get(%d) = %p, model holds %p", seed, step, id, got, cs)
				}
			}
			checkRecords(t, &s, model)
		}
	}
}

// slotsFor returns the slot count a record set reaches holding n records:
// the smallest power of two, at least 8, that n fills at most 3/4.
func slotsFor(n int) int {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// TestClusterTableBoundedByPeakRecords mints and drops 200 000 clusters, in
// groups of 100, beside 1 000 that live throughout: the table's slot array is
// the size its peak record count needs, and its list, compacted once half of
// it is holes, has at most four times that capacity (twice for the holes,
// twice for append's growth), whatever the number of ids ever minted; every live
// cluster is found by id and iteration runs in id order.
func TestClusterTableBoundedByPeakRecords(t *testing.T) {
	const liveSet, group, minted = 1000, 100, 200000
	f := newFixture(t, 0)
	rt := f.rt
	tab := &rt.mgr.table
	rt.lock()
	defer rt.unlock()
	live := []ClusterID{RootCluster}
	for i := 0; i < liveSet; i++ {
		live = append(live, tab.newCluster())
	}
	ids := make([]ClusterID, group)
	for round := 0; round < minted/group; round++ {
		for i := range ids {
			ids[i] = tab.newCluster()
		}
		if round%2 == 1 {
			slices.Reverse(ids)
		}
		for _, id := range ids {
			tab.drop(tab.clusters.get(id))
		}
	}
	peak := len(live) + group
	if got, want := len(tab.clusters.slots), slotsFor(peak); got != want {
		t.Fatalf("slot array has %d slots after %d clusters minted, want %d for a peak of %d records", got, minted, want, peak)
	}
	if got := cap(tab.clusters.list); got > 4*peak {
		t.Fatalf("list capacity %d, want at most %d for a peak of %d records", got, 4*peak, peak)
	}
	t.Logf("%d clusters minted beside %d live: %d slots, list capacity %d", minted, len(live), len(tab.clusters.slots), cap(tab.clusters.list))
	var got []ClusterID
	for cs := range tab.clusters.all {
		got = append(got, cs.id)
	}
	if !slices.Equal(got, live) {
		t.Fatalf("iteration yields %d ids (first %v), want the %d live ones in id order", len(got), got[:min(len(got), 5)], len(live))
	}
	for _, id := range live {
		if cs := tab.clusters.get(id); cs == nil || cs.id != id {
			t.Fatalf("live cluster %d not found", id)
		}
	}
	if cs := tab.clusters.get(tab.lastID); cs != nil {
		t.Fatalf("dropped cluster %d still found", tab.lastID)
	}
}

// TestKeyTableMatchesMap drives seeded set/drop/get sequences against a Go
// map. Keys come from a narrow range, so probe runs collide and removals
// shift entries back across the end of the slot array; a drop under another
// proxy's id leaves the entry.
func TestKeyTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var tab keyTable
		model := map[uint64]heap.ObjID{}
		span := 4 + r.Intn(60)
		for step := 0; step < 2000; step++ {
			key := uint64(r.Intn(3))<<targetBits | uint64(1+r.Intn(span))
			switch pid := heap.ObjID(1 + r.Intn(3)); r.Intn(3) {
			case 0:
				tab.set(key, pid)
				model[key] = pid
			case 1:
				tab.drop(key, pid)
				if model[key] == pid {
					delete(model, key)
				}
			default:
				got, ok := tab.get(key)
				if want, in := model[key]; ok != in || got != want {
					t.Fatalf("seed %d step %d: get(%#x) = %d, %v; model holds %d, %v", seed, step, key, got, ok, want, in)
				}
			}
			if tab.n != len(model) || 4*tab.n > 3*len(tab.slots) {
				t.Fatalf("seed %d step %d: %d entries in %d slots, model %d", seed, step, tab.n, len(tab.slots), len(model))
			}
			for key, pid := range model {
				if got, ok := tab.get(key); !ok || got != pid {
					t.Fatalf("seed %d step %d: get(%#x) = %d, %v; model holds %d", seed, step, key, got, ok, pid)
				}
			}
		}
	}
}
