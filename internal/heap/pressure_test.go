package heap

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// fanClass has a list field beside the plain link, so random graphs exercise
// list-nested references too.
func fanClass() *Class {
	return NewClass("Fan",
		FieldDef{Name: "next", Kind: KindRef},
		FieldDef{Name: "kids", Kind: KindList},
		FieldDef{Name: "payload", Kind: KindBytes},
	)
}

// randomHeap builds, from the seed alone, a heap of randomly linked objects
// with roots, pins and nursery entries of mixed grace.
func randomHeap(t *testing.T, seed int64) (*Heap, []ObjID) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	h := New(0)
	c := fanClass()
	n := 20 + r.Intn(60)
	objs := make([]*Object, n)
	for i := range objs {
		// Grace 0 leaves the object outside the nursery; 1..5 straddle the
		// three cycles a pressure pass burns.
		h.SetNurseryGrace(r.Intn(6))
		o, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetFieldByName("payload", Bytes(make([]byte, r.Intn(48)))); err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	pick := func() Value { return objs[r.Intn(n)].RefTo() }
	for _, o := range objs {
		if r.Intn(3) > 0 {
			_ = o.SetFieldByName("next", pick())
		}
		if r.Intn(4) == 0 {
			_ = o.SetFieldByName("kids", List(pick(), Int(7), List(pick())))
		}
	}
	for i := r.Intn(3); i > 0; i-- {
		h.SetRoot(string(rune('a'+i)), pick())
	}
	for i := r.Intn(3); i > 0; i-- {
		h.Pin(objs[r.Intn(n)].ID())
	}
	var extra []ObjID
	for i := r.Intn(3); i > 0; i-- {
		extra = append(extra, objs[r.Intn(n)].ID())
	}
	return h, extra
}

// churn frees a random third of h's residents and reinstalls most of them
// in one batch under their original ids, each linked to a random id in
// [1, span] that may or may not be resident: the swap-out and swap-in traffic
// a collector sees between passes. The same heap state and generator state
// give the same churn.
func churn(t testing.TB, r *rand.Rand, h *Heap, c *Class, span int) {
	t.Helper()
	var freed []ObjID
	for _, id := range h.IDs() {
		if r.Intn(3) == 0 {
			freed = append(freed, id)
		}
	}
	if st := h.Free(freed); st.Reclaimed != len(freed) {
		t.Fatalf("freed %d of %d residents", st.Reclaimed, len(freed))
	}
	next, _ := c.FieldIndex("next")
	b := MakeBatch(len(freed), len(freed)*c.NumFields())
	for _, id := range freed {
		if r.Intn(4) > 0 {
			b.Add(id, c)[next] = Ref(ObjID(1 + r.Intn(span)))
		}
	}
	if _, err := h.InstallBatch(&b); err != nil {
		t.Fatal(err)
	}
}

func sortedIDs(swept []*Object) []ObjID {
	out := sweptIDs(swept)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sweptIDs lists the ids of a collection's swept objects, in sweep order.
func sweptIDs(swept []*Object) []ObjID {
	out := make([]ObjID, len(swept))
	for i, o := range swept {
		out[i] = o.ID()
	}
	return out
}

// Property: on any heap, one CollectCycles(3) pass leaves exactly what three
// back-to-back Collect cycles leave — the same survivors, the same accounted
// bytes, the same nursery, the same swept ids — and counts
// as one collection. Between rounds both heaps take the same Free and
// reinstalling InstallBatch, so the pass is checked on a heap whose residents
// come and go under their original ids.
func TestPropPressurePassEqualsThreeCycles(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		loop, extra := randomHeap(t, seed)
		pass, _ := randomHeap(t, seed)
		span := int(loop.nextID)
		loopChurn, passChurn := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))

		for round := 1; round <= 3; round++ {
			if round > 1 {
				churn(t, loopChurn, loop, fanClass(), span)
				churn(t, passChurn, pass, fanClass(), span)
			}
			var loopStats CollectStats
			for i := 0; i < 3; i++ {
				st := loop.Collect(extra...)
				loopStats.Reclaimed += st.Reclaimed
				loopStats.BytesFreed += st.BytesFreed
				loopStats.Live = st.Live
				loopStats.Swept = append(loopStats.Swept, st.Swept...)
			}
			passStats := pass.CollectCycles(3, extra...)

			if got, want := pass.IDs(), loop.IDs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: survivors %v, three cycles leave %v", seed, round, got, want)
			}
			if pass.Used() != loop.Used() {
				t.Fatalf("seed %d round %d: used %d, three cycles leave %d", seed, round, pass.Used(), loop.Used())
			}
			if !reflect.DeepEqual(pass.nursery, loop.nursery) {
				t.Fatalf("seed %d round %d: nursery %v, three cycles leave %v", seed, round, pass.nursery, loop.nursery)
			}
			if got, want := sortedIDs(passStats.Swept), sortedIDs(loopStats.Swept); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: swept %v, three cycles sweep %v", seed, round, got, want)
			}
			passStats.Swept, loopStats.Swept = nil, nil
			if !reflect.DeepEqual(passStats, loopStats) {
				t.Fatalf("seed %d round %d: stats %+v, three cycles total %+v", seed, round, passStats, loopStats)
			}
			if got := pass.StatsSnapshot().Collections; got != uint64(round) {
				t.Fatalf("seed %d round %d: pass counted %d collections, want %d", seed, round, got, round)
			}
			var live int64
			for _, id := range pass.IDs() {
				o, _ := pass.Get(id)
				live += o.Size()
			}
			if pass.Used() != live {
				t.Fatalf("seed %d round %d: used %d, resident sizes sum to %d", seed, round, pass.Used(), live)
			}
		}
	}
}

// TestCollectAllocatesNothingOnUnchangedHeap is the collector's allocation
// budget: a pass that reclaims nothing — the steady state between faults —
// allocates nothing, however large the heap. check.sh runs it by name.
func TestCollectAllocatesNothingOnUnchangedHeap(t *testing.T) {
	h := New(0)
	c := fanClass()
	objs := make([]*Object, 500)
	for i := range objs {
		o, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	for i, o := range objs[:len(objs)-1] {
		_ = o.SetFieldByName("next", objs[i+1].RefTo())
		_ = o.SetFieldByName("kids", List(objs[(i*7)%len(objs)].RefTo(), List(objs[(i*13)%len(objs)].RefTo())))
	}
	h.SetRoot("head", objs[0].RefTo())
	h.Pin(objs[3].ID())
	extra := []ObjID{objs[5].ID()}
	h.Collect(extra...) // sizes the work list once

	for _, cycles := range []int{1, 3} {
		allocs := testing.AllocsPerRun(20, func() {
			if st := h.CollectCycles(cycles, extra...); st.Reclaimed != 0 {
				t.Fatalf("live objects collected: %+v", st)
			}
		})
		if allocs != 0 {
			t.Fatalf("CollectCycles(%d) on an unchanged heap allocates %v times per pass, want 0", cycles, allocs)
		}
	}
}

// TestCollectAgainstConcurrentFieldWrites runs collections while other
// goroutines rewrite the links of live objects — what a background swap-in's
// eviction pass does to the application thread. Each writer owns its own
// objects (field access is single-writer by contract). Under -race it checks
// that the collector's mark words and field scans are ordered against the
// writes; in any mode, that accounting stays exact.
func TestCollectAgainstConcurrentFieldWrites(t *testing.T) {
	h := New(0)
	objs := buildChain(t, h, 64)
	for i, o := range objs {
		h.SetRoot(string(rune('A'+i)), o.RefTo())
	}
	var wg sync.WaitGroup
	const writers = 3
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				o := objs[r.Intn(len(objs)/writers)*writers+w]
				if err := o.SetFieldByName("next", objs[r.Intn(len(objs))].RefTo()); err != nil {
					t.Error(err)
					return
				}
				if err := o.SetFieldByName("payload", Bytes(make([]byte, r.Intn(32)))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if st := h.CollectCycles(1 + i%3); st.Reclaimed != 0 {
			t.Errorf("rooted objects collected: %+v", st)
		}
	}
	wg.Wait()
	var live int64
	for _, o := range objs {
		live += o.Size()
	}
	if h.Used() != live {
		t.Fatalf("used %d, resident sizes sum to %d", h.Used(), live)
	}
}
