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
// with roots, pins, finalizers and nursery entries of mixed grace. finalized
// collects every finalizer call.
func randomHeap(t *testing.T, seed int64, finalized *[]ObjID) (*Heap, []ObjID) {
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
		if r.Intn(3) == 0 {
			h.OnFinalize(o.ID(), func(id ObjID) { *finalized = append(*finalized, id) })
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

func sortedIDs(ids []ObjID) []ObjID {
	out := append([]ObjID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Property: on any heap, one CollectCycles(3) pass leaves exactly what three
// back-to-back Collect cycles leave — the same survivors, the same accounted
// bytes, the same nursery, the same finalizer calls (each once) — and counts
// as one collection.
func TestPropPressurePassEqualsThreeCycles(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		var loopFinal, passFinal []ObjID
		loop, extra := randomHeap(t, seed, &loopFinal)
		pass, _ := randomHeap(t, seed, &passFinal)

		var loopStats CollectStats
		for i := 0; i < 3; i++ {
			st := loop.Collect(extra...)
			loopStats.Reclaimed += st.Reclaimed
			loopStats.BytesFreed += st.BytesFreed
			loopStats.Finalized += st.Finalized
			loopStats.Live = st.Live
			loopStats.Swept = append(loopStats.Swept, st.Swept...)
		}
		passStats := pass.CollectCycles(3, extra...)

		if got, want := pass.IDs(), loop.IDs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: survivors %v, three cycles leave %v", seed, got, want)
		}
		if pass.Used() != loop.Used() {
			t.Fatalf("seed %d: used %d, three cycles leave %d", seed, pass.Used(), loop.Used())
		}
		if !reflect.DeepEqual(pass.nursery, loop.nursery) {
			t.Fatalf("seed %d: nursery %v, three cycles leave %v", seed, pass.nursery, loop.nursery)
		}
		if got, want := sortedIDs(passFinal), sortedIDs(loopFinal); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: finalized %v, three cycles finalize %v", seed, got, want)
		}
		if got, want := sortedIDs(passStats.Swept), sortedIDs(loopStats.Swept); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: swept %v, three cycles sweep %v", seed, got, want)
		}
		passStats.Swept, loopStats.Swept = nil, nil
		if !reflect.DeepEqual(passStats, loopStats) {
			t.Fatalf("seed %d: stats %+v, three cycles total %+v", seed, passStats, loopStats)
		}
		if got := pass.StatsSnapshot().Collections; got != 1 {
			t.Fatalf("seed %d: pass counted %d collections, want 1", seed, got)
		}
		var live int64
		for _, id := range pass.IDs() {
			o, _ := pass.Get(id)
			live += o.Size()
		}
		if pass.Used() != live {
			t.Fatalf("seed %d: used %d, resident sizes sum to %d", seed, pass.Used(), live)
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
