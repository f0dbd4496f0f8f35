package heap

import (
	"math/rand"
	"reflect"
	"slices"
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

// youngChurn applies one round of mutator traffic to every heap in hs alike,
// choosing only among pick, ids resident in all of them: it frees a random
// third of pick, allocates fresh objects of mixed nursery grace, writes
// references to them — or nil — into surviving objects, points roots at
// them, pins and unpins, and reinstalls most of the freed ids in one batch
// whose members reference fresh and surviving objects. Each fresh object is
// referenced through at most one of those paths, so every rule of a young
// pass's roots is some object's only way to stay live. Beside them it mints
// swap-cluster-proxies, some held by a surviving object and the rest garbage,
// so that a later round's mints reissue the blocks of a previous pass's
// swept ones; frees a few fresh objects and reinstalls them in the batch, as
// a swap-out and a reload would before any pass; and removes a fresh object
// and sometimes a surviving one.
func youngChurn(t *testing.T, r *rand.Rand, hs []*Heap, pick []ObjID, c *Class) {
	t.Helper()
	next, _ := c.FieldIndex("next")
	var freed, kept []ObjID
	for _, id := range pick {
		if r.Intn(3) == 0 {
			freed = append(freed, id)
		} else {
			kept = append(kept, id)
		}
	}
	fresh := make([][]*Object, len(hs))
	graces := make([]int, 4+r.Intn(12))
	for i := range graces {
		graces[i] = r.Intn(6)
	}
	proxies := make([][]*Object, len(hs))
	held := make([]int, r.Intn(8)) // proxy i is held by kept[held[i]], or by nothing when -1
	for i := range held {
		if held[i] = -1; r.Intn(2) == 0 && len(kept) > 0 {
			held[i] = r.Intn(len(kept))
		}
	}
	pc := scProxyClass()
	for k, h := range hs {
		h.Free(freed)
		for _, g := range graces {
			h.SetNurseryGrace(g)
			o, err := h.New(c)
			if err != nil {
				t.Fatal(err)
			}
			fresh[k] = append(fresh[k], o)
		}
		h.SetNurseryGrace(0)
		for i := range held {
			o, err := h.NewPrivileged(pc, Nil(), Int(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			proxies[k] = append(proxies[k], o)
		}
	}
	var reborn []int // fresh objects freed and reinstalled before the pass
	for i := range graces {
		if r.Intn(5) == 0 {
			reborn = append(reborn, i)
		}
	}
	removed, removedOld := r.Intn(len(graces)), -1
	if r.Intn(3) == 0 && len(kept) > 0 {
		removedOld = r.Intn(len(kept))
	}
	ref := func(k, i int) Value { return fresh[k][i].RefTo() }
	type step struct{ kind, holder, target int }
	var steps []step
	for i := range graces {
		switch r.Intn(6) {
		case 0, 1:
			if len(kept) > 0 {
				steps = append(steps, step{0, r.Intn(len(kept)), i}) // an old holder's field
			}
		case 2:
			steps = append(steps, step{1, r.Intn(3), i}) // a root
		case 3:
			steps = append(steps, step{2, 0, i}) // a pin
		case 4:
			if i > 0 {
				steps = append(steps, step{3, r.Intn(i), i}) // a fresh holder
			}
		}
	}
	for range r.Intn(4) {
		if len(kept) > 0 {
			steps = append(steps, step{4, r.Intn(len(kept)), 0}) // an old link cut: old garbage
		}
	}
	links := make([]int, len(freed)) // batch member i links to fresh[links[i]], or to kept[-links[i]-1]
	for i := range links {
		if r.Intn(2) == 0 || len(kept) == 0 {
			links[i] = r.Intn(len(graces))
		} else {
			links[i] = -1 - r.Intn(len(kept))
		}
	}
	for k, h := range hs {
		for _, s := range steps {
			var err error
			switch s.kind {
			case 0:
				o, _ := h.Get(kept[s.holder])
				err = o.SetField(next, ref(k, s.target))
			case 1:
				h.SetRoot(string(rune('x'+s.holder)), ref(k, s.target))
			case 2:
				h.Pin(fresh[k][s.target].ID())
			case 3:
				err = fresh[k][s.holder].SetField(next, ref(k, s.target))
			case 4:
				o, _ := h.Get(kept[s.holder])
				err = o.SetField(next, Nil())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, holder := range held {
			if holder >= 0 {
				o, _ := h.Get(kept[holder])
				if err := o.SetField(next, proxies[k][i].RefTo()); err != nil {
					t.Fatal(err)
				}
			}
		}
		var rebornIDs []ObjID
		for _, i := range reborn {
			rebornIDs = append(rebornIDs, fresh[k][i].ID())
		}
		h.Free(rebornIDs)
		b := MakeBatch(len(freed)+len(reborn), (len(freed)+len(reborn))*c.NumFields())
		for i, id := range freed {
			if i%4 == 3 {
				continue // stays freed: a dangling name in older objects
			}
			if l := links[i]; l >= 0 {
				b.Add(id, c)[next] = ref(k, l)
			} else {
				b.Add(id, c)[next] = Ref(kept[-l-1])
			}
		}
		for _, id := range rebornIDs {
			b.Add(id, c)
		}
		if _, err := h.InstallBatch(&b); err != nil {
			t.Fatal(err)
		}
		if err := h.Remove(fresh[k][removed].ID()); err != nil {
			t.Fatal(err)
		}
		if removedOld >= 0 {
			if err := h.Remove(kept[removedOld]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// rootedIDs lists what a pass aged by cycles must keep: whatever the roots,
// the pins, the nursery entries whose grace outlasts the pass and extra
// reach. The caller holds no lock of h.
func rootedIDs(h *Heap, cycles int, extra []ObjID) map[ObjID]bool {
	h.mu.RLock()
	seeds := append([]ObjID(nil), extra...)
	for _, v := range h.roots {
		v.forEachRef(func(id ObjID) { seeds = append(seeds, id) })
	}
	for id := range h.pins {
		seeds = append(seeds, id)
	}
	for id, grace := range h.nursery {
		if grace >= cycles {
			seeds = append(seeds, id)
		}
	}
	h.mu.RUnlock()
	return h.ReachableFrom(seeds...)
}

// Property: a young pass never sweeps a reachable object, sweeps nothing a
// full pass over the same heap keeps, and a young pass followed by a full
// pass leaves exactly what the full pass it stood in for followed by the same
// full pass leaves: the same survivors, accounted bytes and nursery. Twin
// heaps built from one seed take the same mutator traffic between passes
// (youngChurn: allocations, field writes into survivors, root sets, pins,
// nursery grace, Free, Remove, reinstalling batches and reissued proxy
// blocks); one runs a young pass where the other runs a full one, and only
// every third round do both run a full pass after it, so young passes also
// follow young passes and the old garbage they leave.
func TestPropYoungPassSweepsOnlyGarbage(t *testing.T) {
	const cycles = 3
	for seed := int64(1); seed <= 60; seed++ {
		young, extra := randomHeap(t, seed)
		full, _ := randomHeap(t, seed)
		hs := []*Heap{young, full}
		r := rand.New(rand.NewSource(seed))
		for round := 1; round <= 9; round++ {
			if round > 1 {
				youngChurn(t, r, hs, full.IDs(), fanClass())
			}
			rooted := rootedIDs(young, cycles, extra)
			ys := young.CollectYoung(cycles, extra...)
			full.CollectCycles(cycles, extra...)
			for _, o := range ys.Swept {
				if rooted[o.ID()] {
					t.Fatalf("seed %d round %d: young pass swept reachable %v", seed, round, o)
				}
				if full.Contains(o.ID()) {
					t.Fatalf("seed %d round %d: young pass swept %v, which a full pass keeps", seed, round, o)
				}
			}
			if got, want := young.StatsSnapshot().Collections, full.StatsSnapshot().Collections; got != want {
				t.Fatalf("seed %d round %d: %d collections, the full twin counts %d", seed, round, got, want)
			}
			if !reflect.DeepEqual(young.nursery, full.nursery) {
				t.Fatalf("seed %d round %d: nursery %v, the full twin's %v", seed, round, young.nursery, full.nursery)
			}
			var live int64
			for _, id := range young.IDs() {
				o, _ := young.Get(id)
				live += o.Size()
			}
			if ys.Live != young.Len() || young.Used() != live {
				t.Fatalf("seed %d round %d: %d live, used %d, resident sizes sum to %d", seed, round, ys.Live, young.Used(), live)
			}
			if round%3 != 0 {
				continue
			}
			young.Collect(extra...)
			full.Collect(extra...)
			if got, want := young.IDs(), full.IDs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: survivors %v, the full twin keeps %v", seed, round, got, want)
			}
			if young.Used() != full.Used() || !reflect.DeepEqual(young.nursery, full.nursery) {
				t.Fatalf("seed %d round %d: used %d and nursery %v, the full twin's %d and %v",
					seed, round, young.Used(), young.nursery, full.Used(), full.nursery)
			}
		}
	}
}

// TestYoungPassRunsFullOnOverflow: the write barrier lists at most one
// young object per resident between passes, however often a mutator stores
// young objects into old ones, and the young pass after it stopped listing
// runs as a full pass, so it also sweeps old garbage; the next one is young
// again and leaves old garbage alone.
func TestYoungPassRunsFullOnOverflow(t *testing.T) {
	h := New(0)
	c := nodeClass()
	chain := buildChain(t, h, 10)
	holder, err := h.New(c)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRoot("head", chain[0].RefTo())
	h.SetRoot("holder", holder.RefTo())
	h.Collect() // everything is old

	cut := func(i int) {
		t.Helper()
		if err := chain[i].SetFieldByName("next", Nil()); err != nil {
			t.Fatal(err)
		}
	}
	young := make([]*Object, 2)
	for i := range young {
		if young[i], err = h.New(c); err != nil {
			t.Fatal(err)
		}
	}
	cut(8) // chain[9] is old garbage
	for i := 0; i < 100; i++ {
		if err := holder.SetFieldByName("next", young[i%2].RefTo()); err != nil {
			t.Fatal(err)
		}
	}
	if n, residents := len(h.remembered), h.Len(); n > residents || !h.overflowed {
		t.Fatalf("remembered %d young objects among %d residents (overflowed: %v), want the list stopped at the resident count", n, residents, h.overflowed)
	}
	if st := h.CollectYoung(1); !slices.Contains(sweptIDs(st.Swept), chain[9].ID()) {
		t.Fatalf("young pass after an overflow swept %v, want the old garbage @%d too", sweptIDs(st.Swept), chain[9].ID())
	}

	cut(7) // chain[8] is old garbage, and so is young[1] once the holder lets go
	fresh, err := h.New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.SetFieldByName("next", fresh.RefTo()); err != nil {
		t.Fatal(err)
	}
	if st := h.CollectYoung(1); st.Reclaimed != 0 {
		t.Fatalf("young pass swept %v, want nothing: the only garbage is old", sweptIDs(st.Swept))
	}
	want := []ObjID{chain[8].ID(), young[1].ID()}
	if st := h.Collect(); !slices.Equal(sortedIDs(st.Swept), want) {
		t.Fatalf("full pass swept %v, want the old garbage %v", sortedIDs(st.Swept), want)
	}
}

// TestCollectAllocatesNothingOnUnchangedHeap is the collector's allocation
// budget: a pass that reclaims nothing — the steady state between faults —
// allocates nothing, however large the heap, full or young. check.sh runs it
// by name.
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

	h.CollectYoung(1, extra...)

	passes := []struct {
		name string
		run  func(int, ...ObjID) CollectStats
	}{{"CollectCycles", h.CollectCycles}, {"CollectYoung", h.CollectYoung}}
	for _, pass := range passes {
		for _, cycles := range []int{1, 3} {
			allocs := testing.AllocsPerRun(20, func() {
				if st := pass.run(cycles, extra...); st.Reclaimed != 0 {
					t.Fatalf("live objects collected: %+v", st)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s(%d) on an unchanged heap allocates %v times per pass, want 0", pass.name, cycles, allocs)
			}
		}
	}
}

// TestCollectAgainstConcurrentFieldWrites runs collections, full and young,
// while other goroutines rewrite the links of live objects — what a
// background swap-in's eviction pass does to the application thread. Each
// writer owns its own objects (field access is single-writer by contract).
// Under -race it checks that the collector's mark words and field scans, and
// the write barrier's reads of them, are ordered against the writes; in any
// mode, that accounting stays exact.
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
		pass := h.CollectCycles
		if i%2 == 1 {
			pass = h.CollectYoung
		}
		if st := pass(1 + i%3); st.Reclaimed != 0 {
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
