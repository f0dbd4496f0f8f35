package heap

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// with roots, pins and a test owner holding a few of them as its roots, as
// the swapping runtime holds what it handed to host code.
func randomHeap(t *testing.T, seed int64) (*Heap, *testOwner) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	h := New(0)
	c := fanClass()
	n := 20 + r.Intn(60)
	objs := make([]*Object, n)
	var extra []ObjID
	for i := range objs {
		o, err := h.New(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Intn(6) == 0 {
			extra = append(extra, o.ID()) // held by the host
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
	for i := r.Intn(3); i > 0; i-- {
		extra = append(extra, objs[r.Intn(n)].ID())
	}
	return h, own(h, extra...)
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

// sortedIDs returns the ids in ascending order.
func sortedIDs(ids []ObjID) []ObjID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// Property: on any heap, one full pass — what an eviction's pressure pass
// runs as once its remembered set overflows — leaves exactly what three
// back-to-back Collect cycles leave: the same survivors, the same accounted
// bytes, the same swept ids, so no pass leaves garbage a later one finds; and
// it counts as one collection. Between rounds both heaps take the same Free
// and reinstalling InstallBatch, so the pass is checked on a heap whose
// residents come and go under their original ids.
func TestPropPressurePassEqualsThreeCycles(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		loop, loopOwner := randomHeap(t, seed)
		pass, passOwner := randomHeap(t, seed)
		span := int(loop.nextID)
		loopChurn, passChurn := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))

		for round := 1; round <= 3; round++ {
			if round > 1 {
				churn(t, loopChurn, loop, fanClass(), span)
				churn(t, passChurn, pass, fanClass(), span)
			}
			var loopStats CollectStats
			for i := 0; i < 3; i++ {
				st := loop.Collect()
				loopStats.Reclaimed += st.Reclaimed
				loopStats.BytesFreed += st.BytesFreed
				loopStats.Live = st.Live
			}
			passStats := pass.Collect()

			if got, want := pass.IDs(), loop.IDs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: survivors %v, three cycles leave %v", seed, round, got, want)
			}
			if pass.Used() != loop.Used() {
				t.Fatalf("seed %d round %d: used %d, three cycles leave %d", seed, round, pass.Used(), loop.Used())
			}
			if got, want := sortedIDs(passOwner.take()), sortedIDs(loopOwner.take()); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: swept %v, three cycles sweep %v", seed, round, got, want)
			}
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
// third of pick, allocates fresh objects, writes references to them — or nil
// — into surviving objects, points roots at them, pins them, hands them to
// the owners (host code holding them), and reinstalls most of the freed ids
// in one batch
// whose members reference fresh and surviving objects. Each fresh object is
// referenced through at most one of those paths, so every rule of a young
// pass's roots is some object's only way to stay live. Beside them it mints
// swap-cluster-proxies, some held by a surviving object and the rest garbage,
// so that a later round's mints reissue the blocks of a previous pass's
// swept ones; frees a few fresh objects and reinstalls them in the batch, as
// a swap-out and a reload would before any pass; and removes a fresh object
// and sometimes a surviving one. Before all that, the owners let go of a
// random half of what they held, which leaves old garbage.
func youngChurn(t *testing.T, r *rand.Rand, hs []*Heap, owners []*testOwner, pick []ObjID, c *Class) {
	t.Helper()
	next, _ := c.FieldIndex("next")
	var letGo []bool
	for range owners[0].extra {
		letGo = append(letGo, r.Intn(2) == 0)
	}
	for _, o := range owners {
		i := 0
		o.extra = slices.DeleteFunc(o.extra, func(ObjID) bool { i++; return letGo[i-1] })
	}
	var freed, kept []ObjID
	for _, id := range pick {
		if r.Intn(3) == 0 {
			freed = append(freed, id)
		} else {
			kept = append(kept, id)
		}
	}
	fresh := make([][]*Object, len(hs))
	nFresh := 4 + r.Intn(12)
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
		for range nFresh {
			o, err := h.New(c)
			if err != nil {
				t.Fatal(err)
			}
			fresh[k] = append(fresh[k], o)
		}
		for i := range held {
			o, err := h.NewPrivileged(pc, Nil(), Int(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			proxies[k] = append(proxies[k], o)
		}
	}
	var reborn []int // fresh objects freed and reinstalled before the pass
	for i := range nFresh {
		if r.Intn(5) == 0 {
			reborn = append(reborn, i)
		}
	}
	removed, removedOld := r.Intn(nFresh), -1
	if r.Intn(3) == 0 && len(kept) > 0 {
		removedOld = r.Intn(len(kept))
	}
	ref := func(k, i int) Value { return fresh[k][i].RefTo() }
	type step struct{ kind, holder, target int }
	var steps []step
	for i := range nFresh {
		switch r.Intn(7) {
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
		case 5:
			steps = append(steps, step{5, 0, i}) // the host
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
			links[i] = r.Intn(nFresh)
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
			case 5:
				owners[k].extra = append(owners[k].extra, fresh[k][s.target].ID())
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

// rootedIDs lists what a pass must keep: whatever the roots, the pins and
// the owner's roots extra reach.
func rootedIDs(h *Heap, extra []ObjID) map[ObjID]bool {
	seeds := append([]ObjID(nil), extra...)
	for _, v := range h.roots {
		v.forEachRef(func(id ObjID) { seeds = append(seeds, id) })
	}
	for id := range h.pins {
		seeds = append(seeds, id)
	}
	return h.reachableFrom(seeds...)
}

// Property: a young pass never sweeps a reachable object, sweeps nothing a
// full pass over the same heap keeps, and a young pass followed by a full
// pass leaves exactly what the full pass it stood in for followed by the same
// full pass leaves: the same survivors and accounted bytes. Twin heaps built
// from one seed take the same mutator traffic between passes (youngChurn:
// allocations, field writes into survivors, root sets, pins, what the owner
// holds and lets go of, Free, Remove, reinstalling batches and reissued
// proxy blocks); one runs a young pass where the other runs a full one, and only
// every third round do both run a full pass after it, so young passes also
// follow young passes and the old garbage they leave.
func TestPropYoungPassSweepsOnlyGarbage(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		young, owner := randomHeap(t, seed)
		full, fullOwner := randomHeap(t, seed)
		hs, owners := []*Heap{young, full}, []*testOwner{owner, fullOwner}
		r := rand.New(rand.NewSource(seed))
		for round := 1; round <= 9; round++ {
			if round > 1 {
				youngChurn(t, r, hs, owners, full.IDs(), fanClass())
			}
			rooted := rootedIDs(young, owner.extra)
			owner.take()
			ys := young.CollectYoung()
			full.Collect()
			for _, id := range owner.take() {
				if rooted[id] {
					t.Fatalf("seed %d round %d: young pass swept reachable @%d", seed, round, id)
				}
				if full.Contains(id) {
					t.Fatalf("seed %d round %d: young pass swept @%d, which a full pass keeps", seed, round, id)
				}
			}
			if got, want := young.StatsSnapshot().Collections, full.StatsSnapshot().Collections; got != want {
				t.Fatalf("seed %d round %d: %d collections, the full twin counts %d", seed, round, got, want)
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
			young.Collect()
			full.Collect()
			if got, want := young.IDs(), full.IDs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: survivors %v, the full twin keeps %v", seed, round, got, want)
			}
			if young.Used() != full.Used() {
				t.Fatalf("seed %d round %d: used %d, the full twin's %d", seed, round, young.Used(), full.Used())
			}
		}
	}
}

// TestYoungTailAfterEveryStep: the resident list keeps what appeared since the
// last pass in its tail, list[young:], whatever the mutator does. A seeded mix
// of steps — New, NewPrivileged reissuing a pooled block, a Free and a
// reinstalling InstallBatch (some refused by a resident id at their end and
// rolled back), Free, Remove, a write into an old object, young and full
// passes, the full ones wrapping the epoch — is checked after every step:
// list[:young] is all marked with the current epoch, and every object
// allocated or installed since the last pass sits at or after young. Every
// pass's purge checks that the pass swept exactly what a scan of the whole
// list finds unmarked, so a young pass that walked only the tail missed
// nothing. check.sh runs it ten times under the race detector.
func TestYoungTailAfterEveryStep(t *testing.T) {
	var reissued, refused, wraps, youngSwept int
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := New(0)
		h.epoch = math.MaxUint32 - 3 // the fourth full pass wraps
		c, pc := fanClass(), scProxyClass()
		next, _ := c.FieldIndex("next")
		young := false
		h.RegisterOwner(Owner{Purge: func(swept []*Object) {
			for _, o := range h.objects.list {
				if o.mark != h.epoch {
					t.Fatalf("seed %d: @%d unmarked after the pass, and not swept", seed, o.id)
				}
			}
			for _, o := range swept {
				if o.mark == h.epoch {
					t.Fatalf("seed %d: marked @%d swept", seed, o.id)
				}
			}
			if young {
				youngSwept += len(swept)
			}
		}})
		fresh := map[ObjID]bool{} // appeared since the last pass
		resident := func() *Object {
			if len(h.objects.list) == 0 {
				return nil
			}
			return h.objects.list[r.Intn(len(h.objects.list))]
		}
		ref := func() Value {
			if o := resident(); o != nil && r.Intn(4) > 0 {
				return o.RefTo()
			}
			return Nil()
		}
		drop := func(ids ...ObjID) {
			for _, id := range ids {
				delete(fresh, id)
			}
		}
		for step := 0; step < 300; step++ {
			switch k := r.Intn(10); k {
			case 0, 1:
				o, err := h.New(c)
				if err != nil {
					t.Fatal(err)
				}
				if err := o.SetField(next, ref()); err != nil {
					t.Fatal(err)
				}
				if r.Intn(3) == 0 {
					h.SetRoot(string(rune('a'+r.Intn(4))), o.RefTo())
				}
				fresh[o.id] = true
			case 2:
				if len(h.free[pc.NumFields()]) > 0 {
					reissued++
				}
				o, err := h.NewPrivileged(pc, ref(), Int(int64(step)))
				if err != nil {
					t.Fatal(err)
				}
				fresh[o.id] = true
			case 3:
				var ids []ObjID
				for range 1 + r.Intn(3) {
					if o := resident(); o != nil && !slices.Contains(ids, o.id) {
						ids = append(ids, o.id)
					}
				}
				h.Free(ids)
				drop(ids...)
				if o := resident(); o != nil && r.Intn(3) == 0 {
					b := MakeBatch(len(ids)+1, (len(ids)+1)*c.NumFields())
					for _, id := range ids {
						b.Add(id, c)
					}
					b.Add(o.id, c)
					if _, err := h.InstallBatch(&b); err == nil {
						t.Fatalf("seed %d step %d: a batch naming resident @%d was installed", seed, step, o.id)
					}
					refused++
					checkYoungTail(t, h, fresh)
				}
				b := MakeBatch(len(ids), len(ids)*c.NumFields())
				for _, id := range ids {
					b.Add(id, c)[next] = ref()
				}
				if _, err := h.InstallBatch(&b); err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					fresh[id] = true
				}
			case 4:
				if o := resident(); o != nil {
					h.Free([]ObjID{o.id})
					drop(o.id)
				}
			case 5:
				if o := resident(); o != nil {
					if err := h.Remove(o.id); err != nil {
						t.Fatal(err)
					}
					drop(o.id)
				}
			case 6, 7:
				if h.objects.young > 0 {
					old := h.objects.list[r.Intn(int(h.objects.young))]
					if old.class == c {
						if err := old.SetField(next, ref()); err != nil {
							t.Fatal(err)
						}
					}
				}
			case 8, 9:
				before := h.epoch
				young = k == 8
				if young {
					h.CollectYoung()
				} else {
					h.Collect()
				}
				if h.epoch < before {
					wraps++
				}
				clear(fresh)
			}
			checkYoungTail(t, h, fresh)
		}
	}
	if reissued == 0 || refused == 0 || wraps == 0 || youngSwept == 0 {
		t.Fatalf("%d reissued blocks, %d refused batches, %d epoch wraps, %d objects swept by young passes: want each", reissued, refused, wraps, youngSwept)
	}
}

// checkYoungTail asserts the split of h's resident list: every object before
// young is marked with the current epoch, and every id of fresh is resident
// at or after young.
func checkYoungTail(t *testing.T, h *Heap, fresh map[ObjID]bool) {
	t.Helper()
	tab := &h.objects
	if int(tab.young) > len(tab.list) {
		t.Fatalf("young tail starts at %d of %d residents", tab.young, len(tab.list))
	}
	for i, o := range tab.list {
		if int(o.pos) != i {
			t.Fatalf("@%d at list position %d records position %d", o.id, i, o.pos)
		}
		if i < int(tab.young) && o.mark != h.epoch {
			t.Fatalf("@%d before the young tail (%d) has mark %d, epoch %d", o.id, tab.young, o.mark, h.epoch)
		}
	}
	for id := range fresh {
		o := tab.get(id)
		if o == nil || o.pos < tab.young {
			t.Fatalf("@%d appeared since the last pass, not in the young tail at %d (%v)", id, tab.young, o)
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
	owner := own(h)
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
	if h.CollectYoung(); !slices.Contains(owner.swept, chain[9].ID()) {
		t.Fatalf("young pass after an overflow swept %v, want the old garbage @%d too", owner.swept, chain[9].ID())
	}
	owner.take()

	cut(7) // chain[8] is old garbage, and so is young[1] once the holder lets go
	fresh, err := h.New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.SetFieldByName("next", fresh.RefTo()); err != nil {
		t.Fatal(err)
	}
	if st := h.CollectYoung(); st.Reclaimed != 0 {
		t.Fatalf("young pass swept %v, want nothing: the only garbage is old", owner.swept)
	}
	want := []ObjID{chain[8].ID(), young[1].ID()}
	if h.Collect(); !slices.Equal(sortedIDs(owner.swept), want) {
		t.Fatalf("full pass swept %v, want the old garbage %v", sortedIDs(owner.swept), want)
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
	own(h, objs[5].ID())
	h.Collect() // sizes the work list once

	h.CollectYoung()

	// The pass behind Collect and CollectYoung allocates nothing at either.
	for _, young := range []bool{false, true} {
		allocs := testing.AllocsPerRun(20, func() {
			if st := h.collect(young); st.Reclaimed != 0 {
				t.Fatalf("live objects collected: %+v", st)
			}
		})
		if allocs != 0 {
			t.Fatalf("a pass (young %v) on an unchanged heap allocates %v times, want 0", young, allocs)
		}
	}
}
