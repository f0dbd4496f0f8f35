package core

import (
	"errors"
	"math/rand"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// forgetChecksum clears the checksum recorded for a swapped cluster: the
// state of a cluster restored from a checkpoint that predates checksums, where
// nothing but the frame's own structure stands between a damaged payload and
// the heap.
func forgetChecksum(t testing.TB, rt *Runtime, id ClusterID) {
	t.Helper()
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cs, err := ts.state(id)
	if err != nil {
		t.Fatal(err)
	}
	cs.crc = 0
}

// assertStillSwapped checks that a refused swap-in left everything as found.
func assertStillSwapped(t testing.TB, f *fixture, id ClusterID, members []heap.ObjID, used int64, objects int, what string) {
	t.Helper()
	h := f.rt.Heap()
	if got := h.Used(); got != used {
		t.Fatalf("%s: Used = %d after the refused swap-in, was %d", what, got, used)
	}
	if got := h.Len(); got != objects {
		t.Fatalf("%s: %d objects resident after the refused swap-in, were %d", what, got, objects)
	}
	for _, oid := range members {
		if h.Contains(oid) {
			t.Fatalf("%s: member @%d is resident after the refused swap-in", what, oid)
		}
	}
	if !f.rt.Manager().IsSwapped(id) {
		t.Fatalf("%s: the refused swap-in cleared the swapped state", what)
	}
	if errs := f.rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("%s: invariants after the refused swap-in: %v", what, errs)
	}
}

// TestSwapInRefusesDamagedFrameAtomically feeds swap-in every truncation and a
// seeded set of byte flips of a valid frame with no checksum on record. A
// frame that is refused must be refused whole: an error, Used and the object
// count as before, no member resident, the cluster still swapped, invariants
// intact — and once the donor serves an intact copy again, the cluster
// reloads with its data.
func TestSwapInRefusesDamagedFrameAtomically(t *testing.T) {
	setup := func() (f *fixture, id ClusterID, members []heap.ObjID, ev SwapEvent, frame []byte, opts store.PutOpts) {
		f = newFixture(t, 0)
		ids, clusters := f.buildList(t, 24, 8, 40)
		id, members = clusters[1], ids[8:16]
		var err error
		if ev, err = f.rt.SwapOut(id); err != nil {
			t.Fatal(err)
		}
		forgetChecksum(t, f.rt, id)
		if frame, opts, err = store.GetWith(ctx, f.mem, ev.Key); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, id, members, ev, frame, opts := setup()
	want := func() []int64 {
		ref, _, _, _, _, _ := setup()
		return ref.snapshotTags(t)
	}()
	used, objects := f.rt.Heap().Used(), f.rt.Heap().Len()

	serve := func(data []byte) {
		t.Helper()
		if err := store.PutWith(ctx, f.mem, ev.Key, data, opts); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < len(frame); n++ {
		serve(frame[:n])
		if _, err := f.rt.SwapIn(id); err == nil {
			t.Fatalf("swap-in accepted the frame truncated to %d of %d bytes", n, len(frame))
		}
		assertStillSwapped(t, f, id, members, used, objects, "truncation")
	}

	rng := rand.New(rand.NewSource(15))
	refused := 0
	for i := 0; i < 400; i++ {
		damaged := append([]byte(nil), frame...)
		// Half the flips land in the header and tree, where the structure is.
		at := rng.Intn(len(damaged))
		if i%2 == 0 {
			at = rng.Intn(len(damaged) / 4)
		}
		damaged[at] ^= 1 << rng.Intn(8)
		serve(damaged)
		if _, err := f.rt.SwapIn(id); err != nil {
			refused++
			assertStillSwapped(t, f, id, members, used, objects, "byte flip")
			continue
		}
		// Without a checksum a flip inside a payload or a number is a valid
		// frame saying something else: it installs, whole. Start over.
		if errs := f.rt.Manager().CheckInvariants(); len(errs) > 0 {
			t.Fatalf("invariants after installing a flipped frame: %v", errs)
		}
		f, id, members, ev, frame, opts = setup()
		used, objects = f.rt.Heap().Used(), f.rt.Heap().Len()
	}
	if refused < 50 {
		t.Fatalf("only %d of 400 flipped frames were refused: the flips are not reaching the structure", refused)
	}

	serve(frame)
	if _, err := f.rt.SwapIn(id); err != nil {
		t.Fatalf("swap-in from the intact copy: %v", err)
	}
	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("reloaded list has %d nodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d after reload, want %d", i, got[i], want[i])
		}
	}
	checkClean(t, f.rt)
}

// TestSwapInOutOfMemoryInstallsNothing: the batch install reserves the whole
// cluster at once, so a heap with room for half of it takes none of it.
func TestSwapInOutOfMemoryInstallsNothing(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 24, 8, 200)
	id, members := clusters[1], ids[8:16]
	want := f.snapshotTags(t)
	h := f.rt.Heap()
	before := h.Used()
	if _, err := f.rt.SwapOut(id); err != nil {
		t.Fatal(err)
	}
	used, objects := h.Used(), h.Len()
	h.SetCapacity(used + (before-used)/2)

	if _, err := f.rt.SwapIn(id); !errors.Is(err, heap.ErrOutOfMemory) {
		t.Fatalf("swap-in into half the room: %v, want ErrOutOfMemory", err)
	}
	assertStillSwapped(t, f, id, members, used, objects, "out of memory")

	h.SetCapacity(0)
	if _, err := f.rt.SwapIn(id); err != nil {
		t.Fatal(err)
	}
	got := f.snapshotTags(t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d after reload, want %d", i, got[i], want[i])
		}
	}
	checkClean(t, f.rt)
}
