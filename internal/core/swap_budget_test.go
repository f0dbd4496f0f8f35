package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
	"objectswap/internal/wire"
)

// taskFixture builds the benchmark's cluster shape: objects chained through
// "next", each holding a titleBytes-long string, perCluster to a cluster.
func taskFixture(t testing.TB, clusters, perCluster, titleBytes int) (*fixture, []ClusterID) {
	t.Helper()
	h := heap.New(0)
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	if err := devices.Add("d", mem); err != nil {
		t.Fatal(err)
	}
	task := heap.NewClass("Task",
		heap.FieldDef{Name: "title", Kind: heap.KindString},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
	rt := NewRuntime(h, heap.NewRegistry(), WithStores(devices))
	rt.MustRegisterClass(task)
	f := &fixture{rt: rt, reg: devices, mem: mem, node: task}
	var ids []ClusterID
	var prev *heap.Object
	for c := 0; c < clusters; c++ {
		id := rt.Manager().NewCluster()
		ids = append(ids, id)
		for i := 0; i < perCluster; i++ {
			o, err := rt.NewObject(task, id)
			if err != nil {
				t.Fatal(err)
			}
			head := fmt.Sprintf("c%d-o%d|", c, i)
			o.MustSet("title", heap.Str(head+strings.Repeat("x", titleBytes-len(head))))
			if prev == nil {
				if err := rt.SetRoot("head", o.RefTo()); err != nil {
					t.Fatal(err)
				}
			} else if err := rt.SetFieldValue(prev.RefTo(), "next", o.RefTo()); err != nil {
				t.Fatal(err)
			}
			prev = o
		}
	}
	return f, ids
}

// mallocs reports the allocations and allocated bytes of one call of fn.
func mallocs(fn func()) (count, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestSwapRoundTripBudget pins what the middleware itself allocates to move
// one cluster out and back — on a device that swaps because it is out of
// memory, that garbage competes with the bytes being freed. One SwapOut plus
// one SwapIn of a 32-object x 128 B cluster over an in-memory donor, in the
// negotiated binary format, may allocate at most 8x the frame it ships
// (it was ~15x when each direction built a document and two frame copies),
// and the encode side nothing that grows with the object count once the
// encoder pool is warm. check.sh runs it by name: allocation counts and sizes
// do not depend on the host's speed.
func TestSwapRoundTripBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; the budget is gated without it")
	}
	// One goroutine at a time keeps the pooled encoder on this P, and no
	// collection in between keeps it in the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	roundTrip := func(f *fixture, id ClusterID) (frame int) {
		ev, err := f.rt.SwapOut(id)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Format != string(wire.FormatBinary) {
			t.Fatalf("negotiated %q, want %q", ev.Format, wire.FormatBinary)
		}
		if _, err := f.rt.SwapIn(id); err != nil {
			t.Fatal(err)
		}
		return ev.Bytes
	}

	f, ids := taskFixture(t, 2, 32, 128)
	id := ids[1]
	frame := roundTrip(f, id) // warm: pools, metric series, lazily built tables
	roundTrip(f, id)
	const rounds = 20
	count, bytes := mallocs(func() {
		for i := 0; i < rounds; i++ {
			roundTrip(f, id)
		}
	})
	perTrip, allocs := float64(bytes)/rounds, float64(count)/rounds
	t.Logf("frame %d B; one round trip allocates %.0f B in %.0f objects (%.1fx the frame)",
		frame, perTrip, allocs, perTrip/float64(frame))
	if limit := 8 * float64(frame); perTrip > limit {
		t.Fatalf("one swap round trip allocates %.0f B, budget is 8x the %d B frame = %.0f B",
			perTrip, frame, limit)
	}

	// The encode side: the same swap-out on a cluster four times the size may
	// cost more bytes nowhere but in the donor's copy, and no more objects.
	encodeSide := func(perCluster int) (count, bytes uint64, frame int) {
		f, ids := taskFixture(t, 2, perCluster, 128)
		id := ids[1]
		roundTrip(f, id)
		roundTrip(f, id)
		var ev SwapEvent
		count, bytes = mallocs(func() {
			var err error
			if ev, err = f.rt.SwapOut(id); err != nil {
				t.Fatal(err)
			}
		})
		if n, err := f.mem.Stats(context.Background()); err != nil || n.Items != 1 {
			t.Fatalf("donor holds %+v (%v), want the one shipment", n, err)
		}
		return count, bytes, ev.Bytes
	}
	smallCount, smallBytes, smallFrame := encodeSide(32)
	bigCount, bigBytes, bigFrame := encodeSide(128)
	t.Logf("swap-out of 32 objects: %d allocs, %d B (frame %d); of 128: %d allocs, %d B (frame %d)",
		smallCount, smallBytes, smallFrame, bigCount, bigBytes, bigFrame)
	// Per-member costs that are not the encoder's: the member-id slice and
	// set of the reservation, the object snapshot, the committed base record.
	// They grow by a few words per object, not by a record or a copy of it.
	if extra := int64(bigCount) - int64(smallCount); extra > 16 {
		t.Fatalf("swap-out of 128 objects makes %d allocations, of 32 makes %d: the encode side allocates per object",
			bigCount, smallCount)
	}
	donorCopy := int64(bigFrame - smallFrame)
	if extra := int64(bigBytes) - int64(smallBytes) - donorCopy; extra > 96*100 {
		t.Fatalf("swap-out of 128 objects allocates %d B more than of 32 beyond the donor's copy (%d B): want under 100 B per extra object, less than one field of a record",
			extra, donorCopy)
	}
}
