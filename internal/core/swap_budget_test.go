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
func taskFixture(t testing.TB, clusters, perCluster, titleBytes int, opts ...Option) (*fixture, []ClusterID) {
	t.Helper()
	return noteFixture(t, clusters, perCluster, titleBytes, 0, opts...)
}

// noteFixture is taskFixture whose objects also hold a noteBytes-long byte
// payload in a "note" field, when noteBytes is positive.
func noteFixture(t testing.TB, clusters, perCluster, titleBytes, noteBytes int, opts ...Option) (*fixture, []ClusterID) {
	t.Helper()
	h := heap.New(0)
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	if err := devices.Add("d", mem); err != nil {
		t.Fatal(err)
	}
	fields := []heap.FieldDef{
		{Name: "title", Kind: heap.KindString},
		{Name: "next", Kind: heap.KindRef},
	}
	if noteBytes > 0 {
		fields = append(fields, heap.FieldDef{Name: "note", Kind: heap.KindBytes})
	}
	task := heap.NewClass("Task", fields...)
	rt := NewRuntime(h, heap.NewRegistry(), append([]Option{WithStores(devices)}, opts...)...)
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
			rt.Locked(func(*Held) {
				o.MustSet("title", heap.Str(head+strings.Repeat("x", titleBytes-len(head))))
				if noteBytes > 0 {
					o.MustSet("note", heap.Bytes([]byte(head+strings.Repeat("n", noteBytes-len(head)))))
				}
			})
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

// touchTask dirties one member of cluster id, so its next swap-out ships.
func touchTask(t testing.TB, f *fixture, id ClusterID) {
	t.Helper()
	tab := &f.rt.mgr.table
	f.rt.lock()
	oid := tab.clusters.get(id).members[0].lo
	f.rt.unlock()
	f.dirty(t, oid)
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
// one SwapIn of a written 32-object x 128 B cluster over an in-memory donor,
// in the negotiated binary format, may allocate what it was measured to, 3.3x
// the frame it ships, plus a margin (it was ~15x when each direction built a
// document and two frame copies, 6.8x while a heap.Value was 96 B, and 4.5x
// while the decoder copied the frame's string section and the Installer
// returned the installed objects' list) in at most 11 objects (10 measured;
// 13 while each swap-out allocated its replacement-object, its encoder's
// object source and a copy of its donor's format list; 26 while each swap's trace id, context and phase list were three
// allocations and each shipment built its donor list, ranking and candidate
// filter and put its one replica on a goroutine of its own; 28 while the string section's copy and the installed list allocated; 39
// while the fault's flight, the boxed result, the installer, the swap-out's
// own struct and scratch, the trace id's box in its context and the placement
// ranking's reflective sort allocated per swap; 59 while spans grew their
// phase lists by appending, trace ids and storage keys came from
// fmt.Sprintf, unoptioned swaps built an options struct and the installer
// allocated its scratch; 60 while a shipping swap-out copied the member list
// out, 62 while each swap
// took a sorted snapshot of its inbound proxies, 75 while each swap log record
// boxed its fields whether or not anything read it, 113 while every object
// and every staged member paid for a field vector of its own), and neither
// the encode side, once the encoder pool is warm, nor the decode side
// anything that grows with the object count. An unwritten cluster leaves on
// its retained copy: no store call, and a fixed handful of allocations
// whatever its size. check.sh runs it by name: allocation counts and sizes do
// not depend on the host's speed.
func TestSwapRoundTripBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; the budget is gated without it")
	}
	// One goroutine at a time keeps the pooled encoder on this P, and no
	// collection in between keeps it in the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	roundTrip := func(f *fixture, id ClusterID) (frame int) {
		touchTask(t, f, id)
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
	// Measured: 10 objects, 15 894 B since each operation's record holds a
	// 32-byte trace id; the budget's base is the 15 862 B of a 16-byte one
	// (13 and 16 040 B while each swap-out
	// allocated its replacement-object, the encoder's object source and a
	// copy of its donor's format list; 26 and 16 648 B while each swap's trace
	// id, its context and its event's phase list were three allocations and
	// a shipment's donor list, ranking, candidate filter, put goroutine,
	// result channel, landed-index list, failover callback and replica-set
	// copy were allocated per swap-out; 28 and 21 768 B while the decoder
	// copied the frame's string section and the Installer returned the list
	// of the objects it installed; 39 and 23 960 B while the fault's flight
	// and its channel, the SwapEvent boxed as the flight's result, the
	// Installer and its deferred-field list, the swap-out's struct, its member
	// list and its encodeRef closure allocated per swap, each trace context
	// boxed its id and the placement ranking sorted through sort.Slice; 59
	// and 25 472 B while each swap's span, trace id, storage key, options and
	// installer scratch allocated; 60 and 25 728 B while a shipping swap-out
	// copied its cluster's member list). The counts are process-wide, so the
	// budget leaves one stray allocation elsewhere in the process and its
	// bytes.
	const (
		tripAllocs, tripBytes   = 10, 15862
		tripStray, tripStrayLen = 1, 256
	)
	if limit := float64(tripBytes + tripStrayLen); perTrip > limit {
		t.Fatalf("one swap round trip allocates %.0f B, budget is %.0f B (%.1fx the %d B frame)",
			perTrip, limit, limit/float64(frame), frame)
	}
	if allocs > tripAllocs+tripStray {
		t.Fatalf("one swap round trip allocates %.1f objects, budget is %d", allocs, tripAllocs+tripStray)
	}

	// The encode side: the same swap-out on a cluster four times the size may
	// cost more bytes nowhere but in the donor's copy, and no more objects.
	encodeSide := func(perCluster int) (count, bytes uint64, frame int) {
		f, ids := taskFixture(t, 2, perCluster, 128)
		id := ids[1]
		roundTrip(f, id)
		roundTrip(f, id)
		touchTask(t, f, id)
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
	// Per-member costs that are not the encoder's: the member-id slice of the
	// reservation, the object list handed to the encoder, the dirty set.
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

	// The decode side: reloading a cluster four times the size makes no more
	// allocations. Its members land in one header array and one slab of field
	// values sized from the frame header, not in an object and a vector each.
	// The fewest of three reloads is taken: a stray allocation elsewhere in
	// the process can only add to a count.
	decodeSide := func(perCluster int) (count uint64) {
		f, ids := taskFixture(t, 2, perCluster, 128)
		id := ids[1]
		roundTrip(f, id)
		roundTrip(f, id)
		for i := 0; i < 3; i++ {
			touchTask(t, f, id)
			if _, err := f.rt.SwapOut(id); err != nil {
				t.Fatal(err)
			}
			n, _ := mallocs(func() {
				if _, err := f.rt.SwapIn(id); err != nil {
					t.Fatal(err)
				}
			})
			if i == 0 || n < count {
				count = n
			}
		}
		return count
	}
	smallIn, bigIn := decodeSide(32), decodeSide(128)
	t.Logf("swap-in of 32 objects: %d allocs; of 128: %d allocs", smallIn, bigIn)
	if smallIn != bigIn {
		t.Fatalf("swap-in of 128 objects makes %d allocations, of 32 makes %d: the decode side allocates per object",
			bigIn, smallIn)
	}

	// The clean side: the same cluster, unwritten since its reload, leaves on
	// the copy the donor kept. Nothing is asked of the donor, and what is
	// allocated — the operation's record (trace id, the context carrying it,
	// the event's three-phase list), the replacement-object and the event
	// boxed for publication; the operation with its span inside stays on the
	// stack, and its slot table is pooled scratch — does not know how many
	// members the cluster has; the inbound proxies are re-pointed in place, in
	// the hold that settles the cluster.
	cleanSide := func(perCluster int) (count, bytes uint64) {
		f, ids := taskFixture(t, 2, perCluster, 128)
		id := ids[1]
		donor := store.NewFlaky(f.mem, 1)
		f.reg.Remove("d")
		if err := f.reg.Add("d", donor); err != nil {
			t.Fatal(err)
		}
		roundTrip(f, id)
		for i := 0; i < 2; i++ { // warm the clean path's own series
			if _, err := f.rt.SwapOut(id); err != nil {
				t.Fatal(err)
			}
			if _, err := f.rt.SwapIn(id); err != nil {
				t.Fatal(err)
			}
		}
		var calls int
		for op := store.OpPut; op <= store.OpStats; op++ {
			calls -= donor.Calls(op)
		}
		var ev SwapEvent
		count, bytes = mallocs(func() {
			var err error
			if ev, err = f.rt.SwapOut(id); err != nil {
				t.Fatal(err)
			}
		})
		for op := store.OpPut; op <= store.OpStats; op++ {
			calls += donor.Calls(op)
		}
		if !ev.Clean || ev.Bytes != 0 || calls != 0 {
			t.Fatalf("swap-out of an unwritten cluster: %+v, %d store calls; want clean, none", ev, calls)
		}
		return count, bytes
	}
	smallCount, smallBytes = cleanSide(32)
	bigCount, bigBytes = cleanSide(128)
	t.Logf("clean swap-out of 32 objects: %d allocs, %d B; of 128: %d allocs, %d B",
		smallCount, smallBytes, bigCount, bigBytes)
	// Measured: 2 allocations, 384 B, at either size, on a base of 368 B
	// measured with a 16-byte trace id in the record (3 and 528 B while the
	// replacement-object was a fresh block; 5 and 528 B while the
	// trace id, its context and the phase list were three allocations; 6 and
	// 560 B while the trace context boxed its id; 7 and 1840 B while the operation's struct
	// escaped to the heap through the encoder's reference callback; 13 and
	// 1888 B while the span was an allocation of its own that grew its phase
	// list by appending and the trace id came from fmt.Sprintf; 14 and 1904 B
	// while each swap allocated a snapshot of its inbound proxies; 19 and
	// 1968 B while the swap-out log record boxed its fields with logging off;
	// 21 and 2280 B while the replacement-object was two allocations and the
	// inbound-proxy snapshot sorted through sort.Slice; 2568 B while a
	// heap.Value was 96 B). The count is process-wide: the margin is one small
	// allocation elsewhere in the process.
	const (
		measuredAllocs, measuredBytes = 2, 368
		strayAllocs, strayBytes       = 1, 64
		cleanAllocs, cleanBytes       = measuredAllocs + strayAllocs, measuredBytes + strayBytes
	)
	if bigCount != smallCount || smallCount > cleanAllocs || bigBytes > cleanBytes {
		t.Fatalf("clean swap-out allocates %d objects / %d B for 32 members and %d / %d B for 128; budget is %d / %d B at any size",
			smallCount, smallBytes, bigCount, bigBytes, cleanAllocs, cleanBytes)
	}
}

// TestTraceIDInline: a swap allocates the same whatever the length of the
// runtime's default device name, which its trace id carries: the name of a
// process's first runtime ("dev1"), of its 10 000th and of its trillionth
// minus one (twelve digits) fit the operation's record. When the record held
// 16 bytes, the 10 000th runtime's swaps allocated once more than the
// 9 999th's, and TestSwapRoundTripBudget failed whenever the 10 000th runtime
// of its process was the 128-object fixture of its decode side. The fewest
// of three reloads is taken, as there.
func TestTraceIDInline(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; the budget is gated without it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	reload := func(name string) (count uint64) {
		f, ids := taskFixture(t, 2, 32, 128, WithName(name))
		id := ids[1]
		for i := 0; i < 5; i++ {
			touchTask(t, f, id)
			if _, err := f.rt.SwapOut(id); err != nil {
				t.Fatal(err)
			}
			n, _ := mallocs(func() {
				if _, err := f.rt.SwapIn(id); err != nil {
					t.Fatal(err)
				}
			})
			if i == 2 || i > 2 && n < count { // two warm rounds, then the fewest of three
				count = n
			}
		}
		return count
	}
	short := reload("dev1")
	for _, name := range []string{"dev9999", "dev10000", "dev999999999999"} {
		if n := reload(name); n != short {
			t.Fatalf("a swap-in on device %q allocates %d times, on %q %d", name, n, "dev1", short)
		}
	}
}
