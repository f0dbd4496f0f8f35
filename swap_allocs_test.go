package objectswap

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// chainCluster builds one cluster of n Task objects chained through "next",
// each titled with titleBytes bytes, rooted at "head".
func chainCluster(t *testing.T, sys *System, n, titleBytes int) ClusterID {
	t.Helper()
	cls := sys.MustRegisterClass(taskClass())
	id := sys.NewCluster()
	var prev *heap.Object
	for i := 0; i < n; i++ {
		o, err := sys.NewObject(cls, id)
		if err != nil {
			t.Fatal(err)
		}
		head := fmt.Sprintf("o%d|", i)
		if err := sys.SetField(o.RefTo(), "title", heap.Str(head+strings.Repeat("x", titleBytes-len(head)))); err != nil {
			t.Fatal(err)
		}
		if prev == nil {
			err = sys.SetRoot("head", o.RefTo())
		} else {
			err = sys.SetField(prev.RefTo(), "next", o.RefTo())
		}
		if err != nil {
			t.Fatal(err)
		}
		prev = o
	}
	return id
}

// TestFacadeSwapRoundTripAllocs pins what one clean swap-out and the swap-in
// after it allocate through the facade, with everything a System switches on
// by default in the path: the bus with the policy engine and the transport
// metrics subscribed, the flight recorder retaining spans and events, and the
// telemetry plane. One counting subscriber and one in-memory donor are added.
// A cluster of 32 objects x 128 B is shipped once; from then on every
// swap-out leaves on the copy the donor kept. check.sh runs it by name:
// allocation counts do not depend on the host's speed.
func TestFacadeSwapRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; the budget is gated without it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("donor", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	count := func(event.Event) { delivered++ }
	sys.Bus().Subscribe(event.TopicSwapOut, count)
	sys.Bus().Subscribe(event.TopicSwapIn, count)
	id := chainCluster(t, sys, 32, 128)

	shipped := false
	roundTrip := func() {
		ev, err := sys.SwapOut(id)
		if err != nil {
			t.Fatal(err)
		}
		if shipped && !ev.Clean {
			t.Fatalf("swap-out of an unwritten cluster shipped: %+v", ev)
		}
		shipped = true
		if _, err := sys.SwapIn(id); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: the shipment, the pools, the metric series, and every slot of the
	// flight recorder's span ring, each of which sizes its phase and replica
	// arrays once.
	for i := 0; i < obs.DefaultFlightSpans/2+2; i++ {
		roundTrip()
	}
	const rounds = 20
	before := delivered
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&m1)
	if got := delivered - before; got != 2*rounds {
		t.Fatalf("subscriber saw %d swap events in %d round trips, want %d", got, rounds, 2*rounds)
	}
	allocs := float64(m1.Mallocs-m0.Mallocs) / rounds
	t.Logf("one clean round trip through the facade allocates %.1f objects, %.0f B",
		allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/rounds)
	// Measured: 7 objects, 10 272 B (8 and 10 432 B while every swap-out
	// allocated its replacement-object's block; 12 and 10 432 B while each
	// swap's trace id, its context and its event's phase list were three
	// allocations; 14
	// and 15 552 B while the decoder copied the frame's string section and the
	// Installer returned the list of the objects it installed; 25 and
	// 17 664 B while the fault's flight and its channel, the SwapEvent boxed
	// as the flight's result, the transport's per-attempt timeout, the
	// Installer and its deferred-field list, the swap-out's own struct and the
	// trace id's box in its context were allocated per swap; 53 and 19 352 B
	// while every span grew its phase list by appending, was copied again into
	// the flight recorder with its replica set, took its trace id from
	// fmt.Sprintf and every publication sorted and copied its subscribers).
	// What is left, and why each one outlives the swap:
	// - in each direction, 2: the operation's record — its trace id's bytes,
	//   the context carrying the id (handed to the stores, the logger and the
	//   bus's subscribers, who may keep it) and the SwapEvent's phase list,
	//   never pooled or reused — and the SwapEvent boxed for the bus (the
	//   flight recorder and the subscribers keep both; on the swap-in the same
	//   box is the fault's result);
	// - the swap-in's donor copy of the payload (store.Store hands every Get
	//   a slice of the caller's own: the store allocates it, and the swap-in
	//   hands it over as the storage of the strings it installs) and the
	//   heap.Batch's header array and field slab (the installed objects
	//   themselves).
	// The swap-out's replacement-object allocates nothing: it is the block
	// the previous swap-in retired, which the heap's pool reissues under a
	// fresh id.
	// The count is process-wide, so the budget leaves one for a stray
	// allocation elsewhere in the process.
	const measured, stray = 7, 1
	if allocs > measured+stray {
		t.Fatalf("one clean swap round trip through the facade allocates %.1f objects, budget is %d", allocs, measured+stray)
	}
}

// TestSwapEventSlicesOutliveLaterSwaps: the phases a span records live in
// its operation's own struct, and the flight recorder copies a finished span
// into a ring slot whose phase and replica arrays the next admissions reuse.
// Neither store may be what a SwapEvent or a recorder read hands out. So the
// Phases and Replicas of one swap-out and one swap-in must read the same, ten
// swaps later — after the four-span ring has been overwritten twice — in the
// SwapEvent SwapOut and SwapIn returned, in the copy the bus delivered (the
// very payload the flight recorder retains as its event: a struct payload is
// kept unrendered, without a look inside its slices), and in the span the
// flight recorder retained, as Spans read it then.
func TestSwapEventSlicesOutliveLaterSwaps(t *testing.T) {
	sys, err := New(Config{FlightSpans: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("donor", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	var delivered []SwapEvent
	keep := func(ev event.Event) { delivered = append(delivered, ev.Payload.(SwapEvent)) }
	sys.Bus().Subscribe(event.TopicSwapOut, keep)
	sys.Bus().Subscribe(event.TopicSwapIn, keep)
	id := chainCluster(t, sys, 4, 16)

	out, err := sys.SwapOut(id)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.SwapIn(id)
	if err != nil {
		t.Fatal(err)
	}
	retained := sys.recorder.Spans() // most recent first: the swap-in, then the swap-out
	if len(delivered) != 2 || len(retained) != 2 {
		t.Fatalf("bus delivered %d swap events and the recorder retained %d spans, want 2 and 2",
			len(delivered), len(retained))
	}
	returned := []SwapEvent{out, in}
	spans := []obs.SpanRecord{retained[1], retained[0]}
	type reading struct {
		phases   []obs.Phase
		replicas []string
	}
	read := func(ev SwapEvent) reading { return reading{slices.Clone(ev.Phases), slices.Clone(ev.Replicas)} }
	want := []reading{read(out), read(in)}
	for i := range want {
		if len(want[i].phases) == 0 || len(want[i].replicas) != 1 {
			t.Fatalf("%s: phases %v, replicas %v; want phases and one replica", spans[i].Op, want[i].phases, want[i].replicas)
		}
	}

	for i := 0; i < 5; i++ {
		if _, err := sys.SwapOut(id); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.SwapIn(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(delivered); got != 12 {
		t.Fatalf("bus delivered %d swap events, want 12", got)
	}
	for i, w := range want {
		for where, got := range map[string]reading{
			"returned":  read(returned[i]),
			"delivered": read(delivered[i]),
		} {
			if !slices.Equal(got.phases, w.phases) || !slices.Equal(got.replicas, w.replicas) {
				t.Fatalf("%s event %d changed after later swaps: %+v / %v, was %+v / %v",
					where, i, got.phases, got.replicas, w.phases, w.replicas)
			}
		}
		sp := spans[i]
		if !slices.Equal(sp.Replicas, w.replicas) || len(sp.Phases) != len(w.phases) {
			t.Fatalf("retained %s span changed after later swaps: %+v / %v, want %+v / %v",
				sp.Op, sp.Phases, sp.Replicas, w.phases, w.replicas)
		}
		for j, p := range sp.Phases {
			if q := w.phases[j]; p.Name != q.Name || p.DurationNS != q.Duration.Nanoseconds() || p.Bytes != q.Bytes {
				t.Fatalf("retained %s span phase %d reads %+v after later swaps, want %+v", sp.Op, j, p, q)
			}
		}
	}
}

// keeper is a donor that keeps the context of its first Put and of its first
// Get. It asks each for Done first, which is what lets a store keep its
// context past its return (store.Store).
type keeper struct {
	*store.Mem
	put, get context.Context
}

func (k *keeper) PutEnvelope(ctx context.Context, key string, data []byte, opts store.PutOpts) error {
	k.keep(&k.put, ctx)
	return k.Mem.PutEnvelope(ctx, key, data, opts)
}

func (k *keeper) Put(ctx context.Context, key string, data []byte) error {
	k.keep(&k.put, ctx)
	return k.Mem.Put(ctx, key, data)
}

func (k *keeper) GetEnvelope(ctx context.Context, key string) ([]byte, store.PutOpts, error) {
	k.keep(&k.get, ctx)
	return k.Mem.GetEnvelope(ctx, key)
}

func (k *keeper) Get(ctx context.Context, key string) ([]byte, error) {
	k.keep(&k.get, ctx)
	return k.Mem.Get(ctx, key)
}

func (k *keeper) keep(slot *context.Context, ctx context.Context) {
	if *slot == nil {
		ctx.Done() // asking for Done is what lets a store keep its context
		*slot = ctx
	}
}

// TestSwapRecordOutlivesLaterSwaps: a swap's trace id, the context carrying
// it and its SwapEvent's phase list are one record, which nothing pools or
// reuses. So what one swap-out and the swap-in after it handed out — the
// events' Trace and Phases, and the contexts a donor kept from the Put and
// the Get — reads the same after ten later swaps, shipping and clean, and
// three collections, and each kept context still carries its event's trace.
func TestSwapRecordOutlivesLaterSwaps(t *testing.T) {
	sys, err := New(Config{FlightSpans: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	donor := &keeper{Mem: store.NewMem(0)}
	if err := sys.AttachDevice("donor", donor); err != nil {
		t.Fatal(err)
	}
	id := chainCluster(t, sys, 4, 16)

	out, err := sys.SwapOut(id)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.SwapIn(id)
	if err != nil {
		t.Fatal(err)
	}
	if donor.put == nil || donor.get == nil {
		t.Fatal("the donor saw no Put or no Get")
	}
	type reading struct {
		trace, ctxTrace string
		phases          []obs.Phase
	}
	read := func(ev SwapEvent, kept context.Context) reading {
		return reading{strings.Clone(ev.Trace), strings.Clone(obs.TraceFrom(kept)), slices.Clone(ev.Phases)}
	}
	want := []reading{read(out, donor.put), read(in, donor.get)}
	for _, w := range want {
		if w.trace == "" || w.ctxTrace != w.trace || len(w.phases) == 0 {
			t.Fatalf("before later swaps: event trace %q, kept context's %q, phases %v", w.trace, w.ctxTrace, w.phases)
		}
	}

	head, _ := sys.Root("head")
	for i := 0; i < 5; i++ {
		if i%2 == 0 { // a write: the next swap-out ships
			if err := sys.SetField(head, "title", heap.Str(fmt.Sprintf("rewritten %d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.SwapOut(id); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.SwapIn(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	for i, got := range []reading{read(out, donor.put), read(in, donor.get)} {
		if w := want[i]; got.trace != w.trace || got.ctxTrace != w.trace || !slices.Equal(got.phases, w.phases) {
			t.Fatalf("swap %d after later swaps: trace %q, kept context's %q, phases %+v; was %q, %q, %+v",
				i, got.trace, got.ctxTrace, got.phases, w.trace, w.ctxTrace, w.phases)
		}
	}
}
