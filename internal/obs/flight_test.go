package obs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRecorderRetainsMostRecentSpans(t *testing.T) {
	r := NewRecorder(4, 4)
	for i := 1; i <= 10; i++ {
		r.RecordSpan(SpanRecord{Op: "swap_out", DurationNS: int64(i)})
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// Most recent first: durations 10, 9, 8, 7.
	for i, want := range []int64{10, 9, 8, 7} {
		if spans[i].DurationNS != want {
			t.Fatalf("spans[%d].DurationNS = %d, want %d", i, spans[i].DurationNS, want)
		}
	}
	if spans[0].Seq <= spans[1].Seq {
		t.Fatalf("seq not monotonic: %d then %d", spans[0].Seq, spans[1].Seq)
	}
	total, _ := r.Totals()
	if total != 10 {
		t.Fatalf("spans_total = %d, want 10", total)
	}
}

func TestRecorderBoundedUnderConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perWorker = 500
		spanCap   = 64
		eventCap  = 32
	)
	r := NewRecorder(spanCap, eventCap)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.RecordSpan(SpanRecord{
					Op:         fmt.Sprintf("op-%d", w),
					DurationNS: int64(i),
					Phases:     []PhaseRecord{{Name: "encode", DurationNS: 1}},
				})
				r.RecordEvent(EventRecord{Topic: "swap.out"})
			}
		}(w)
	}
	wg.Wait()

	if got := len(r.Spans()); got != spanCap {
		t.Fatalf("retained %d spans, want exactly %d", got, spanCap)
	}
	if got := len(r.Events()); got != eventCap {
		t.Fatalf("retained %d events, want exactly %d", got, eventCap)
	}
	spansTotal, eventsTotal := r.Totals()
	if want := uint64(producers * perWorker); spansTotal != want || eventsTotal != want {
		t.Fatalf("totals = (%d, %d), want (%d, %d)", spansTotal, eventsTotal, want, want)
	}
	// Seq strictly decreasing in most-recent-first order.
	spans := r.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq >= spans[i-1].Seq {
			t.Fatalf("seq out of order at %d: %d then %d", i, spans[i-1].Seq, spans[i].Seq)
		}
	}
}

func TestRecorderQueries(t *testing.T) {
	r := NewRecorder(8, 8)
	r.RecordSpan(SpanRecord{Op: "swap_out", Outcome: "ok", DurationNS: 50})
	r.RecordSpan(SpanRecord{Op: "swap_out", Outcome: "error", Error: "ship failed", DurationNS: 900})
	r.RecordSpan(SpanRecord{Op: "swap_in", Outcome: "ok", DurationNS: 200})
	r.RecordSpan(SpanRecord{Op: "swap_in", Outcome: "error", Error: "fetch failed", DurationNS: 10})

	slowest := r.Slowest(2)
	if len(slowest) != 2 || slowest[0].DurationNS != 900 || slowest[1].DurationNS != 200 {
		t.Fatalf("Slowest(2) = %+v", slowest)
	}
	errs := r.RecentErrors(0)
	if len(errs) != 2 || errs[0].Error != "fetch failed" || errs[1].Error != "ship failed" {
		t.Fatalf("RecentErrors = %+v", errs)
	}
	if got := r.RecentErrors(1); len(got) != 1 || got[0].Error != "fetch failed" {
		t.Fatalf("RecentErrors(1) = %+v", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordSpan(SpanRecord{Op: "x"})
	r.RecordEvent(EventRecord{Topic: "y"})
	if r.Spans() != nil || r.Events() != nil || len(r.Slowest(3)) != 0 || len(r.RecentErrors(3)) != 0 {
		t.Fatal("nil recorder returned data")
	}
}

func TestSpanRecordsIntoRecorder(t *testing.T) {
	clock := NewVirtualClock(time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC))
	reg := NewRegistry(clock)
	tr := NewTracer(reg, "objectswap_swap")
	rec := NewRecorder(8, 8)
	tr.SetRecorder(rec)

	var sp Span
	tr.Begin(&sp, "swap_out")
	sp.SetTrace("dev9-00000001")
	sp.SetCluster(5)
	sp.Phase("encode")
	clock.Advance(3 * time.Millisecond)
	sp.AddBytes(1024)
	sp.Phase("ship")
	clock.Advance(7 * time.Millisecond)
	sp.SetDevice("neighbor")
	sp.SetKey("k1")
	sp.End(nil)

	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Op != "swap_out" || s.Trace != "dev9-00000001" || s.Cluster != 5 ||
		s.Device != "neighbor" || s.Key != "k1" || s.Outcome != "ok" {
		t.Fatalf("span labels wrong: %+v", s)
	}
	if s.DurationNS != (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("duration = %d", s.DurationNS)
	}
	if len(s.Phases) != 2 || s.Phases[0].Name != "encode" || s.Phases[0].Bytes != 1024 ||
		s.Phases[0].DurationNS != (3*time.Millisecond).Nanoseconds() {
		t.Fatalf("phases wrong: %+v", s.Phases)
	}

	// A failed span is retained with outcome "error" but does not count as a
	// completed span in the metrics.
	before, _ := reg.Value("objectswap_swap_spans_total", "swap_out")
	var sp2 Span
	tr.Begin(&sp2, "swap_out")
	sp2.Phase("encode")
	clock.Advance(time.Millisecond)
	sp2.Fail(errors.New("device gone"))
	after, _ := reg.Value("objectswap_swap_spans_total", "swap_out")
	if after != before {
		t.Fatalf("failed span counted as completed: %v -> %v", before, after)
	}
	errsRetained := rec.RecentErrors(0)
	if len(errsRetained) != 1 || errsRetained[0].Error != "device gone" {
		t.Fatalf("RecentErrors = %+v", errsRetained)
	}
}

// TestWarmSpanAllocatesOnlyItsPhases: once every ring slot has held a span,
// a traced operation of six phases — the most any swap has — that ends into
// storage of its caller's allocates nothing: the span lives in its
// operation, End copies its phases into the caller's array (a swap
// operation's record), and the recorder copies it into the slot it
// overwrites, reusing that slot's phase and replica arrays.
func TestWarmSpanAllocatesOnlyItsPhases(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	tr := NewTracer(NewRegistry(clock), "objectswap_swap")
	rec := NewRecorder(4, 4)
	tr.SetRecorder(rec)
	names := []string{"reserve", "snapshot", "negotiate", "encode", "ship", "commit"}
	replicas := []string{"donor-a", "donor-b"}
	var sp Span
	var into [6]Phase
	var phases []Phase
	run := func() {
		tr.Begin(&sp, "swap_out")
		sp.SetTrace("dev1-00000001")
		sp.SetReplicas(replicas)
		for _, name := range names {
			sp.Phase(name)
			clock.Advance(time.Microsecond)
			sp.AddBytes(64)
		}
		phases, _ = sp.End(into[:])
	}
	for i := 0; i < 8; i++ { // every slot, and every metric series
		run()
	}
	// Measured: 0 (1, the exact-size phase list, while End made the list it
	// returned).
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a warm six-phase span ending into caller storage allocates %v objects, want 0", allocs)
	}
	if len(phases) != len(names) || &phases[0] != &into[0] || phases[5].Name != "commit" || phases[5].Bytes != 64 {
		t.Fatalf("End returned %+v, want the six phases in the caller's array", phases)
	}
	if got := rec.Spans()[0]; len(got.Phases) != 6 || len(got.Replicas) != 2 || got.Replicas[1] != "donor-b" {
		t.Fatalf("retained %+v, want six phases and both replicas", got)
	}

	// Storage too short for the phases is outgrown, and the result is clipped
	// to its length whatever the storage: appending to it never writes into
	// the caller's spare room.
	short := func() {
		tr.Begin(&sp, "swap_out")
		for _, name := range names {
			sp.Phase(name)
		}
		phases, _ = sp.End(into[:0:3])
	}
	if allocs := testing.AllocsPerRun(100, short); allocs != 1 {
		t.Fatalf("a warm six-phase span ending into three-entry storage allocates %v objects, want 1", allocs)
	}
	tr.Begin(&sp, "swap_out")
	sp.Phase("reserve")
	if phases, _ = sp.End(into[:]); len(phases) != 1 || cap(phases) != 1 {
		t.Fatalf("a one-phase span ended into six entries returned len %d cap %d, want 1 and 1", len(phases), cap(phases))
	}

	// A seventh phase spills past the span's own storage and is kept all the
	// same. The spill costs one allocation, outgrowing the six-entry storage
	// another, and the span, here a local of the measured function as it is a
	// field of a swap operation, stays on the stack.
	long := append(names, "extra")
	var total time.Duration
	spill := func() {
		var sp Span
		tr.Begin(&sp, "long")
		for _, name := range long {
			sp.Phase(name)
			clock.Advance(time.Microsecond)
		}
		phases, total = sp.End(into[:])
	}
	if allocs := testing.AllocsPerRun(100, spill); allocs != 2 {
		t.Fatalf("a warm seven-phase span allocates %v objects, want 2 (the spill and its phase list)", allocs)
	}
	if len(phases) != 7 || phases[6].Name != "extra" || phases[6].Duration != time.Microsecond || total != 7*time.Microsecond {
		t.Fatalf("seven-phase span ended with %+v over %v", phases, total)
	}
}

// TestSpansSurviveSlotReuse: a Spans result is the reader's own. Admissions
// after the read overwrite every ring slot and reuse its phase and replica
// arrays, and what was read stays as it was.
func TestSpansSurviveSlotReuse(t *testing.T) {
	r := NewRecorder(2, 2)
	admit := func(op, replica string, ns int64) {
		r.RecordSpan(SpanRecord{Op: op, Replicas: []string{replica},
			Phases: []PhaseRecord{{Name: op + ".a", DurationNS: ns}, {Name: op + ".b", DurationNS: ns + 1}}})
	}
	admit("first", "d1", 10)
	admit("second", "d2", 20)
	read := r.Spans()
	for i := 0; i < 4; i++ {
		admit("later", "dx", 99)
	}
	for i, want := range []struct {
		op, replica string
		ns          int64
	}{{"second", "d2", 20}, {"first", "d1", 10}} {
		s := read[i]
		if s.Op != want.op || len(s.Replicas) != 1 || s.Replicas[0] != want.replica ||
			len(s.Phases) != 2 || s.Phases[0].Name != want.op+".a" || s.Phases[1].DurationNS != want.ns+1 {
			t.Fatalf("span %d read before later admissions now reads %+v, want %s on %s", i, s, want.op, want.replica)
		}
	}
	// Appending to one read span's slices cannot reach its neighbour's.
	read[0].Phases = append(read[0].Phases, PhaseRecord{Name: "appended"})
	read[0].Replicas = append(read[0].Replicas, "appended")
	if read[1].Phases[0].Name != "first.a" || read[1].Replicas[0] != "d1" {
		t.Fatalf("append to one read span changed the next: %+v", read[1])
	}
}
