package obs

import (
	"strings"
	"testing"
	"time"
)

// Golden test for label-value escaping in the text exposition format: only
// backslash, double-quote and newline may be escaped (as \\, \" and \n);
// every other byte — including tabs — must pass through verbatim. Go's %q
// would emit \t and \xNN sequences the format does not define.
func TestExpositionLabelEscaping(t *testing.T) {
	r := NewRegistry(NewVirtualClock(time.Unix(0, 0)))
	v := r.GaugeVec("escape_test", "escaping probe", "val")
	v.With(`quote"inside`).Set(1)
	v.With(`back\slash`).Set(2)
	v.With("new\nline").Set(3)
	v.With("tab\there").Set(4)

	var b strings.Builder
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "# HELP escape_test escaping probe\n" +
		"# TYPE escape_test gauge\n" +
		"escape_test{val=\"back\\\\slash\"} 2\n" +
		"escape_test{val=\"new\\nline\"} 3\n" +
		"escape_test{val=\"quote\\\"inside\"} 1\n" +
		"escape_test{val=\"tab\there\"} 4\n"
	if got != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", got, want)
	}
}

// The flight recorder counts ring overwrites per kind and exposes them via
// Instrument as objectswap_flight_dropped_total{kind}.
func TestRecorderDropCounters(t *testing.T) {
	rec := NewRecorder(3, 2)
	for i := 0; i < 5; i++ {
		rec.RecordSpan(SpanRecord{Op: "s"})
	}
	for i := 0; i < 2; i++ {
		rec.RecordEvent(EventRecord{Topic: "e"})
	}
	spans, events := rec.dropped()
	if spans != 2 || events != 0 {
		t.Fatalf("dropped() = %d,%d, want 2,0 (5 spans into cap 3, 2 events into cap 2)", spans, events)
	}
	rec.RecordEvent(EventRecord{Topic: "e"})
	if _, events = rec.dropped(); events != 1 {
		t.Fatalf("event drops = %d, want 1", events)
	}

	reg := NewRegistry(NewVirtualClock(time.Unix(0, 0)))
	rec.Instrument(reg)
	if v, ok := reg.Value("objectswap_flight_dropped_total", "span"); !ok || v != 2 {
		t.Fatalf("dropped{span} = %v,%v, want 2", v, ok)
	}
	if v, _ := reg.Value("objectswap_flight_dropped_total", "event"); v != 1 {
		t.Fatalf("dropped{event} = %v, want 1", v)
	}

	var nilRec *Recorder
	if s, e := nilRec.dropped(); s != 0 || e != 0 {
		t.Fatal("nil recorder reports drops")
	}
	nilRec.Instrument(reg) // must not panic
}
