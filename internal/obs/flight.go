package obs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"
)

// Flight-recorder retention defaults, used when NewRecorder is given
// non-positive capacities.
const (
	DefaultFlightSpans  = 256
	DefaultFlightEvents = 512
)

// PhaseRecord is one phase of a retained span, with wire-stable JSON names.
type PhaseRecord struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
	Bytes      int64  `json:"bytes,omitempty"`
}

// SpanRecord is one completed operation span retained by the Recorder: the
// paper's swap pipeline phases plus the correlation labels an operator needs
// after the fact (trace ID, device, cluster, storage key, outcome).
type SpanRecord struct {
	// Seq is the recorder-wide admission sequence number (1, 2, 3, ...).
	Seq uint64 `json:"seq"`
	// Op names the operation ("swap_out", "swap_in", "store.put", ...).
	Op string `json:"op"`
	// Trace is the cross-device trace ID carried in X-Obiswap-Trace.
	Trace string `json:"trace,omitempty"`
	// Device is the nearby device the operation talked to, when known.
	Device string `json:"device,omitempty"`
	// Cluster is the swap-cluster involved (0 = not a cluster operation;
	// swap-cluster-0 itself is never swapped, so 0 is unambiguous here).
	Cluster uint32 `json:"cluster,omitempty"`
	// Key is the storage key shipped or fetched, when known.
	Key string `json:"key,omitempty"`
	// Replicas is the replica set holding the shipment (primary first), for
	// replicated placements.
	Replicas []string `json:"replicas,omitempty"`
	// Format is the negotiated wire format the payload moved in, when known.
	Format string `json:"format,omitempty"`
	// Outcome is "ok" or "error".
	Outcome string `json:"outcome"`
	// Error is the failure text for Outcome == "error".
	Error string `json:"error,omitempty"`
	// Start is the span's start time on the registry clock.
	Start time.Time `json:"start"`
	// DurationNS is the whole-operation duration in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Phases is the per-phase breakdown in execution order.
	Phases []PhaseRecord `json:"phases,omitempty"`
}

// EventRecord is one bus publication retained by the Recorder.
type EventRecord struct {
	// Seq is the recorder-wide admission sequence number.
	Seq uint64 `json:"seq"`
	// BusSeq is the bus's own publication sequence number.
	BusSeq uint64 `json:"bus_seq,omitempty"`
	// Topic is the event topic.
	Topic string `json:"topic"`
	// At is the publication time stamped by the bus clock.
	At time.Time `json:"at"`
	// Detail is a bounded rendering of the payload. A record admitted with a
	// Payload instead gets its Detail when the ring is read.
	Detail string `json:"detail,omitempty"`
	// Payload is the published payload, retained so that rendering it costs
	// nothing unless somebody reads the ring. Only values are retained (a
	// string, a struct passed by value): a payload the publisher could still
	// change through a pointer, map or slice is rendered on admission.
	Payload any `json:"-"`
}

// detailMax bounds the rendering of a payload.
const detailMax = 160

// renderDetail flattens a payload for retention, truncated to detailMax
// bytes.
func renderDetail(p any) string {
	s := fmt.Sprintf("%+v", p)
	if len(s) > detailMax {
		s = s[:detailMax] + "..."
	}
	return s
}

// mutableAfterPublish reports whether the publisher could still change what
// p shows after handing it over.
func mutableAfterPublish(p any) bool {
	switch reflect.TypeOf(p).Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	}
	return false
}

// Recorder is the middleware's flight recorder: two bounded ring buffers
// retaining the last N completed spans and the last M bus events, always on,
// so a post-incident look-back ("what were the slowest swaps?", "what failed
// right before the breaker opened?") needs no pre-enabled tooling.
//
// Appends are constant-time under one short mutex hold (no allocation once
// the rings are warm), cheap enough to sit on every swap and every bus
// publication. A nil Recorder is valid and records nothing.
type Recorder struct {
	mu  sync.Mutex
	seq uint64

	spans    []SpanRecord // ring storage, len == capacity
	spanLen  int          // valid entries
	spanPos  int          // next write slot
	events   []EventRecord
	eventLen int
	eventPos int

	spansTotal  uint64 // spans ever admitted (retained + overwritten)
	eventsTotal uint64

	// Drop counters: admissions that overwrote a retained entry because the
	// ring was already full. A nonzero rate means the ring is undersized
	// for the retention window scrape-side tooling expects.
	spanDrops  uint64
	eventDrops uint64
}

// NewRecorder returns a flight recorder retaining the last spanCap spans and
// eventCap events (non-positive values select the defaults).
func NewRecorder(spanCap, eventCap int) *Recorder {
	if spanCap <= 0 {
		spanCap = DefaultFlightSpans
	}
	if eventCap <= 0 {
		eventCap = DefaultFlightEvents
	}
	return &Recorder{
		spans:  make([]SpanRecord, spanCap),
		events: make([]EventRecord, eventCap),
	}
}

// RecordSpan admits one completed span, assigning its Seq. The oldest
// retained span is overwritten once the ring is full. The recorder keeps
// copies of s.Phases and s.Replicas, in the storage of the slot it writes.
func (r *Recorder) RecordSpan(s SpanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	slot := r.nextSpan()
	phases, replicas := slot.Phases[:0], slot.Replicas[:0]
	s.Seq = slot.Seq
	*slot = s
	slot.Phases = append(phases, s.Phases...)
	slot.Replicas = append(replicas, s.Replicas...)
	r.mu.Unlock()
}

// nextSpan claims the ring slot of the next admission, with its Seq set and
// its previous contents, whose slices the admission reuses, still in place.
// The caller holds r.mu.
func (r *Recorder) nextSpan() *SpanRecord {
	r.seq++
	if r.spanLen == len(r.spans) {
		r.spanDrops++
	}
	slot := &r.spans[r.spanPos]
	slot.Seq = r.seq
	r.spanPos = (r.spanPos + 1) % len(r.spans)
	if r.spanLen < len(r.spans) {
		r.spanLen++
	}
	r.spansTotal++
	return slot
}

// RecordEvent admits one bus event, assigning its Seq.
func (r *Recorder) RecordEvent(e EventRecord) {
	if r == nil {
		return
	}
	if e.Payload != nil && mutableAfterPublish(e.Payload) {
		e.Detail, e.Payload = renderDetail(e.Payload), nil
	}
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	if r.eventLen == len(r.events) {
		r.eventDrops++
	}
	r.events[r.eventPos] = e
	r.eventPos = (r.eventPos + 1) % len(r.events)
	if r.eventLen < len(r.events) {
		r.eventLen++
	}
	r.eventsTotal++
	r.mu.Unlock()
}

// Spans copies the retained spans, most recent first. The copies share no
// storage with the ring, so later admissions, which reuse a slot's phase and
// replica arrays, leave them as they were.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var nPhases, nReplicas int
	for i := 0; i < r.spanLen; i++ {
		nPhases += len(r.spans[i].Phases)
		nReplicas += len(r.spans[i].Replicas)
	}
	out := make([]SpanRecord, 0, r.spanLen)
	phases := make([]PhaseRecord, 0, nPhases)
	replicas := make([]string, 0, nReplicas)
	for i := 0; i < r.spanLen; i++ {
		s := r.spans[(r.spanPos-1-i+len(r.spans))%len(r.spans)]
		s.Phases, phases = carve(phases, s.Phases)
		s.Replicas, replicas = carve(replicas, s.Replicas)
		out = append(out, s)
	}
	return out
}

// carve copies src onto the end of arena and returns the copy, capped so
// that appending to it cannot reach the next one, and the grown arena. An
// empty src copies to nil.
func carve[T any](arena, src []T) (dst, grown []T) {
	if len(src) == 0 {
		return nil, arena
	}
	at := len(arena)
	arena = append(arena, src...)
	return arena[at:len(arena):len(arena)], arena
}

// Events copies the retained bus events, most recent first, rendering the
// Detail of those admitted with a Payload.
func (r *Recorder) Events() []EventRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]EventRecord, 0, r.eventLen)
	for i := 0; i < r.eventLen; i++ {
		idx := (r.eventPos - 1 - i + len(r.events)) % len(r.events)
		out = append(out, r.events[idx])
	}
	r.mu.Unlock()
	for i := range out {
		if e := &out[i]; e.Payload != nil {
			e.Detail, e.Payload = renderDetail(e.Payload), nil
		}
	}
	return out
}

// Slowest returns up to n retained spans ordered by duration descending
// (ties broken by admission order, oldest first). n <= 0 returns all retained
// spans in that order.
func (r *Recorder) Slowest(n int) []SpanRecord {
	spans := r.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].DurationNS != spans[j].DurationNS {
			return spans[i].DurationNS > spans[j].DurationNS
		}
		return spans[i].Seq < spans[j].Seq
	})
	if n > 0 && n < len(spans) {
		spans = spans[:n]
	}
	return spans
}

// RecentErrors returns up to n retained spans whose outcome is "error", most
// recent first. n <= 0 returns all retained error spans.
func (r *Recorder) RecentErrors(n int) []SpanRecord {
	var out []SpanRecord
	for _, s := range r.Spans() {
		if s.Outcome != "error" {
			continue
		}
		out = append(out, s)
		if n > 0 && len(out) == n {
			break
		}
	}
	return out
}

// Totals reports how many spans and events have ever been admitted
// (including entries already overwritten).
func (r *Recorder) Totals() (spans, events uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spansTotal, r.eventsTotal
}

// dropped reports how many admissions overwrote a retained span or event
// because the corresponding ring was full.
func (r *Recorder) dropped() (spans, events uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spanDrops, r.eventDrops
}

// Instrument exposes the recorder's ring-overwrite counters in reg as
// objectswap_flight_dropped_total{kind}, so scrape-side tooling can detect
// undersized rings without diffing Totals against retained counts.
func (r *Recorder) Instrument(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	dropped := reg.CounterVec("objectswap_flight_dropped_total",
		"Flight-recorder ring overwrites (oldest retained entry lost) by kind.",
		"kind")
	dropped.WithFunc(func() float64 { s, _ := r.dropped(); return float64(s) }, "span")
	dropped.WithFunc(func() float64 { _, e := r.dropped(); return float64(e) }, "event")
}
