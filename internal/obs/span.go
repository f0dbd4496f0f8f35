package obs

import (
	"slices"
	"time"
)

// Phase is one timed segment of a traced operation, with an optional byte
// count attributed to it (encode output, shipment payload, fetch size).
type Phase struct {
	Name     string
	Duration time.Duration
	Bytes    int64
}

// Tracer mints per-operation spans and folds their phase timings into the
// registry: one histogram of whole-operation durations per op, one histogram
// of per-phase durations per (op, phase), and byte counters per (op, phase).
// With a Recorder attached (SetRecorder), every finished span — successful or
// failed — is additionally retained in the flight recorder with its labels.
// A nil Tracer is valid and records nothing.
type Tracer struct {
	clock        Clock
	spans        *CounterVec
	seconds      *HistogramVec
	phaseSeconds *HistogramVec
	phaseBytes   *CounterVec
	recorder     *Recorder
}

// SetRecorder retains finished spans in rec (nil detaches).
func (t *Tracer) SetRecorder(rec *Recorder) {
	if t != nil {
		t.recorder = rec
	}
}

// NewTracer registers the span instruments under the given metric prefix
// (e.g. "objectswap_swap" yields objectswap_swap_spans_total,
// objectswap_swap_seconds, objectswap_swap_phase_seconds,
// objectswap_swap_phase_bytes_total).
func NewTracer(r *Registry, prefix string) *Tracer {
	return &Tracer{
		clock: r.Clock(),
		spans: r.CounterVec(prefix+"_spans_total",
			"Completed operation spans by operation.", "op"),
		seconds: r.HistogramVec(prefix+"_seconds",
			"Whole-operation duration by operation.", nil, "op"),
		phaseSeconds: r.HistogramVec(prefix+"_phase_seconds",
			"Per-phase duration by operation and phase.", nil, "op", "phase"),
		phaseBytes: r.CounterVec(prefix+"_phase_bytes_total",
			"Bytes handled per operation phase.", "op", "phase"),
	}
}

// inlinePhases is how many phases a Span holds without allocating: no swap
// operation has more (a shipping swap-out runs reserve, snapshot, negotiate,
// encode, ship and commit), and a longer span spills to a slice.
const inlinePhases = 6

// Span is one in-flight traced operation. Phases are sequential: starting a
// phase closes the previous one. A Span is a value its operation owns and
// Tracer.Begin opens in place; a zero Span, or one opened by a nil Tracer,
// records nothing.
type Span struct {
	t          *Tracer
	op         string
	start      time.Time
	phaseStart time.Time
	open       bool
	n          int                 // phases started
	inline     [inlinePhases]Phase // the first phases, in order
	spill      []Phase             // every phase, once there are more than inline holds

	// Correlation labels retained by the flight recorder.
	trace    string
	device   string
	cluster  uint32
	key      string
	replicas []string
	format   string
}

// SetTrace labels the span with a cross-device trace ID.
func (s *Span) SetTrace(id string) { s.trace = id }

// Trace returns the span's trace ID.
func (s *Span) Trace() string { return s.trace }

// SetDevice labels the span with the nearby device it talked to.
func (s *Span) SetDevice(name string) { s.device = name }

// SetCluster labels the span with the swap-cluster it moved.
func (s *Span) SetCluster(c uint32) { s.cluster = c }

// SetKey labels the span with the storage key it shipped or fetched.
func (s *Span) SetKey(k string) { s.key = k }

// SetFormat labels the span with the negotiated wire format the payload
// moved in.
func (s *Span) SetFormat(format string) { s.format = format }

// SetReplicas labels the span with the replica set holding the shipment
// (primary first). The span keeps devices, not a copy, until it ends: the
// caller replaces a replica set wholesale and never edits one in place.
func (s *Span) SetReplicas(devices []string) { s.replicas = devices }

// Begin opens s for the named operation, discarding whatever it held.
func (t *Tracer) Begin(s *Span, op string) {
	*s = Span{t: t, op: op}
	if t != nil {
		s.start = t.clock.Now()
		s.phaseStart = s.start
	}
}

// phases returns the phases so far, in order; the slice is the span's own
// storage.
func (s *Span) phases() []Phase {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// Phase closes the current phase (if any) and opens the named one.
func (s *Span) Phase(name string) {
	if s.t == nil {
		return
	}
	now := s.t.clock.Now()
	s.closePhase(now)
	p := Phase{Name: name}
	switch {
	case s.spill != nil:
		s.spill = append(s.spill, p)
	case s.n < inlinePhases:
		s.inline[s.n] = p
	default:
		// copy, not append(s.inline[:], p): escape analysis takes a slice
		// of s.inline stored in s for s escaping, and would move every Span,
		// and the operation holding it, to the heap.
		s.spill = make([]Phase, inlinePhases, 2*inlinePhases)
		copy(s.spill, s.inline[:])
		s.spill = append(s.spill, p)
	}
	s.n++
	s.phaseStart = now
	s.open = true
}

// AddBytes attributes n bytes to the current phase.
func (s *Span) AddBytes(n int64) {
	if !s.open || n <= 0 {
		return
	}
	s.phases()[s.n-1].Bytes += n
}

func (s *Span) closePhase(now time.Time) {
	if !s.open {
		return
	}
	s.phases()[s.n-1].Duration = now.Sub(s.phaseStart)
	s.open = false
}

// End closes the span, records every phase into the tracer's instruments,
// retains it in the flight recorder (outcome "ok"), and returns the phase
// breakdown plus the whole-operation duration (for attachment to an event
// payload). The breakdown is copied into the caller's storage, into[:0], and
// clipped to its length; End allocates only when into is too short for it.
// A swap operation passes the phase array of its record, sized to the phases
// it records.
func (s *Span) End(into []Phase) ([]Phase, time.Duration) {
	if s.t == nil {
		return nil, 0
	}
	now := s.t.clock.Now()
	s.closePhase(now)
	total := now.Sub(s.start)
	phases := s.phases()
	s.t.spans.With(s.op).Inc()
	s.t.seconds.With(s.op).Observe(total.Seconds())
	for _, p := range phases {
		s.t.phaseSeconds.With(s.op, p.Name).Observe(p.Duration.Seconds())
		if p.Bytes > 0 {
			s.t.phaseBytes.With(s.op, p.Name).Add(float64(p.Bytes))
		}
	}
	s.record("ok", "", total)
	if len(phases) == 0 {
		return nil, total
	}
	return slices.Clip(append(into[:0], phases...)), total
}

// Fail closes the span with outcome "error" and retains it in the flight
// recorder. Failed spans do not feed the duration histograms — error counting
// lives in dedicated counters — but their partial phase breakdown is exactly
// what a post-incident look-back needs ("it died mid-ship after 9.8s").
func (s *Span) Fail(err error) {
	if s.t == nil {
		return
	}
	now := s.t.clock.Now()
	s.closePhase(now)
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	s.record("error", detail, now.Sub(s.start))
}

// record retains the finished span in the tracer's flight recorder, if any,
// copying it into the ring slot it overwrites.
func (s *Span) record(outcome, errDetail string, total time.Duration) {
	rec := s.t.recorder
	if rec == nil {
		return
	}
	rec.mu.Lock()
	slot := rec.nextSpan()
	phases := slot.Phases[:0]
	if n := s.n; cap(phases) < n {
		phases = make([]PhaseRecord, 0, max(n, inlinePhases)) // once per slot
	}
	for _, p := range s.phases() {
		phases = append(phases, PhaseRecord{Name: p.Name, DurationNS: p.Duration.Nanoseconds(), Bytes: p.Bytes})
	}
	*slot = SpanRecord{
		Seq:        slot.Seq,
		Op:         s.op,
		Trace:      s.trace,
		Device:     s.device,
		Cluster:    s.cluster,
		Key:        s.key,
		Replicas:   append(slot.Replicas[:0], s.replicas...),
		Format:     s.format,
		Outcome:    outcome,
		Error:      errDetail,
		Start:      s.start,
		DurationNS: total.Nanoseconds(),
		Phases:     phases,
	}
	rec.mu.Unlock()
}
