package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

// The metric kinds of the registry.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in the exposition format.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// DefaultBuckets are the fixed deterministic upper bounds (seconds) used for
// duration histograms when the caller does not supply bounds. They span the
// microsecond-to-tens-of-seconds range a swap operation can occupy, from
// in-process encoding to a stalled Bluetooth-class shipment.
var DefaultBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are fixed deterministic upper bounds (bytes) for payload-size
// histograms.
var SizeBuckets = []float64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20,
}

// atomicFloat is a lock-free float64 cell.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) store(v float64) {
	a.bits.Store(math.Float64bits(v))
}
func (a *atomicFloat) add(delta float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n. Negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(n float64) {
	if c == nil || n < 0 {
		return
	}
	c.v.add(n)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.v.add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

// Histogram counts observations into fixed buckets and tracks their sum.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1, last is +Inf
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistogramSnapshot is a histogram's state at a point in time.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending
	Counts []uint64  // per-bucket counts; one extra trailing +Inf bucket
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: h.bounds, // bounds are immutable after construction
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
	return s
}

// series is one labeled instance within a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() float64 // callback instruments (scrape-time read)
}

// family groups the series of one metric name.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	bounds     []float64
	isFunc     bool

	mu     sync.Mutex
	series map[string]*series
}

const labelSep = "\x1f"

func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	// The key is built on the stack and only becomes a string when a new
	// series is stored: a hit — every call but the first per label set, on
	// the swap path's counters — allocates nothing.
	var buf [128]byte
	key := buf[:0]
	for i, v := range labelValues {
		if i > 0 {
			key = append(key, labelSep...)
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[string(key)]
	if s == nil {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		switch f.kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = &Histogram{
				bounds: f.bounds,
				counts: make([]uint64, len(f.bounds)+1),
			}
		}
		f.series[string(key)] = s
	}
	return s
}

// bindFunc installs (or replaces) a callback series under the family lock so
// a concurrent Gather never observes a half-initialized series.
func (f *family) bindFunc(labelValues []string, fn func() float64) {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		f.series[key] = s
	}
	s.fn = fn
}

// Registry holds the metric families of one middleware instance. Construct
// with NewRegistry; instruments registered under the same name are shared
// (re-registration returns the existing instrument).
type Registry struct {
	clock Clock

	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry whose timed helpers use clock
// (nil = RealClock).
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = RealClock{}
	}
	return &Registry{clock: clock, families: make(map[string]*family)}
}

// Clock returns the registry's time source.
func (r *Registry) Clock() Clock { return r.clock }

// family registers (or returns) the named family, enforcing a consistent
// shape across registrations.
func (r *Registry) family(name, help string, kind Kind, labelNames []string, bounds []float64, isFunc bool) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name:       name,
			help:       help,
			kind:       kind,
			labelNames: append([]string(nil), labelNames...),
			bounds:     append([]float64(nil), bounds...),
			isFunc:     isFunc,
			series:     make(map[string]*series),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labelNames) != len(labelNames) || f.isFunc != isFunc {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
	}
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil, false).get(nil).counter
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, labelNames, nil, false)}
}

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues).counter
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil, false).get(nil).gauge
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, labelNames, nil, false)}
}

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues).gauge
}

// WithFunc installs a callback gauge series for the given label values: fn is
// read at gather time instead of a stored value.
func (v *GaugeVec) WithFunc(fn func() float64, labelValues ...string) {
	if v == nil || fn == nil {
		return
	}
	v.f.bindFunc(labelValues, fn)
}

// WithFunc installs a callback counter series for the given label values (fn
// must be monotonic).
func (v *CounterVec) WithFunc(fn func() float64, labelValues ...string) {
	if v == nil || fn == nil {
		return
	}
	v.f.bindFunc(labelValues, fn)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// the natural fit for state another module already tracks (heap occupancy,
// reachable-device count).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, KindGauge, nil, nil, true).bindFunc(nil, fn)
}

// Histogram registers (or returns) an unlabeled histogram with the given
// bucket bounds (nil = DefaultBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	return r.family(name, help, KindHistogram, nil, bounds, false).get(nil).hist
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family with the
// given bucket bounds (nil = DefaultBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	return &HistogramVec{f: r.family(name, help, KindHistogram, labelNames, bounds, false)}
}

// With returns the histogram for the given label values (created on first
// use).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues).hist
}

// Label is one name=value pair of a series.
type Label struct {
	Name  string
	Value string
}

// Point is one series' state within a family snapshot.
type Point struct {
	Labels []Label
	Value  float64            // counters and gauges
	Hist   *HistogramSnapshot // histograms only
}

// FamilySnapshot is one metric family's state at gather time.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Points []Point
}

// Gather snapshots every registered family in deterministic order (family
// names ascending, series by label values ascending). Callback instruments
// are read at this moment.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		for _, k := range keys {
			s := f.series[k]
			p := Point{}
			for i, lv := range s.labelValues {
				p.Labels = append(p.Labels, Label{Name: f.labelNames[i], Value: lv})
			}
			switch {
			case s.fn != nil:
				p.Value = s.fn()
			case s.counter != nil:
				p.Value = s.counter.Value()
			case s.gauge != nil:
				p.Value = s.gauge.Value()
			case s.hist != nil:
				hs := s.hist.Snapshot()
				p.Hist = &hs
			}
			fs.Points = append(fs.Points, p)
		}
		f.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

// Value returns the current value of a counter or gauge series, identified by
// family name and label values in registration order. It reports false when
// the family or series does not exist (or is a histogram).
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil || f.kind == KindHistogram {
		return 0, false
	}
	key := strings.Join(labelValues, labelSep)
	f.mu.Lock()
	s := f.series[key]
	f.mu.Unlock()
	if s == nil {
		return 0, false
	}
	switch {
	case s.fn != nil:
		return s.fn(), true
	case s.counter != nil:
		return s.counter.Value(), true
	case s.gauge != nil:
		return s.gauge.Value(), true
	}
	return 0, false
}

// HistogramSnapshotOf returns the state of a histogram series, identified by
// family name and label values in registration order.
func (r *Registry) HistogramSnapshotOf(name string, labelValues ...string) (HistogramSnapshot, bool) {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil || f.kind != KindHistogram {
		return HistogramSnapshot{}, false
	}
	key := strings.Join(labelValues, labelSep)
	f.mu.Lock()
	s := f.series[key]
	f.mu.Unlock()
	if s == nil || s.hist == nil {
		return HistogramSnapshot{}, false
	}
	return s.hist.Snapshot(), true
}
