package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("x_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %v, want 5", got)
	}
	// Re-registration returns the same instrument.
	if again := r.Counter("x_total", "a counter"); again.Value() != 5 {
		t.Fatal("re-registered counter is a different instrument")
	}

	g := r.Gauge("y", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}

	r.GaugeFunc("z", "callback gauge", func() float64 { return 42 })
	if v, ok := r.Value("z"); !ok || v != 42 {
		t.Fatalf("gauge func = %v %v", v, ok)
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry(nil)
	v := r.CounterVec("ops_total", "ops", "device", "op")
	v.With("pda", "put").Add(3)
	v.With("pda", "get").Inc()
	v.With("desktop", "put").Inc()

	if got, ok := r.Value("ops_total", "pda", "put"); !ok || got != 3 {
		t.Fatalf("pda/put = %v %v", got, ok)
	}
	if _, ok := r.Value("ops_total", "pda", "drop"); ok {
		t.Fatal("unexpected series exists")
	}
}

// TestWithAllocatesNothingOnHit: looking up an existing series — what the
// swap path does on every counter and histogram it touches — allocates
// nothing, however many labels the family has.
func TestWithAllocatesNothingOnHit(t *testing.T) {
	r := NewRegistry(nil)
	one := r.CounterVec("one_total", "one label", "op")
	three := r.HistogramVec("three_seconds", "three labels", nil, "op", "cause", "kind")
	gauge := r.GaugeVec("heat", "gauge", "class", "cluster")
	one.With("swap_in")
	three.With("swap_in", "evictor-pressure", "demand")
	gauge.With("Task", "17")
	if n := testing.AllocsPerRun(100, func() {
		one.With("swap_in").Inc()
		three.With("swap_in", "evictor-pressure", "demand").Observe(1)
		gauge.With("Task", "17").Set(2)
	}); n != 0 {
		t.Fatalf("With on existing series allocates %v times per run, want 0", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=0.1 gets 0.05 and 0.1 (inclusive), le=1 gets 0.5, le=10 gets 5,
	// +Inf gets 50.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 55.65 {
		t.Fatalf("count=%d sum=%v", s.Count, s.Sum)
	}
}

func TestSpanPhasesOnVirtualClock(t *testing.T) {
	clk := NewVirtualClock(time.Unix(1000, 0))
	r := NewRegistry(clk)
	tr := NewTracer(r, "objectswap_swap")

	var sp Span
	tr.Begin(&sp, "swap_out")
	sp.Phase("encode")
	clk.Advance(10 * time.Millisecond)
	sp.AddBytes(2048)
	sp.Phase("ship")
	clk.Advance(30 * time.Millisecond)
	sp.AddBytes(2048)
	phases, total := sp.End(nil)

	if total != 40*time.Millisecond {
		t.Fatalf("total = %v", total)
	}
	if len(phases) != 2 || phases[0].Name != "encode" || phases[1].Name != "ship" {
		t.Fatalf("phases = %+v", phases)
	}
	if phases[0].Duration != 10*time.Millisecond || phases[1].Duration != 30*time.Millisecond {
		t.Fatalf("phase durations = %+v", phases)
	}
	if phases[0].Bytes != 2048 || phases[1].Bytes != 2048 {
		t.Fatalf("phase bytes = %+v", phases)
	}
	if v, ok := r.Value("objectswap_swap_spans_total", "swap_out"); !ok || v != 1 {
		t.Fatalf("spans_total = %v %v", v, ok)
	}
	hs, ok := r.HistogramSnapshotOf("objectswap_swap_phase_seconds", "swap_out", "ship")
	if !ok || hs.Count != 1 || hs.Sum != 0.03 {
		t.Fatalf("ship phase histogram = %+v ok=%v", hs, ok)
	}
	if v, _ := r.Value("objectswap_swap_phase_bytes_total", "swap_out", "ship"); v != 2048 {
		t.Fatalf("ship bytes = %v", v)
	}
}

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	var sp Span
	tr.Begin(&sp, "x")
	sp.Phase("p")
	sp.AddBytes(1)
	if phases, total := sp.End(nil); phases != nil || total != 0 {
		t.Fatal("nil span recorded something")
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	clk := NewVirtualClock(time.Unix(0, 0))
	r := NewRegistry(clk)
	r.Counter("a_total", "counts a").Add(2)
	r.GaugeVec("b", "gauge b", "device").With("pda").Set(1.5)
	h := r.Histogram("c_seconds", "hist c", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP a_total counts a",
		"# TYPE a_total counter",
		"a_total 2",
		`b{device="pda"} 1.5`,
		"# TYPE c_seconds histogram",
		`c_seconds_bucket{le="1"} 1`,
		`c_seconds_bucket{le="2"} 1`,
		`c_seconds_bucket{le="+Inf"} 2`,
		"c_seconds_sum 3.5",
		"c_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two gathers render identically.
	var b2 strings.Builder
	_ = r.WriteMetrics(&b2)
	if b2.String() != out {
		t.Fatal("exposition is not deterministic")
	}
}

func TestConcurrentInstrumentsAndGather(t *testing.T) {
	r := NewRegistry(nil)
	v := r.CounterVec("conc_total", "c", "worker")
	h := r.Histogram("conc_seconds", "h", nil)

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				_ = r.WriteMetrics(&b)
			}
		}
	}()

	const workers, n = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := v.With(string(rune('a' + w)))
			for i := 0; i < n; i++ {
				c.Inc()
				h.Observe(float64(i) / n)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped

	total := 0.0
	for w := 0; w < workers; w++ {
		val, _ := r.Value("conc_total", string(rune('a'+w)))
		total += val
	}
	if total != workers*n {
		t.Fatalf("counters lost updates: %v", total)
	}
	if s := h.Snapshot(); s.Count != workers*n {
		t.Fatalf("histogram count = %d", s.Count)
	}
}
