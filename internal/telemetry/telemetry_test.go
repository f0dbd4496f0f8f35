package telemetry

import (
	"testing"
	"time"

	"objectswap/internal/obs"
)

// fed is a Tracker together with a stand-in for the swapping manager that
// feeds it: it holds the ledgers, counts the way core's one writer does, and
// is the iteration the tracker reads through. Its Touch, RecordSwap and
// SetSizeOf keep the signatures the tests below were written against.
type fed struct {
	*Tracker
	ledgers map[uint32]*Ledger
	sizeOf  func(uint32) int64
}

func (f *fed) ledger(id uint32) *Ledger {
	if f.ledgers[id] == nil {
		f.ledgers[id] = &Ledger{}
	}
	return f.ledgers[id]
}

func (f *fed) Touch(id uint32, crossing bool) {
	l := f.ledger(id)
	l.Touches++
	if crossing {
		l.Crossings++
	}
	f.Tracker.Touch(l, f.Now())
}

func (f *fed) RecordSwap(op string, id uint32, cause string, seconds float64, _ int64) {
	f.RecordFault(op, cause, seconds)
	switch l := f.ledger(id); op {
	case "swap_out":
		l.SwapOuts++
		f.SwappedOut(l, f.Now())
	case "swap_in":
		l.SwapIns++
		f.SwappedIn(l, f.Now())
	}
}

func (f *fed) SetSizeOf(fn func(uint32) int64) { f.sizeOf = fn }

func newTestTracker(t *testing.T, opt Options) (*fed, *obs.Registry, *obs.VirtualClock) {
	t.Helper()
	clock := obs.NewVirtualClock(time.Unix(1000, 0))
	reg := obs.NewRegistry(clock)
	f := &fed{Tracker: New(reg, opt), ledgers: make(map[uint32]*Ledger)}
	f.Watch(func(visit func(uint32, *Ledger, func() int64)) {
		for id, l := range f.ledgers {
			visit(id, l, func() int64 { return f.sizeOf(id) })
		}
	})
	return f, reg, clock
}

// The heat EWMA must decay deterministically under the virtual clock: one
// half-life halves the score, and the hot→warm→cold transitions happen at
// the exit thresholds, not the (higher) entry thresholds.
func TestHeatEWMADecay(t *testing.T) {
	tr, reg, clock := newTestTracker(t, Options{
		HeatHalfLife: 10 * time.Second,
		HotEnter:     4, HotExit: 2,
		WarmEnter: 1, WarmExit: 0.5,
	})

	for i := 0; i < 5; i++ {
		tr.Touch(7, i%2 == 0)
	}
	snap := tr.HeatSnapshot()
	if len(snap) != 1 || snap[0].Cluster != 7 {
		t.Fatalf("snapshot = %+v, want exactly cluster 7", snap)
	}
	if snap[0].Score != 5 {
		t.Fatalf("score = %v, want 5 (no time elapsed)", snap[0].Score)
	}
	if snap[0].Class != ClassHot {
		t.Fatalf("class = %q, want hot (score 5 >= enter 4)", snap[0].Class)
	}
	if snap[0].Touches != 5 || snap[0].Crossings != 3 {
		t.Fatalf("touches/crossings = %d/%d, want 5/3", snap[0].Touches, snap[0].Crossings)
	}
	if v, ok := reg.Value("objectswap_cluster_heat", ClassHot); !ok || v != 1 {
		t.Fatalf("heat{hot} gauge = %v,%v, want 1", v, ok)
	}

	// One half-life: 5 -> 2.5, still above HotExit=2 — hysteresis holds hot.
	clock.Advance(10 * time.Second)
	if got := tr.HeatSnapshot()[0]; got.Score != 2.5 || got.Class != ClassHot {
		t.Fatalf("after one half-life: score=%v class=%q, want 2.5/hot", got.Score, got.Class)
	}

	// Second half-life: 1.25 < HotExit — drops to warm (not straight cold).
	clock.Advance(10 * time.Second)
	if got := tr.HeatSnapshot()[0]; got.Score != 1.25 || got.Class != ClassWarm {
		t.Fatalf("after two half-lives: score=%v class=%q, want 1.25/warm", got.Score, got.Class)
	}

	// Two more: 0.3125 < WarmExit=0.5 — cold.
	clock.Advance(20 * time.Second)
	if got := tr.HeatSnapshot()[0]; got.Class != ClassCold {
		t.Fatalf("after four half-lives: class=%q, want cold", got.Class)
	}
	if v, _ := reg.Value("objectswap_cluster_heat", ClassCold); v != 1 {
		t.Fatalf("heat{cold} gauge = %v, want 1", v)
	}
}

// Entering hot requires crossing HotEnter: a score parked between HotExit
// and HotEnter classifies warm when approached from below.
func TestHeatHysteresisEntry(t *testing.T) {
	tr, _, _ := newTestTracker(t, Options{
		HotEnter: 4, HotExit: 2, WarmEnter: 1, WarmExit: 0.5,
	})
	tr.Touch(1, false)
	tr.Touch(1, false)
	tr.Touch(1, false) // score 3: above HotExit but below HotEnter
	if got := tr.HeatClassOf(1); got != ClassWarm {
		t.Fatalf("class at score 3 from cold = %q, want warm", got)
	}
	tr.Touch(1, false) // score 4 = HotEnter
	if got := tr.HeatClassOf(1); got != ClassHot {
		t.Fatalf("class at score 4 = %q, want hot", got)
	}
}

// HeatSnapshot ranks hottest first with deterministic tie-breaks.
func TestHeatRanking(t *testing.T) {
	tr, _, clock := newTestTracker(t, Options{HeatHalfLife: 10 * time.Second})
	for i := 0; i < 6; i++ {
		tr.Touch(3, false)
	}
	clock.Advance(time.Second)
	for i := 0; i < 2; i++ {
		tr.Touch(9, false)
	}
	tr.Touch(5, false)
	snap := tr.HeatSnapshot()
	if len(snap) != 3 {
		t.Fatalf("len(snapshot) = %d, want 3", len(snap))
	}
	if snap[0].Cluster != 3 || snap[1].Cluster != 9 || snap[2].Cluster != 5 {
		t.Fatalf("ranking = %d,%d,%d, want 3,9,5", snap[0].Cluster, snap[1].Cluster, snap[2].Cluster)
	}
}

// The thrash hysteresis must flip degraded at ThrashHigh, stay degraded
// through the band between the thresholds, and recover below ThrashLow.
func TestThrashHysteresis(t *testing.T) {
	tr, reg, clock := newTestTracker(t, Options{
		ThrashWindow:   5 * time.Second,
		ThrashHalfLife: 10 * time.Second,
		ThrashHigh:     3,
		ThrashLow:      1,
	})

	if err := tr.HealthCheck(); err != nil {
		t.Fatalf("healthy tracker reports %v", err)
	}

	// Three swap-in-right-after-swap-out ping-pongs on cluster 4.
	for i := 0; i < 3; i++ {
		tr.RecordSwap("swap_out", 4, "evictor-pressure", 0.001, 100)
		tr.RecordSwap("swap_in", 4, "reload", 0.001, 100)
	}
	if score := tr.ThrashScore(); score != 3 {
		t.Fatalf("thrash score = %v, want 3", score)
	}
	if err := tr.HealthCheck(); err == nil {
		t.Fatal("health check stayed ok at score 3 (ThrashHigh)")
	}
	if v, _ := reg.Value("objectswap_thrash_score"); v != 3 {
		t.Fatalf("thrash gauge = %v, want 3", v)
	}

	// One half-life: 1.5 — inside the hysteresis band, still degraded.
	clock.Advance(10 * time.Second)
	if score, degraded := tr.ThrashState(); score != 1.5 || !degraded {
		t.Fatalf("in band: score=%v degraded=%v, want 1.5/true", score, degraded)
	}

	// Another half-life: 0.75 < ThrashLow — recovered.
	clock.Advance(10 * time.Second)
	if err := tr.HealthCheck(); err != nil {
		t.Fatalf("health check still degraded at score 0.75: %v", err)
	}

	// A swap-in long after the swap-out is not a ping-pong.
	tr.RecordSwap("swap_out", 8, "explicit", 0.001, 100)
	clock.Advance(6 * time.Second) // beyond ThrashWindow
	tr.RecordSwap("swap_in", 8, "explicit", 0.001, 100)
	for _, h := range tr.HeatSnapshot() {
		if h.Cluster == 8 && h.PingPongs != 0 {
			t.Fatalf("late swap-in counted as ping-pong: %+v", h)
		}
	}
}

// RecordSwap lands in the per-cause fault histograms with the demand kind.
func TestFaultHistogramsByCause(t *testing.T) {
	tr, reg, _ := newTestTracker(t, Options{})
	tr.RecordSwap("swap_out", 1, "evictor-pressure", 0.25, 10)
	tr.RecordSwap("swap_out", 2, "explicit", 0.5, 10)
	tr.RecordSwap("swap_in", 1, "reload", 0.125, 10)
	tr.RecordSwap("swap_in", 1, "", 0.125, 10) // unattributed

	cases := []struct {
		op, cause string
		count     uint64
	}{
		{"swap_out", "evictor-pressure", 1},
		{"swap_out", "explicit", 1},
		{"swap_in", "reload", 1},
		{"swap_in", "unknown", 1},
	}
	for _, c := range cases {
		hs, ok := reg.HistogramSnapshotOf("objectswap_fault_seconds", c.op, c.cause, KindDemand)
		if !ok || hs.Count != c.count {
			t.Fatalf("fault_seconds{%s,%s,demand}: ok=%v count=%d, want %d", c.op, c.cause, ok, hs.Count, c.count)
		}
	}
}

// The WSS estimator seals one sample per interval and aggregates distinct
// clusters (latest byte measurement per cluster) over the query window.
func TestWSSWindowing(t *testing.T) {
	tr, reg, clock := newTestTracker(t, Options{
		WSSInterval: time.Second,
		WSSWindow:   10 * time.Second,
	})
	sizes := map[uint32]int64{1: 100, 2: 200, 3: 400}
	tr.SetSizeOf(func(c uint32) int64 { return sizes[c] })

	tr.Touch(1, false)
	tr.Touch(2, false)
	// Live interval only: both clusters visible before any seal.
	if c, b := tr.WSS(0); c != 2 || b != 300 {
		t.Fatalf("live WSS = %d clusters/%d bytes, want 2/300", c, b)
	}

	clock.Advance(time.Second)
	if c, b := tr.WSS(0); c != 2 || b != 300 { // this read seals {1,2}
		t.Fatalf("WSS at seal = %d/%d, want 2/300", c, b)
	}
	tr.Touch(3, false)
	c, b := tr.WSS(0) // sealed {1,2} plus live {3}
	if c != 3 || b != 700 {
		t.Fatalf("WSS after seal = %d/%d, want 3/700", c, b)
	}
	series := tr.WSSSeries(0)
	if len(series) != 2 {
		t.Fatalf("series = %+v, want sealed + live sample", series)
	}
	if series[0].Clusters != 2 || series[0].Bytes != 300 {
		t.Fatalf("sealed sample = %+v, want 2 clusters/300 bytes", series[0])
	}
	if v, _ := reg.Value("objectswap_wss_clusters"); v != 3 {
		t.Fatalf("wss_clusters gauge = %v, want 3", v)
	}

	// Far beyond the window with no activity: everything ages out. (The
	// first read seals {3} with an end stamp inside the window; the second
	// read, another window later, sees an empty set.)
	clock.Advance(30 * time.Second)
	tr.WSS(0)
	clock.Advance(30 * time.Second)
	if c, b := tr.WSS(0); c != 0 || b != 0 {
		t.Fatalf("aged-out WSS = %d/%d, want 0/0", c, b)
	}
}

// Nil trackers are inert: every method is callable without panicking.
func TestNilTrackerSafe(t *testing.T) {
	var tr *Tracker
	var l Ledger
	tr.Touch(&l, tr.Now())
	tr.SwappedOut(&l, tr.Now())
	tr.SwappedIn(&l, tr.Now())
	tr.RecordFault("swap_out", "explicit", 0.1)
	tr.RecordPrefetchHit(0.1)
	tr.Watch(nil)
	if s := tr.HeatSnapshot(); s != nil {
		t.Fatalf("nil HeatSnapshot = %v", s)
	}
	if h, w, c := tr.Counts(); h+w+c != 0 {
		t.Fatal("nil Counts nonzero")
	}
	if c, b := tr.WSS(0); c != 0 || b != 0 {
		t.Fatal("nil WSS nonzero")
	}
	if tr.WSSSeries(0) != nil || tr.ThrashScore() != 0 {
		t.Fatal("nil series/score nonzero")
	}
	if err := tr.HealthCheck(); err != nil {
		t.Fatalf("nil HealthCheck = %v", err)
	}
	if tr.HeatClassOf(3) != ClassCold {
		t.Fatal("nil HeatClassOf not cold")
	}
}

// A merge leaves one ledger carrying both histories — counters summed, the
// later recency, the hotter heat and thrash as of the later touch — and a
// ledger that goes takes its cluster out of every reading, sealed WSS samples
// included.
func TestMergeAndDrop(t *testing.T) {
	tr, _, clock := newTestTracker(t, Options{
		HeatHalfLife: 10 * time.Second, ThrashHalfLife: 10 * time.Second,
		WSSInterval: time.Second, WSSWindow: time.Minute,
	})
	tr.SetSizeOf(func(uint32) int64 { return 100 })
	for i := 0; i < 8; i++ {
		tr.Touch(1, true)
	}
	tr.RecordSwap("swap_out", 1, "explicit", 0, 0)
	tr.RecordSwap("swap_in", 1, "reload", 0, 0) // one ping-pong
	tr.ledger(1).LastAccess = 3
	clock.Advance(10 * time.Second) // cluster 1: heat 8 -> 4, thrash 1 -> 0.5
	tr.Touch(2, false)
	tr.ledger(2).LastAccess = 9
	if c, _ := tr.WSS(0); c != 2 { // seals {1} and leaves {2} open
		t.Fatalf("WSS before the merge = %d clusters, want 2", c)
	}

	tr.Merge(tr.ledger(2), tr.ledger(1))
	delete(tr.ledgers, 1)
	snap := tr.HeatSnapshot()
	if len(snap) != 1 || snap[0].Cluster != 2 {
		t.Fatalf("snapshot after the merge = %+v, want only the survivor", snap)
	}
	got := snap[0]
	if got.Touches != 9 || got.Crossings != 8 || got.SwapOuts != 1 || got.SwapIns != 1 || got.PingPongs != 1 ||
		tr.ledger(2).LastAccess != 9 {
		t.Fatalf("survivor counters = %+v, want the sums and the later recency", got)
	}
	if got.Score != 4 || got.Class != ClassHot || got.Thrash != 0.5 || !got.LastTouch.Equal(clock.Now()) {
		t.Fatalf("survivor heat = %+v, want the hotter score 4/hot, thrash 0.5, touched now", got)
	}
	if c, b := tr.WSS(0); c != 1 || b != 100 {
		t.Fatalf("WSS after the merge = %d clusters/%d bytes, want the survivor alone", c, b)
	}
	for _, s := range tr.WSSSeries(0) {
		if s.Clusters > 1 {
			t.Fatalf("series still counts the merged-away cluster: %+v", s)
		}
	}
}
