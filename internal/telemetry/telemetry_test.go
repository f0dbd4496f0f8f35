package telemetry

import (
	"testing"

	"objectswap/internal/obs"
)

// fed is a Tracker together with a stand-in for the swapping manager that
// feeds it: it holds the ledgers and the recency clock, counts the way core's
// one writer does, and is the iteration the tracker reads through. Its Touch,
// RecordSwap and SetSizeOf keep the signatures the tests below were written
// against; advance moves the clock, as crossings and allocations move core's.
type fed struct {
	*Tracker
	ledgers map[uint32]*Ledger
	sizeOf  func(uint32) int64
	now     uint64
}

func (f *fed) advance(ticks uint64) { f.now += ticks }

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
	f.Tracker.Touch(l, f.now)
}

func (f *fed) RecordSwap(op string, id uint32, cause string, seconds float64, _ int64) {
	f.RecordFault(op, cause, seconds)
	switch l := f.ledger(id); op {
	case "swap_out":
		l.SwapOuts++
		f.SwappedOut(l, f.now)
	case "swap_in":
		l.SwapIns++
		f.SwappedIn(l, f.now)
	}
}

func (f *fed) SetSizeOf(fn func(uint32) int64) { f.sizeOf = fn }

// newTestTracker returns a tracker on the default settings, which a test
// overrides on the Tracker, fed by a stand-in at tick 1: in core the first
// touch follows the tick of the allocation that made the cluster a member.
func newTestTracker(t *testing.T) (*fed, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(nil)
	f := &fed{Tracker: New(reg), ledgers: make(map[uint32]*Ledger), now: 1}
	f.Watch(func(visit func(uint64, uint32, *Ledger, func() int64)) uint64 {
		for id, l := range f.ledgers {
			visit(f.now, id, l, func() int64 { return f.sizeOf(id) })
		}
		return f.now
	})
	return f, reg
}

// The heat EWMA decays with the ticks that pass: one half-life halves the
// score, and the hot→warm→cold transitions happen at the exit thresholds, not
// the (higher) entry thresholds. No tick passing decays nothing.
func TestHeatEWMADecay(t *testing.T) {
	tr, reg := newTestTracker(t)
	tr.heat = newDecay(10)

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

	// One half-life: 5 -> 2.5, still above hotExit=2 — hysteresis holds hot.
	tr.advance(10)
	if got := tr.HeatSnapshot()[0]; got.Score != 2.5 || got.Class != ClassHot {
		t.Fatalf("after one half-life: score=%v class=%q, want 2.5/hot", got.Score, got.Class)
	}

	// Second half-life: 1.25 < hotExit — drops to warm (not straight cold).
	tr.advance(10)
	for i := 0; i < 2; i++ { // reads at one tick read one score
		if got := tr.HeatSnapshot()[0]; got.Score != 1.25 || got.Class != ClassWarm {
			t.Fatalf("after two half-lives: score=%v class=%q, want 1.25/warm", got.Score, got.Class)
		}
	}

	// Two more: 0.3125 < warmExit=0.5 — cold.
	tr.advance(20)
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
	tr, _ := newTestTracker(t)
	tr.Touch(1, false)
	tr.Touch(1, false)
	tr.Touch(1, false) // score 3: above hotExit but below hotEnter
	if got := tr.HeatClassOf(1); got != ClassWarm {
		t.Fatalf("class at score 3 from cold = %q, want warm", got)
	}
	tr.Touch(1, false) // score 4 = hotEnter
	if got := tr.HeatClassOf(1); got != ClassHot {
		t.Fatalf("class at score 4 = %q, want hot", got)
	}
}

// HeatSnapshot ranks hottest first with deterministic tie-breaks.
func TestHeatRanking(t *testing.T) {
	tr, _ := newTestTracker(t)
	tr.heat = newDecay(10)
	for i := 0; i < 6; i++ {
		tr.Touch(3, false)
	}
	tr.advance(1)
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

// The thrash hysteresis must flip degraded at thrashHigh, stay degraded
// through the band between the thresholds however long no tick passes, and
// recover below thrashLow once a run of accesses with no ping-pong among them
// has decayed the score.
func TestThrashHysteresis(t *testing.T) {
	tr, reg := newTestTracker(t)
	tr.thrashWindow, tr.thrash = 5, newDecay(10)
	accesses := func(n int) { // crossings into cluster 1, one tick each
		for i := 0; i < n; i++ {
			tr.advance(1)
			tr.Touch(1, true)
		}
	}

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

	// One half-life of accesses: 1.5 — inside the hysteresis band, still
	// degraded.
	accesses(10)
	if score, degraded := tr.ThrashState(); score != 1.5 || !degraded {
		t.Fatalf("in band: score=%v degraded=%v, want 1.5/true", score, degraded)
	}

	// Another half-life of accesses: 0.75 < thrashLow — recovered.
	accesses(10)
	if err := tr.HealthCheck(); err != nil {
		t.Fatalf("health check still degraded at score 0.75: %v", err)
	}

	// A swap-in beyond the window of its swap-out is not a ping-pong; one at
	// the window's last tick is.
	tr.RecordSwap("swap_out", 8, "explicit", 0.001, 100)
	accesses(6)
	tr.RecordSwap("swap_in", 8, "explicit", 0.001, 100)
	tr.RecordSwap("swap_out", 9, "explicit", 0.001, 100)
	accesses(5)
	tr.RecordSwap("swap_in", 9, "explicit", 0.001, 100)
	tr.RecordSwap("swap_in", 9, "explicit", 0.001, 100) // no swap-out left to answer
	for _, h := range tr.HeatSnapshot() {
		if want := map[uint32]uint64{8: 0, 9: 1}[h.Cluster]; h.Cluster != 4 && h.PingPongs != want {
			t.Fatalf("cluster %d: %d ping-pongs, want %d", h.Cluster, h.PingPongs, want)
		}
	}

	// The same edge on the defaults, which a façade test cannot reach by
	// driving accesses: 2^24 ticks after its swap-out a swap-in is still a
	// ping-pong, one tick later it is not.
	def, _ := newTestTracker(t)
	for _, c := range []struct {
		id  uint32
		gap uint64
	}{{1, thrashWindow}, {2, thrashWindow + 1}} {
		def.RecordSwap("swap_out", c.id, "explicit", 0.001, 100)
		def.advance(c.gap)
		def.RecordSwap("swap_in", c.id, "reload", 0.001, 100)
	}
	for _, h := range def.HeatSnapshot() {
		if want := map[uint32]uint64{1: 1, 2: 0}[h.Cluster]; h.PingPongs != want {
			t.Fatalf("default window: cluster %d has %d ping-pongs, want %d", h.Cluster, h.PingPongs, want)
		}
	}
}

// Heat ranks by decayed touch counts, the evictor by the last touch. The two
// orders agree once a few half-lives separate one cluster's accesses from the
// next's: there the most recently used cluster is the hottest whatever its
// count. Within a half-life they need not: a cluster hammered earlier
// out-ranks one touched once since.
func TestHeatRankingFollowsRecency(t *testing.T) {
	for _, c := range []struct {
		name  string
		gap   uint64
		agree bool
	}{{"ten half-lives apart", 100, true}, {"within a half-life", 1, false}} {
		t.Run(c.name, func(t *testing.T) {
			tr, _ := newTestTracker(t)
			tr.heat = newDecay(10)
			// Clusters 1..5 in recency order, each touched fewer times than
			// the one before it.
			for id := uint32(1); id <= 5; id++ {
				tr.advance(c.gap)
				for i := uint32(0); i < 2*(6-id); i++ {
					tr.Touch(id, i == 0)
				}
			}
			snap := tr.HeatSnapshot()
			recent := true // hot-first is most-recent-first
			for i := 1; i < len(snap); i++ {
				recent = recent && snap[i-1].LastTouchTick > snap[i].LastTouchTick
			}
			if len(snap) != 5 || recent != c.agree {
				t.Fatalf("heat order by recency = %v, want %v: %+v", recent, c.agree, snap)
			}
		})
	}
}

// RecordSwap lands in the per-cause fault histograms with the demand kind.
func TestFaultHistogramsByCause(t *testing.T) {
	tr, reg := newTestTracker(t)
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

// The WSS estimator seals one sample per interval of ticks and aggregates
// distinct clusters (latest byte measurement per cluster) over the query
// window; a cluster touched at the tick of a seal, after it, is in the next
// interval.
func TestWSSWindowing(t *testing.T) {
	tr, reg := newTestTracker(t)
	tr.wssInterval, tr.wssWindow = 10, 100
	sizes := map[uint32]int64{1: 100, 2: 200, 3: 400}
	tr.SetSizeOf(func(c uint32) int64 { return sizes[c] })

	tr.Touch(1, false)
	tr.Touch(2, false)
	// Live interval only: both clusters visible before any seal.
	if c, b := tr.WSS(0); c != 2 || b != 300 {
		t.Fatalf("live WSS = %d clusters/%d bytes, want 2/300", c, b)
	}

	tr.advance(10)
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
	tr.advance(300)
	tr.WSS(0)
	tr.advance(300)
	if c, b := tr.WSS(0); c != 0 || b != 0 {
		t.Fatalf("aged-out WSS = %d/%d, want 0/0", c, b)
	}
}

// Nil trackers are inert: every method is callable without panicking.
func TestNilTrackerSafe(t *testing.T) {
	var tr *Tracker
	var l Ledger
	tr.Touch(&l, 1)
	tr.SwappedOut(&l, 1)
	tr.SwappedIn(&l, 1)
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
	if tr.WSSSeries(0) != nil || tr.ThrashScore() != 0 || tr.Window() != 0 {
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
	tr, _ := newTestTracker(t)
	tr.heat, tr.thrash = newDecay(10), newDecay(10)
	tr.wssInterval, tr.wssWindow = 1, 60
	tr.SetSizeOf(func(uint32) int64 { return 100 })
	for i := 0; i < 8; i++ {
		tr.Touch(1, true)
	}
	tr.RecordSwap("swap_out", 1, "explicit", 0, 0)
	tr.RecordSwap("swap_in", 1, "reload", 0, 0) // one ping-pong
	tr.ledger(1).LastAccess = 3
	tr.advance(10) // cluster 1: heat 8 -> 4, thrash 1 -> 0.5
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
	if got.Score != 4 || got.Class != ClassHot || got.Thrash != 0.5 || got.LastTouchTick != tr.now {
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
