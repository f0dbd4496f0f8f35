// Package telemetry is the access-telemetry plane for the swap runtime: it
// turns the raw touch stream (boundary crossings, heap accesses, swap events)
// into cluster heat classes, a sliding-window working-set estimate, per-cause
// fault latency histograms and a thrash score. It depends only on
// internal/obs and reads no clock: every decay and window is counted in ticks
// of the swapping manager's recency clock, the dates its callers pass in and
// the tick the Clusters iteration reports, so every computation is
// deterministic and an idle system's telemetry stands still.
//
// The package owns arithmetic, not state: a cluster's heat and thrash live in
// its Ledger, which the swapping manager keeps inside its own per-cluster
// record and hands to the Tracker under the lock that guards it. The write
// side (Touch, SwappedOut, SwappedIn, Merge) is pure computation on a ledger
// the caller has locked. The read side walks the manager's clusters through
// the Clusters iteration, which takes the runtime lock: every read (gauge
// scrape, endpoint, snapshot) must come from a path that does not hold it.
// wssMu, which guards the sample ring, is only taken on that side.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"objectswap/internal/obs"
)

// Heat classes, in decreasing temperature. The strings are the label values
// of objectswap_cluster_heat{class}.
const (
	ClassHot  = "hot"
	ClassWarm = "warm"
	ClassCold = "cold"
)

// heatClass is a ledger's heat class as a touch keeps it: a small integer it
// compares and stores, named (classNames) only where a read side reports it.
type heatClass uint8

const (
	heatCold heatClass = iota // the zero class: a ledger never touched is cold
	heatWarm
	heatHot
)

var classNames = [...]string{heatCold: ClassCold, heatWarm: ClassWarm, heatHot: ClassHot}

// Fault kinds for objectswap_fault_seconds{kind}. A fault caused by the
// prefetcher (cause "prefetch") records as KindPrefetch — background work,
// not caller-visible latency; everything else is a demand fault. A crossing
// served from the prefetch inventory records as KindPrefetchHit with the
// cost the caller actually paid (a lookup, not a round trip), so the demand
// vs prefetch-hit split of swap_in latencies is directly comparable.
const (
	KindDemand      = "demand"
	KindPrefetch    = "prefetch"
	KindPrefetchHit = "prefetch-hit"
)

// causePrefetch mirrors core.CausePrefetch (telemetry depends only on
// internal/obs, so the constant is duplicated rather than imported).
const causePrefetch = "prefetch"

// The estimators' defaults. Every date is a tick of the swapping manager's
// recency clock, which moves one per boundary crossing and per allocation, so
// heat, the working set and thrash age with the program's own accesses and
// not while it idles. About 2^21 ticks are a second of the pressure-zipf
// benchmark's work (DESIGN, "The heat"). In-package tests override the
// half-lives and windows on the Tracker; nothing else sets them.
const (
	// heatHalfLife: a cluster's heat score halves every heatHalfLife ticks
	// without a touch of it.
	heatHalfLife = 1 << 26
	// Hot/warm enter and exit thresholds on the decayed score. Enter is
	// deliberately above exit (hysteresis) so a cluster oscillating around a
	// boundary does not flap between classes.
	hotEnter, hotExit   = 4, 2
	warmEnter, warmExit = 1, 0.5

	// wssInterval is the sampling interval of the working-set estimator: each
	// elapsed interval seals one sample of distinct clusters touched and their
	// bytes. wssWindow is the default aggregation window used by the gauges
	// and by /debug/wss when no ?window= is given.
	wssInterval = 1 << 21
	wssWindow   = 1 << 27

	// thrashWindow: a swap-in within thrashWindow ticks of the same cluster's
	// last swap-out counts as one ping-pong. thrashHalfLife decays the
	// accumulated ping-pong score; the health check degrades when the worst
	// cluster's score crosses thrashHigh and recovers only once it falls back
	// below thrashLow. At the rate above the window is about 8 s of work and
	// the half-life, like heat's, about 30 s.
	thrashWindow          = 1 << 24
	thrashHalfLife        = 1 << 26
	thrashHigh, thrashLow = 3, 1
)

// Ledger is one swap-cluster's access record: the only place its recency,
// crossing count, heat and swap history are stored. It lives inside the
// swapping manager's record of the cluster, is guarded by that record's lock,
// and goes when the record goes, so a dropped or merged-away cluster takes its
// history with it. The manager counts; a Tracker, when one is attached, keeps
// the unexported heat and thrash state beside the counts.
type Ledger struct {
	Crossings  uint64 // boundary crossings into the cluster
	Touches    uint64 // every observed use: crossings in and out, allocations, member reads and writes
	LastAccess uint64 // the manager's recency tick at the last crossing or allocation
	SwapOuts   uint64
	SwapIns    uint64

	// score and thrash are stored decayed as of last / thrashLast, ticks of
	// the recency clock, and decay lazily when read; last is the tick of the
	// last touch. Tick 0 is a date too, so an open ping-pong window is
	// marked by awaitingIn, not by lastSwapOut.
	score       float64
	last        uint64
	class       heatClass
	thrash      float64
	thrashLast  uint64
	lastSwapOut uint64
	awaitingIn  bool // a swap-out no swap-in has answered yet
	pingPongs   uint64
}

// wssSample is one sealed sampling interval: the distinct clusters touched
// between ticks start and end and the bytes measured for each at seal time.
type wssSample struct {
	start, end uint64
	sizes      map[uint32]int64
}

// Clusters is the iteration a Tracker reads the live clusters through: under
// one hold of the lock that guards them, it calls visit once per cluster with
// now, the current tick of the clock the ledgers are dated on, the cluster's
// ledger and a function measuring the cluster's current footprint in bytes,
// and returns now. The ledger and the function are valid only during the
// call.
type Clusters func(visit func(now uint64, id uint32, l *Ledger, size func() int64)) (now uint64)

// Tracker is the telemetry plane. All methods are safe on a nil receiver so
// callers can plumb an optional *Tracker without guarding every call.
type Tracker struct {
	heat, thrash decay // by heatHalfLife and thrashHalfLife
	// The working-set interval and window and the ping-pong window, in ticks.
	wssInterval, wssWindow, thrashWindow uint64
	clusters                             Clusters

	faults *obs.HistogramVec

	// wssMu guards the sample ring; see the package comment for why it must
	// never be taken under core locks.
	wssMu    sync.Mutex
	curStart uint64
	samples  []wssSample

	thrashMu sync.Mutex
	degraded bool
}

// maxWSSSamples bounds the sealed-sample ring; at the default interval this
// retains 2^30 ticks of working-set history, 8 default windows.
const maxWSSSamples = 512

// New builds a Tracker and registers its metric families (cluster heat
// gauges, WSS gauges, thrash gauge, fault histograms) with reg. It reports
// nothing per cluster until Watch gives it clusters to read.
func New(reg *obs.Registry) *Tracker {
	if reg == nil {
		reg = obs.NewRegistry(nil)
	}
	t := &Tracker{
		heat: newDecay(heatHalfLife), thrash: newDecay(thrashHalfLife),
		wssInterval: wssInterval, wssWindow: wssWindow, thrashWindow: thrashWindow,
	}
	t.instrument(reg)
	return t
}

func (t *Tracker) instrument(reg *obs.Registry) {
	heat := reg.GaugeVec("objectswap_cluster_heat",
		"Swap-clusters currently in each heat class (EWMA-scored with hysteresis).",
		"class")
	heat.WithFunc(func() float64 { h, _, _ := t.Counts(); return float64(h) }, ClassHot)
	heat.WithFunc(func() float64 { _, w, _ := t.Counts(); return float64(w) }, ClassWarm)
	heat.WithFunc(func() float64 { _, _, c := t.Counts(); return float64(c) }, ClassCold)
	reg.GaugeFunc("objectswap_wss_clusters",
		"Working-set size over the default window: distinct swap-clusters touched.",
		func() float64 { c, _ := t.WSS(0); return float64(c) })
	reg.GaugeFunc("objectswap_wss_bytes",
		"Working-set size over the default window: bytes of the touched swap-clusters.",
		func() float64 { _, b := t.WSS(0); return float64(b) })
	reg.GaugeFunc("objectswap_thrash_score",
		"Decayed ping-pong score of the worst-thrashing swap-cluster.",
		func() float64 { return t.ThrashScore() })
	t.faults = reg.HistogramVec("objectswap_fault_seconds",
		"Swap fault latency by operation, cause and kind (demand, prefetch, prefetch-hit).",
		nil, "op", "cause", "kind")
}

// Watch sets the clusters every read walks. The runtime the tracker is
// attached to calls it once, before anything can read.
func (t *Tracker) Watch(clusters Clusters) {
	if t != nil {
		t.clusters = clusters
	}
}

// each visits every tracked cluster, one that was ever touched or swapped,
// and returns the current tick. A cluster declared but never used has no
// history to report.
func (t *Tracker) each(visit func(now uint64, id uint32, l *Ledger, size func() int64)) (now uint64) {
	if t.clusters == nil {
		return 0
	}
	return t.clusters(func(now uint64, id uint32, l *Ledger, size func() int64) {
		if l.Touches|l.SwapOuts|l.SwapIns != 0 {
			visit(now, id, l, size)
		}
	})
}

// decay is the halving of a score every halfLife ticks: at(dt) is
// 0.5^(dt/halfLife).
type decay struct {
	halfLife uint64
	cut      uint64  // gaps below it take the series
	rate     float64 // -ln2 / halfLife, per tick
	// near holds eval of each gap below its length: a touch a few
	// crossings after the cluster's last one looks its decay up.
	near [64]float64
}

// seriesShift sets the series' cut-over: a gap shorter than the half-life
// shifted right by it (2^18 ticks of the default heat half-life) takes the
// series.
const seriesShift = 8

func newDecay(halfLife uint64) decay {
	d := decay{halfLife: halfLife, cut: halfLife >> seriesShift, rate: -math.Ln2 / float64(halfLife)}
	for dt := range d.near {
		d.near[dt] = d.eval(uint64(dt))
	}
	return d
}

// at returns 0.5^(dt/halfLife): eval's value, looked up for a short gap.
func (d *decay) at(dt uint64) float64 {
	if dt < uint64(len(d.near)) {
		return d.near[dt]
	}
	return d.eval(dt)
}

// eval computes 0.5^(dt/halfLife). A gap far below the half-life, as between
// two crossings of one walk, takes exp's series up to x^5 at x =
// -ln2*dt/halfLife, with no division: there |x| < 2^-8.5, the first term
// left out is under 2^-60, and the sum, whose one rounding at the scale of 1
// is its last, is math.Exp2's value to within one ulp, at a fraction of its
// cost. The terms pair up (Estrin's scheme) so that few of the operations
// wait for each other. No gap, as between a crossing and the reads in place
// at its tick, decays by nothing; a longer gap takes math.Exp2.
func (d *decay) eval(dt uint64) float64 {
	if dt == 0 {
		return 1
	}
	if dt < d.cut {
		x := d.rate * float64(dt)
		x2 := x * x
		return 1 + (x + x2*((1.0/2+x*(1.0/6))+x2*(1.0/24+x*(1.0/120))))
	}
	return math.Exp2(-float64(dt) / float64(d.halfLife))
}

func (t *Tracker) heatAt(l *Ledger, now uint64) float64 {
	return l.score * t.heat.at(now-l.last)
}

func (t *Tracker) thrashAt(l *Ledger, now uint64) float64 {
	return l.thrash * t.thrash.at(now-l.thrashLast)
}

// classify applies the hysteresis thresholds to a decayed score. A class is
// only left once the score crosses the *exit* threshold, and only entered
// once it crosses the higher *enter* threshold.
func (t *Tracker) classify(was heatClass, score float64) heatClass {
	switch {
	case score >= hotEnter, was == heatHot && score >= hotExit:
		return heatHot
	case score >= warmEnter, was != heatCold && score >= warmExit: // leaving warm takes the exit threshold
		return heatWarm
	}
	return heatCold
}

// reclassify steps l's class at now, as a read does, and returns its decayed
// score.
func (t *Tracker) reclassify(l *Ledger, now uint64) float64 {
	score := t.heatAt(l, now)
	l.class = t.classify(l.class, score)
	return score
}

// Touch folds one access at tick now into l's heat. The caller holds the lock
// guarding l and has counted the access; pure arithmetic, nil-safe.
func (t *Tracker) Touch(l *Ledger, now uint64) {
	if t == nil {
		return
	}
	l.score = t.heatAt(l, now) + 1
	l.last = now
	l.class = t.classify(l.class, l.score)
}

// SwappedOut dates l's swap-out at tick now, opening its ping-pong window.
// Same contract as Touch.
func (t *Tracker) SwappedOut(l *Ledger, now uint64) {
	if t != nil {
		l.lastSwapOut, l.awaitingIn = now, true
	}
}

// SwappedIn closes the ping-pong window: a swap-in arriving within
// thrashWindow ticks of the cluster's last swap-out feeds its thrash score.
// Same contract as SwappedOut.
func (t *Tracker) SwappedIn(l *Ledger, now uint64) {
	if t == nil {
		return
	}
	l.thrash, l.thrashLast = t.thrashAt(l, now), now
	if l.awaitingIn && now-l.lastSwapOut <= t.thrashWindow {
		l.thrash++
		l.pingPongs++
	}
	l.awaitingIn = false
}

// Merge folds the ledger of a cluster merged away into its survivor's:
// counters sum, recency is the later of the two, and heat and thrash are the
// hotter of the two compared at that later time. The caller holds the locks
// guarding both. A nil tracker merges the counters, which are all there is.
func (t *Tracker) Merge(dst, src *Ledger) {
	dst.Crossings += src.Crossings
	dst.Touches += src.Touches
	dst.SwapOuts += src.SwapOuts
	dst.SwapIns += src.SwapIns
	dst.LastAccess = max(dst.LastAccess, src.LastAccess)
	if t == nil {
		return
	}
	dst.pingPongs += src.pingPongs
	at := max(dst.last, src.last)
	d, s := t.heatAt(dst, at), t.heatAt(src, at)
	if s > d {
		d, dst.class = s, src.class
	}
	dst.score, dst.last = d, at
	at = max(dst.thrashLast, src.thrashLast)
	dst.thrash, dst.thrashLast = max(t.thrashAt(dst, at), t.thrashAt(src, at)), at
}

// RecordFault records one completed swap fault in objectswap_fault_seconds:
// op is "swap_out", "swap_in" or "swap_repair", cause one of the core.Cause*
// values. seconds is the whole-fault latency (the per-phase decomposition is
// already recorded by the span tracer). Nil-safe.
func (t *Tracker) RecordFault(op, cause string, seconds float64) {
	if t == nil {
		return
	}
	if cause == "" {
		cause = "unknown"
	}
	kind := KindDemand
	if cause == causePrefetch {
		kind = KindPrefetch
	}
	t.faults.With(op, cause, kind).Observe(seconds)
}

// RecordPrefetchHit records a crossing that found its target cluster
// already resident thanks to the prefetcher: an inventory lookup instead of
// a fetch+decode round trip. It lands in objectswap_fault_seconds as
// (op "swap_in", cause "reload", kind "prefetch-hit") — the same series a
// demand reload of that crossing would have hit, under the kind that names
// what actually happened. Nil-safe.
func (t *Tracker) RecordPrefetchHit(seconds float64) {
	if t != nil {
		t.faults.With("swap_in", "reload", KindPrefetchHit).Observe(seconds)
	}
}

// ClusterHeat is one cluster's entry in the ranked heat snapshot.
// LastTouchTick is the recency-clock tick of the cluster's last touch.
type ClusterHeat struct {
	Cluster       uint32  `json:"cluster"`
	Class         string  `json:"class"`
	Score         float64 `json:"score"`
	Touches       uint64  `json:"touches"`
	Crossings     uint64  `json:"crossings"`
	SwapOuts      uint64  `json:"swap_outs"`
	SwapIns       uint64  `json:"swap_ins"`
	Thrash        float64 `json:"thrash"`
	PingPongs     uint64  `json:"ping_pongs"`
	LastTouchTick uint64  `json:"last_touch_tick"`
}

// HeatSnapshot returns every tracked cluster with its decayed score and
// class, hottest first (ties broken by cluster id for determinism). Every
// per-cluster heat and thrash read goes through it.
func (t *Tracker) HeatSnapshot() []ClusterHeat {
	if t == nil {
		return nil
	}
	var out []ClusterHeat
	t.each(func(now uint64, id uint32, l *Ledger, _ func() int64) {
		score := t.reclassify(l, now) // a read steps the hysteresis too
		out = append(out, ClusterHeat{
			Cluster:       id,
			Class:         classNames[l.class],
			Score:         score,
			Touches:       l.Touches,
			Crossings:     l.Crossings,
			SwapOuts:      l.SwapOuts,
			SwapIns:       l.SwapIns,
			Thrash:        t.thrashAt(l, now),
			PingPongs:     l.pingPongs,
			LastTouchTick: l.last,
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Cluster < out[j].Cluster
	})
	return out
}

// HeatClassOf returns the current class of one cluster (ClassCold for
// clusters never touched).
func (t *Tracker) HeatClassOf(cluster uint32) string {
	for _, h := range t.HeatSnapshot() {
		if h.Cluster == cluster {
			return h.Class
		}
	}
	return ClassCold
}

// Counts returns how many tracked clusters are currently hot, warm and cold,
// stepping each one's class as HeatSnapshot does.
func (t *Tracker) Counts() (hot, warm, cold int) {
	if t == nil {
		return 0, 0, 0
	}
	var n [len(classNames)]int
	t.each(func(now uint64, _ uint32, l *Ledger, _ func() int64) {
		t.reclassify(l, now)
		n[l.class]++
	})
	return n[heatHot], n[heatWarm], n[heatCold]
}

// ThrashScore returns the decayed ping-pong score of the worst cluster.
// Pure read: it does not move the health-check hysteresis state.
func (t *Tracker) ThrashScore() (worst float64) {
	for _, h := range t.HeatSnapshot() {
		worst = max(worst, h.Thrash)
	}
	return worst
}

// ThrashState returns the current worst score and steps the degraded
// hysteresis: degraded turns on at thrashHigh and only clears again below
// thrashLow, so a sustained ping-pong regime reads degraded across the gap.
// The score decays only as ticks pass, so an idle system keeps its state.
func (t *Tracker) ThrashState() (score float64, degraded bool) {
	if t == nil {
		return 0, false
	}
	score = t.ThrashScore()
	t.thrashMu.Lock()
	if t.degraded {
		if score < thrashLow {
			t.degraded = false
		}
	} else if score >= thrashHigh {
		t.degraded = true
	}
	degraded = t.degraded
	t.thrashMu.Unlock()
	return score, degraded
}

// HealthCheck is a probe for the ops health endpoint: it returns an error
// while the thrash hysteresis reads degraded.
func (t *Tracker) HealthCheck() error {
	if t == nil {
		return nil
	}
	if score, degraded := t.ThrashState(); degraded {
		return fmt.Errorf("sustained swap ping-pong: worst cluster thrash score %.2f >= %.2f", score, float64(thrashHigh))
	}
	return nil
}

// Window returns the default WSS aggregation window, in ticks.
func (t *Tracker) Window() uint64 {
	if t == nil {
		return 0
	}
	return t.wssWindow
}
