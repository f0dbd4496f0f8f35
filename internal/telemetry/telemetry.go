// Package telemetry is the access-telemetry plane for the swap runtime: it
// turns the raw touch stream (boundary crossings, heap accesses, swap events)
// into cluster heat classes, a sliding-window working-set estimate, per-cause
// fault latency histograms and a thrash score. It depends only on
// internal/obs and is driven entirely by the registry Clock, so every decay
// and window computation is deterministic under a VirtualClock.
//
// The package owns arithmetic, not state: a cluster's heat and thrash live in
// its Ledger, which the swapping manager keeps inside its own per-cluster
// record and hands to the Tracker under the lock that guards it. The write
// side (Touch, SwappedOut, SwappedIn, Merge) is pure computation on a ledger
// the caller has locked. The read side walks the manager's clusters through
// the Clusters iteration, which takes the runtime lock: every read (gauge
// scrape, endpoint, snapshot) must come from a path that does not hold it.
// wssMu, which guards the sample ring, is only taken on that side.
//
// Two readers date the write side. An access (Touch) is dated with AccessNow,
// on a real clock a coarse instant a timer refreshes while accesses arrive,
// so that an access reads no clock; a swap is dated with Now, a full reading.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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

// Options tunes the estimators. Zero values select the defaults below.
type Options struct {
	// HeatHalfLife is the half-life of the per-cluster access EWMA: a
	// cluster's heat score halves every HeatHalfLife of silence.
	HeatHalfLife time.Duration
	// Hot/Warm enter and exit thresholds on the decayed score. Enter is
	// deliberately above exit (hysteresis) so a cluster oscillating around
	// a boundary does not flap between classes.
	HotEnter, HotExit   float64
	WarmEnter, WarmExit float64

	// WSSInterval is the sampling interval of the working-set estimator:
	// each elapsed interval seals one sample of distinct clusters touched
	// and their bytes. WSSWindow is the default aggregation window used by
	// the gauges and by /debug/wss when no ?window= is given.
	WSSInterval time.Duration
	WSSWindow   time.Duration

	// ThrashWindow: a swap-in arriving within ThrashWindow of the same
	// cluster's last swap-out counts as one ping-pong. ThrashHalfLife
	// decays the accumulated ping-pong score; the health check degrades
	// when the worst cluster's score crosses ThrashHigh and recovers only
	// once it falls back below ThrashLow.
	ThrashWindow   time.Duration
	ThrashHalfLife time.Duration
	ThrashHigh     float64
	ThrashLow      float64
}

func (o Options) withDefaults() Options {
	if o.HeatHalfLife <= 0 {
		o.HeatHalfLife = 30 * time.Second
	}
	if o.HotEnter <= 0 {
		o.HotEnter = 4
	}
	if o.HotExit <= 0 {
		o.HotExit = 2
	}
	if o.WarmEnter <= 0 {
		o.WarmEnter = 1
	}
	if o.WarmExit <= 0 {
		o.WarmExit = 0.5
	}
	if o.WSSInterval <= 0 {
		o.WSSInterval = time.Second
	}
	if o.WSSWindow <= 0 {
		o.WSSWindow = time.Minute
	}
	if o.ThrashWindow <= 0 {
		o.ThrashWindow = 10 * time.Second
	}
	if o.ThrashHalfLife <= 0 {
		o.ThrashHalfLife = 30 * time.Second
	}
	if o.ThrashHigh <= 0 {
		o.ThrashHigh = 3
	}
	if o.ThrashLow <= 0 {
		o.ThrashLow = 1
	}
	return o
}

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

	// score and thrash are stored decayed as of last / thrashLast and decay
	// lazily when read; last is the instant of the last touch.
	score       float64
	last        Instant
	class       heatClass
	thrash      float64
	thrashLast  Instant
	lastSwapOut Instant // zero once a swap-in has answered it
	pingPongs   uint64
}

// Instant is a reading of a tracker's clock: the nanoseconds since just
// before the tracker was made, so that every reading is positive and the
// zero Instant is none. Ledgers are dated in instants, which a crossing
// compares and stores as plain integers; a read side turns one back into a
// time (Tracker.timeOf).
type Instant int64

// wssSample is one sealed sampling interval: the distinct clusters touched
// between Start and End and the bytes measured for each at seal time.
type wssSample struct {
	start, end time.Time
	sizes      map[uint32]int64
}

// Clusters is the iteration a Tracker reads the live clusters through: it
// calls visit once per cluster with the cluster's ledger, held under the lock
// that guards it, and a function measuring the cluster's current footprint
// in bytes. Both are valid only during the call.
type Clusters func(visit func(id uint32, l *Ledger, size func() int64))

// Tracker is the telemetry plane. All methods are safe on a nil receiver so
// callers can plumb an optional *Tracker without guarding every call.
type Tracker struct {
	opt          Options
	heat, thrash decay // by HeatHalfLife and ThrashHalfLife
	clock        obs.Clock
	clusters     Clusters

	// epoch is the instant 0 of the tracker's clock (Instant). On a
	// Stopwatch clock, watch is that clock, and Now is the monotonic time
	// since epoch, one monotonic read where a full reading takes two clocks;
	// base is the last full reading a read side took, so that the times it
	// derives from instants track the wall clock.
	epoch time.Time
	watch obs.Stopwatch
	base  atomic.Pointer[baseline]

	// On a Stopwatch clock, accesses are dated with coarse (AccessNow), an
	// instant that refresh, a timer armed only while accesses arrive, moves
	// up every refreshPeriod, and that every read side raises to its own
	// reading. refreshing is the refresher's state (refreshIdle...).
	coarse     atomic.Int64
	refreshing atomic.Int32
	refresh    *time.Timer

	faults *obs.HistogramVec

	// wssMu guards the sample ring; see the package comment for why it must
	// never be taken under core locks.
	wssMu    sync.Mutex
	curStart time.Time
	samples  []wssSample

	thrashMu sync.Mutex
	degraded bool
}

// maxWSSSamples bounds the sealed-sample ring; at the default 1s interval
// this retains ~8.5 minutes of working-set history.
const maxWSSSamples = 512

// New builds a Tracker on reg's clock and registers its metric families
// (cluster heat gauges, WSS gauges, thrash gauge, fault histograms) with reg.
// It reports nothing per cluster until Watch gives it clusters to read.
func New(reg *obs.Registry, opt Options) *Tracker {
	if reg == nil {
		reg = obs.NewRegistry(obs.RealClock{})
	}
	t := &Tracker{opt: opt.withDefaults(), clock: reg.Clock()}
	t.heat, t.thrash = newDecay(t.opt.HeatHalfLife), newDecay(t.opt.ThrashHalfLife)
	t.watch, _ = t.clock.(obs.Stopwatch)
	t.epoch = t.clock.Now().Add(-time.Nanosecond)
	if t.watch != nil {
		t.refresh = time.AfterFunc(time.Hour, t.fire)
		t.refresh.Stop()
	}
	t.curStart = t.readNow()
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

// each visits every tracked cluster: one that was ever touched or swapped.
// A cluster declared but never used has no history to report.
func (t *Tracker) each(visit func(id uint32, l *Ledger, size func() int64)) {
	if t.clusters == nil {
		return
	}
	t.clusters(func(id uint32, l *Ledger, size func() int64) {
		if l.Touches|l.SwapOuts|l.SwapIns != 0 {
			visit(id, l, size)
		}
	})
}

// baseline is a full reading of a Stopwatch clock and its instant.
type baseline struct {
	at   time.Time
	inst Instant
}

// Now is a full reading of the tracker's clock, exact to the clock's
// resolution: it dates swaps (the thrash window) and times waits (a
// prefetch hit's), which need sub-millisecond time. On a Stopwatch clock it
// is one monotonic read, the time since epoch. An access is dated with
// AccessNow instead. A nil tracker reads no clock and returns the zero
// Instant.
func (t *Tracker) Now() Instant {
	switch {
	case t == nil:
		return 0
	case t.watch != nil:
		return t.sinceEpoch()
	}
	return t.instant(t.clock.Now())
}

// sinceEpoch is the instant of a monotonic reading of a Stopwatch clock.
func (t *Tracker) sinceEpoch() Instant { return Instant(t.watch.Since(t.epoch)) }

// refreshPeriod is how often a tracker in use refreshes the instant
// AccessNow returns.
const refreshPeriod = time.Millisecond

// The refresher's states (Tracker.refreshing). An access moves armed to
// accessed, and idle, through waking, to accessed; a firing moves accessed
// to armed and re-arms, or armed to idle and does not.
const (
	refreshIdle     int32 = iota // no timer armed
	refreshWaking                // an access is taking a reading and arming the timer
	refreshArmed                 // armed, and no access since the last firing
	refreshAccessed              // armed, and an access since the last firing
)

// AccessNow dates an access (a crossing, an in-place touch, an allocation)
// for heat and the working set, where a millisecond is nothing against a 30 s
// half-life and a 1 s interval. On a Stopwatch clock it reads no clock while
// the tracker is in use: it returns a coarse instant that a timer refreshes
// every refreshPeriod while accesses keep arriving. A firing that finds no
// access since the one before disarms it, and the next access takes a fresh
// monotonic reading and arms it again, so an idle tracker has no timer armed
// and nothing to close. The instant never goes back, and every read side
// raises it to its own full reading (readNow), so an access is never dated
// before a read that came ahead of it, nor before the last full reading; it
// is at most one refreshPeriod plus the timer's scheduling delay late. On
// any other clock, a VirtualClock among them, it is Now, so tests date every
// access exactly. Nil-safe.
func (t *Tracker) AccessNow() Instant {
	if t == nil || t.watch == nil {
		return t.Now()
	}
	for {
		switch t.refreshing.Load() {
		case refreshAccessed:
			return Instant(t.coarse.Load())
		case refreshArmed:
			if t.refreshing.CompareAndSwap(refreshArmed, refreshAccessed) {
				return Instant(t.coarse.Load())
			}
		case refreshIdle:
			if t.refreshing.CompareAndSwap(refreshIdle, refreshWaking) {
				now := t.raise(t.sinceEpoch())
				t.refreshing.Store(refreshAccessed)
				t.refresh.Reset(refreshPeriod)
				return now
			}
		default: // waking: another access is arming the timer
			return t.raise(t.sinceEpoch())
		}
	}
}

// fire is the refresh timer's function: it raises the coarse instant to a
// fresh reading and re-arms the timer only if an access came since the last
// firing. It allocates nothing, so a firing inside an allocation count adds
// nothing to it.
func (t *Tracker) fire() {
	t.raise(t.sinceEpoch())
	for {
		if t.refreshing.CompareAndSwap(refreshAccessed, refreshArmed) {
			t.refresh.Reset(refreshPeriod)
			return
		}
		if t.refreshing.CompareAndSwap(refreshArmed, refreshIdle) {
			return
		}
	}
}

// raise moves the coarse instant up to i, if it is below, and returns it.
func (t *Tracker) raise(i Instant) Instant {
	for {
		cur := t.coarse.Load()
		if int64(i) <= cur {
			return Instant(cur)
		}
		if t.coarse.CompareAndSwap(cur, int64(i)) {
			return i
		}
	}
}

// instant returns the instant of a full reading of the tracker's clock.
func (t *Tracker) instant(now time.Time) Instant { return Instant(now.Sub(t.epoch)) }

// timeOf returns the time of instant i, the zero time for the zero Instant.
func (t *Tracker) timeOf(i Instant) time.Time {
	switch b := t.base.Load(); {
	case i == 0:
		return time.Time{}
	case b != nil:
		return b.at.Add(time.Duration(i - b.inst))
	default:
		return t.epoch.Add(time.Duration(i))
	}
}

// readNow takes a full reading of the tracker's clock for a read side,
// re-bases timeOf on it and raises AccessNow's instant to it, so that an
// access after the read is not dated before it.
func (t *Tracker) readNow() time.Time {
	now := t.clock.Now()
	if t.watch != nil {
		b := &baseline{at: now, inst: t.instant(now)}
		t.base.Store(b)
		t.raise(b.inst)
	}
	return now
}

// decay is the halving of a score every halfLife of silence: at(dt) is
// 0.5^(dt/halfLife).
type decay struct {
	halfLife time.Duration
	cut      time.Duration // gaps below it take the series
	rate     float64       // -ln2 / halfLife, per nanosecond
}

// seriesShift sets the series' cut-over: a gap shorter than the half-life
// shifted right by it (117 ms of the default 30 s) takes the series.
const seriesShift = 8

func newDecay(halfLife time.Duration) decay {
	return decay{halfLife: halfLife, cut: halfLife >> seriesShift, rate: -math.Ln2 / float64(halfLife)}
}

// at returns 0.5^(dt/halfLife). A gap far below the half-life, as between
// two crossings of one walk, takes exp's series up to x^5 at x =
// -ln2*dt/halfLife, with no division: there |x| < 2^-8.5, the first term
// left out is under 2^-60, and the sum, whose one rounding at the scale of 1
// is its last, is math.Exp2's value to within one ulp, at a fraction of its
// cost. The terms pair up (Estrin's scheme) so that few of the operations
// wait for each other. A longer gap takes math.Exp2.
func (d decay) at(dt time.Duration) float64 {
	if dt <= 0 {
		return 1
	}
	if dt < d.cut {
		x := d.rate * float64(dt)
		x2 := x * x
		return 1 + (x + x2*((1.0/2+x*(1.0/6))+x2*(1.0/24+x*(1.0/120))))
	}
	return math.Exp2(-float64(dt) / float64(d.halfLife))
}

func (t *Tracker) heatAt(l *Ledger, now Instant) float64 {
	return l.score * t.heat.at(time.Duration(now-l.last))
}

func (t *Tracker) thrashAt(l *Ledger, now Instant) float64 {
	return l.thrash * t.thrash.at(time.Duration(now-l.thrashLast))
}

// classify applies the hysteresis thresholds to a decayed score. A class is
// only left once the score crosses the *exit* threshold, and only entered
// once it crosses the higher *enter* threshold.
func (t *Tracker) classify(was heatClass, score float64) heatClass {
	switch {
	case score >= t.opt.HotEnter, was == heatHot && score >= t.opt.HotExit:
		return heatHot
	case score >= t.opt.WarmEnter, was != heatCold && score >= t.opt.WarmExit: // leaving warm takes the exit threshold
		return heatWarm
	}
	return heatCold
}

// reclassify steps l's class at now, as a read does, and returns its decayed
// score.
func (t *Tracker) reclassify(l *Ledger, now Instant) float64 {
	score := t.heatAt(l, now)
	l.class = t.classify(l.class, score)
	return score
}

// Touch folds one access at now (AccessNow) into l's heat. The caller holds
// the lock guarding l and has counted the access; pure arithmetic, nil-safe.
func (t *Tracker) Touch(l *Ledger, now Instant) {
	if t == nil {
		return
	}
	l.score = t.heatAt(l, now) + 1
	l.last = now
	l.class = t.classify(l.class, l.score)
}

// SwappedOut dates l's swap-out at now, a full reading (Now), opening its
// ping-pong window. Same contract as Touch.
func (t *Tracker) SwappedOut(l *Ledger, now Instant) {
	if t != nil {
		l.lastSwapOut = now
	}
}

// SwappedIn closes the ping-pong window: a swap-in arriving within
// ThrashWindow of the cluster's last swap-out feeds its thrash score. Same
// contract as SwappedOut.
func (t *Tracker) SwappedIn(l *Ledger, now Instant) {
	if t == nil {
		return
	}
	l.thrash, l.thrashLast = t.thrashAt(l, now), now
	if l.lastSwapOut != 0 && time.Duration(now-l.lastSwapOut) <= t.opt.ThrashWindow {
		l.thrash++
		l.pingPongs++
	}
	l.lastSwapOut = 0
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
type ClusterHeat struct {
	Cluster   uint32    `json:"cluster"`
	Class     string    `json:"class"`
	Score     float64   `json:"score"`
	Touches   uint64    `json:"touches"`
	Crossings uint64    `json:"crossings"`
	SwapOuts  uint64    `json:"swap_outs"`
	SwapIns   uint64    `json:"swap_ins"`
	Thrash    float64   `json:"thrash"`
	PingPongs uint64    `json:"ping_pongs"`
	LastTouch time.Time `json:"last_touch"`
}

// HeatSnapshot returns every tracked cluster with its decayed score and
// class, hottest first (ties broken by cluster id for determinism). Every
// per-cluster heat and thrash read goes through it.
func (t *Tracker) HeatSnapshot() []ClusterHeat {
	if t == nil {
		return nil
	}
	now := t.instant(t.readNow())
	var out []ClusterHeat
	t.each(func(id uint32, l *Ledger, _ func() int64) {
		score := t.reclassify(l, now) // a read steps the hysteresis too
		out = append(out, ClusterHeat{
			Cluster:   id,
			Class:     classNames[l.class],
			Score:     score,
			Touches:   l.Touches,
			Crossings: l.Crossings,
			SwapOuts:  l.SwapOuts,
			SwapIns:   l.SwapIns,
			Thrash:    t.thrashAt(l, now),
			PingPongs: l.pingPongs,
			LastTouch: t.timeOf(l.last),
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
	now := t.instant(t.readNow())
	var n [len(classNames)]int
	t.each(func(_ uint32, l *Ledger, _ func() int64) {
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
// hysteresis: degraded turns on at ThrashHigh and only clears again below
// ThrashLow, so a sustained ping-pong regime reads degraded across the gap.
func (t *Tracker) ThrashState() (score float64, degraded bool) {
	if t == nil {
		return 0, false
	}
	score = t.ThrashScore()
	t.thrashMu.Lock()
	if t.degraded {
		if score < t.opt.ThrashLow {
			t.degraded = false
		}
	} else if score >= t.opt.ThrashHigh {
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
		return fmt.Errorf("sustained swap ping-pong: worst cluster thrash score %.2f >= %.2f", score, t.opt.ThrashHigh)
	}
	return nil
}

// Window returns the default WSS aggregation window.
func (t *Tracker) Window() time.Duration {
	if t == nil {
		return 0
	}
	return t.opt.WSSWindow
}
