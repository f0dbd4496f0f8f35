package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"objectswap"
	"objectswap/internal/bench"
	"objectswap/internal/core"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/store"
)

// Graph shape shared by the three swap workloads (ISSUE 11): clusters of 32
// Task-like objects with 128-byte titles.
const (
	perCluster = 32
	titleBytes = 128
	// hopRetries is how often a failed hop is retried, only so the walk can go
	// on; the op it belongs to stays failed.
	hopRetries = 3
	// nominalSeconds is the -seconds value the op-count constants are sized
	// for on the reference host (2 vCPU); other values scale them linearly.
	nominalSeconds = 20.0
)

// sizes are the graph sizes of the workloads. Every measurement uses
// nominalSizes; only the smoke test shrinks them, to fit tier-1's time.
type sizes struct {
	traverseObjects int // list length of traverse-resident
	chaseClusters   int // clusters in the chase-mem / chase-lan chain
	zipfClusters    int // clusters of pressure-zipf
}

var nominalSizes = sizes{traverseObjects: bench.DefaultObjects, chaseClusters: 64, zipfClusters: 256}

// runCfg is what one repetition of a workload is run with.
type runCfg struct {
	size  sizes
	seed  int64
	scale float64 // seconds / nominalSeconds, times tracedShare on the traced pass
	iters int     // calls per isolated or in-situ per-layer measurement
	tr    *tracer // nil on the untraced run
	// flightOff disables the flight recorder (Config.FlightSpans = -1): the
	// observability-off control behind obs.recorder_overhead_x.
	flightOff bool
}

// scaled sizes an op-count constant for the run, never below one.
func (c runCfg) scaled(n int) int {
	if v := int(float64(n)*c.scale + 0.5); v > 1 {
		return v
	}
	return 1
}

// opsPerS is the repetition's completed ops per second of timed wall time.
func (r *rep) opsPerS() float64 { return float64(r.ops-r.failed) / r.wallS }

// rep is the raw outcome of one repetition: one freshly built system, warmed
// up, then timed.
type rep struct {
	setupS float64 // build graph, attach devices, warm up
	wallS  float64 // timed phase, whole rounds
	ops    int     // attempted
	failed int     // returned an error or contradicted the oracle
	// Latency samples in µs; failed ops contribute none.
	opUs, faultUs, swapoutUs []float64
	mallocs, allocBytes      uint64 // Go runtime deltas over the timed phase
	ev                       counts // bus counts over the timed phase
	attempts                 int64  // transport attempts over the timed phase
	// vals are per-repetition scalars, keyed by the per-layer (or
	// workload-specific end-to-end) metric they feed.
	vals       map[string]float64
	violations int // CheckInvariants findings after the timed phase
	// layer carries what the isolated per-layer measurements replay; filled on
	// the traced run only.
	layer *layerInput
}

// counts is what the counting bus handler saw over the timed phase.
type counts struct {
	swapIns, swapOuts int64
	bytes             int64 // SwapEvent.Bytes, both directions
	formats           map[string]int64
	causes            map[string]int64   // swap-outs by SwapEvent.Cause
	phaseNS           map[phaseKey]int64 // summed SwapEvent.Phases durations
	phaseN            map[phaseKey]int64
}

// phaseKey names one phase of one operation ("swap_in", "decode").
type phaseKey struct{ op, phase string }

// events is the counting bus handler's state. The handler is installed in
// every run, traced or not, so both runs execute the same program.
type events struct {
	mu sync.Mutex
	counts
}

func (e *events) reset() {
	e.mu.Lock()
	e.counts = counts{formats: map[string]int64{}, causes: map[string]int64{},
		phaseNS: map[phaseKey]int64{}, phaseN: map[phaseKey]int64{}}
	e.mu.Unlock()
}

// swapInCount is read around every hop or op to tell whether a swap-in
// completed inside it.
func (e *events) swapInCount() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.swapIns
}

// snapshot returns the counts so far; the maps are shared, so take it once the
// system is quiet.
func (e *events) snapshot() counts {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counts
}

// subscribe installs the counting handler on a system's bus.
func (e *events) subscribe(bus *event.Bus) {
	e.reset()
	note := func(op string, in bool) event.Handler {
		return func(ev event.Event) {
			se, ok := ev.Payload.(core.SwapEvent)
			if !ok {
				return
			}
			e.mu.Lock()
			if in {
				e.swapIns++
			} else {
				e.swapOuts++
				e.causes[se.Cause]++
			}
			e.bytes += int64(se.Bytes)
			e.formats[se.Format]++
			for _, p := range se.Phases {
				e.phaseNS[phaseKey{op, p.Name}] += p.Duration.Nanoseconds()
				e.phaseN[phaseKey{op, p.Name}]++
			}
			e.mu.Unlock()
		}
	}
	bus.Subscribe(event.TopicSwapIn, note("swap_in", true))
	bus.Subscribe(event.TopicSwapOut, note("swap_out", false))
}

// taskClass is the Task-like class of the swap workloads: a title and a link.
// The workloads read fields; the method is what heap.invoke_ns dispatches.
func taskClass() *heap.Class {
	c := heap.NewClass("Task",
		heap.FieldDef{Name: "title", Kind: heap.KindString},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
	c.AddMethod("next", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("next")
		return []heap.Value{v}, err
	})
	return c
}

// graph is the harness-side oracle: which title every object must read.
type graph struct {
	clusters []objectswap.ClusterID
	version  [][]int    // [cluster][object] → title version last written
	want     [][]string // [cluster][object] → the title that version reads
	pad      string     // seeded filler that brings every title to titleBytes
	roots    []string   // per-cluster root names, when the clusters are not chained
}

// title is the distinct, position-encoding value of object i of cluster c at
// version v: "c<c>-o<i>-v<v>|" padded to titleBytes.
func (g *graph) title(c, i, v int) string {
	head := fmt.Sprintf("c%d-o%d-v%d|", c, i, v)
	return head + g.pad[len(head):]
}

// write sets a new versioned title on object i of cluster c through the facade
// and, when the program accepts it, in the oracle.
func (g *graph) write(sys *objectswap.System, ref heap.Value, c, i int) error {
	t := g.title(c, i, g.version[c][i]+1)
	if err := sys.SetField(ref, "title", heap.Str(t)); err != nil {
		return err
	}
	g.version[c][i]++
	g.want[c][i] = t
	return nil
}

func newPad(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, titleBytes)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// buildGraph allocates nClusters clusters of perCluster linked objects through
// the facade. With chain set the clusters form one list rooted at "head";
// otherwise each cluster is its own list rooted at "c-<i>". Every object is
// linked in as soon as it exists. Under memory pressure the evictor swaps out
// the coldest cluster while this runs; should it ever take the one being
// built, the next link fails and the error ends the run.
func buildGraph(sys *objectswap.System, cls *heap.Class, seed int64, nClusters int, chain bool) (*graph, error) {
	g := &graph{pad: newPad(seed), version: make([][]int, nClusters), want: make([][]string, nClusters)}
	var prev heap.Value
	for c := 0; c < nClusters; c++ {
		id := sys.NewCluster()
		g.clusters = append(g.clusters, id)
		g.version[c] = make([]int, perCluster)
		g.want[c] = make([]string, perCluster)
		for i := 0; i < perCluster; i++ {
			o, err := sys.NewObject(cls, id)
			if err != nil {
				return nil, fmt.Errorf("build c%d-o%d: %w", c, i, err)
			}
			ref := o.RefTo()
			g.want[c][i] = g.title(c, i, 0)
			if err := sys.SetField(ref, "title", heap.Str(g.want[c][i])); err != nil {
				return nil, fmt.Errorf("build c%d-o%d title: %w", c, i, err)
			}
			switch {
			case chain && c == 0 && i == 0:
				err = sys.SetRoot("head", ref)
			case !chain && i == 0:
				g.roots = append(g.roots, fmt.Sprintf("c-%d", c))
				err = sys.SetRoot(g.roots[c], ref)
			default:
				err = sys.SetField(prev, "next", ref)
			}
			if err != nil {
				return nil, fmt.Errorf("build c%d-o%d link: %w", c, i, err)
			}
			prev = ref
		}
	}
	return g, nil
}

// hop reads one object's title and its next link through the facade and checks
// the title against the oracle. A returned error is an error of the program or
// a wrong value; either fails the op.
func (g *graph) hop(sys *objectswap.System, cur heap.Value, c, i int) (heap.Value, error) {
	tv, err := sys.Field(cur, "title")
	if err != nil {
		return heap.Nil(), err
	}
	if got, _ := tv.Str(); got != g.want[c][i] {
		return heap.Nil(), fmt.Errorf("c%d-o%d reads %.24q, oracle says %.24q", c, i, got, g.want[c][i])
	}
	return sys.Field(cur, "next")
}

// hopRetrying runs hop, retrying a failed one so the walk can continue. ok is
// false when the first attempt failed; err is non-nil when every attempt did.
func (g *graph) hopRetrying(sys *objectswap.System, cur heap.Value, c, i int) (next heap.Value, ok bool, err error) {
	next, err = g.hop(sys, cur, c, i)
	if err == nil {
		return next, true, nil
	}
	noteFailure(err)
	for try := 0; try < hopRetries && err != nil; try++ {
		next, err = g.hop(sys, cur, c, i)
	}
	return next, false, err
}

// failureLog holds the first failures of the process, printed to standard
// error at exit so a non-zero failed count can be read.
var failureLog []string

func noteFailure(err error) {
	if len(failureLog) < 8 {
		failureLog = append(failureLog, err.Error())
	}
}

// memDelta reads the Go runtime's allocation counters; the difference of two
// readings around the timed phase gives allocs_per_op and alloc_kb_per_op.
func memDelta() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// sut is one freshly built system under test with its donors.
type sut struct {
	sys *objectswap.System
	ev  *events
	// Traced run only: the harness's decorators, one per donor. outer is what
	// AttachDevice was given, inner sits directly on the Mem; they are the
	// same decorator unless a link is in between (chase-lan).
	outer, inner []*tracedStore
	lnk          *link.Link

	// Baselines taken by startTimed.
	transport0   objectswap.TransportSnapshot
	collections0 uint64
	fault0       map[string]float64
	link0        link.Stats
	span0        int
}

// lanProfile is the link-dominated profile of chase-lan: 100 Mbps, 1 ms per
// operation, slept on the wall clock.
var lanProfile = link.Profile{Name: "lan-100mbps", BitsPerSecond: 100_000_000, Latency: time.Millisecond}

// attach registers a donor, wrapped in the harness's decorators on the traced
// run: AttachDevice(name, traced(link.Wrap(traced(mem)))) with a link, else
// AttachDevice(name, traced(mem)).
func (s *sut) attach(name string, tr *tracer, lan bool) error {
	var st store.Store = store.NewMem(0)
	var dec *tracedStore
	var err error
	if tr != nil {
		if st, dec, err = traced(tr, "store", st, len(s.inner) == 0); err != nil {
			return err
		}
		s.inner = append(s.inner, dec)
	}
	if lan {
		s.lnk = link.Wrap(st, lanProfile, link.RealClock{})
		st = s.lnk
		if tr != nil {
			if st, dec, err = traced(tr, "link", st, false); err != nil {
				return err
			}
		}
	}
	if tr != nil {
		s.outer = append(s.outer, dec)
	}
	return s.sys.AttachDevice(name, st)
}

func newSUT(cfg objectswap.Config, rc runCfg) (*sut, error) {
	if rc.flightOff {
		cfg.FlightSpans = -1
	}
	sys, err := objectswap.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &sut{sys: sys, ev: &events{}}
	s.ev.subscribe(sys.Bus())
	return s, nil
}

// timed runs a repetition's timed phase: baselines, the Go allocation counters
// and the wall clock around body, then everything finish reads.
func (s *sut) timed(r *rep, rc runCfg, body func() error) error {
	s.startTimed(rc.tr)
	runtime.GC()
	m0, b0 := memDelta()
	start := time.Now()
	if err := body(); err != nil {
		return err
	}
	r.wallS = time.Since(start).Seconds()
	m1, b1 := memDelta()
	r.mallocs, r.allocBytes = m1-m0, b1-b0
	s.finish(r, rc)
	return nil
}

// startTimed quiesces the prefetcher and takes the baseline of every counter
// the timed phase is charged with.
func (s *sut) startTimed(tr *tracer) {
	s.sys.Runtime().FaultEngine().Quiesce()
	s.ev.reset()
	s.transport0 = s.sys.TransportSnapshot()
	s.collections0 = s.sys.Heap().StatsSnapshot().Collections
	s.fault0 = faultCounters(s.sys)
	for _, d := range append(append([]*tracedStore(nil), s.outer...), s.inner...) {
		d.calls.Store(0)
		d.errors.Store(0)
		d.busyNS.Store(0)
	}
	if s.lnk != nil {
		s.link0 = s.lnk.TrafficStats()
	}
	s.span0 = tr.len()
}

// finish reads, once after the timed phase, the counts every run reports
// (events, transport, collections, fault engine, invariants) and, on the
// traced run, what the decorators, the spans and the live system add. Values
// land in r.vals under the name of the metric they feed.
func (s *sut) finish(r *rep, rc runCfg) {
	sys := s.sys
	sys.Runtime().FaultEngine().Quiesce()
	r.ev = s.ev.snapshot()
	ts := sys.TransportSnapshot()
	r.attempts = ts.Attempts - s.transport0.Attempts
	v := r.vals
	v["transport.attempts"] = float64(r.attempts)
	v["transport.retries"] = float64(ts.Retries - s.transport0.Retries)
	v["transport.breaker_trips"] = float64(ts.BreakerTrips - s.transport0.BreakerTrips)
	collections := float64(sys.Heap().StatsSnapshot().Collections - s.collections0)
	for name, after := range faultCounters(sys) {
		v[name] = after - s.fault0[name]
	}
	ops := float64(r.ops)
	v["fault.prefetch_hit_ratio"] = v["fault.prefetch_hits"] / ops
	v["policy.swapouts_by_policy"] = float64(r.ev.causes[core.CausePolicy])
	v["policy.swapouts_by_evictor"] = float64(r.ev.causes[core.CauseEvictor])
	for k, ns := range r.ev.phaseNS {
		v["core.phase."+k.op+"."+k.phase+"_us"] = float64(ns) / float64(r.ev.phaseN[k]) / 1e3
	}
	swaps := float64(r.ev.swapIns+r.ev.swapOuts) / 2
	if swaps > 0 {
		v["wire.bytes_per_resident_byte"] = float64(r.ev.bytes) / (2 * swaps) / v["resident_bytes"]
	}
	r.violations = len(sys.Runtime().Manager().CheckInvariants())
	v["core.invariant_violations"] = float64(r.violations)

	if rc.tr != nil {
		var calls, errs, busy int64
		for _, d := range s.outer {
			calls += d.calls.Load()
			errs += d.errors.Load()
		}
		for _, d := range s.inner {
			busy += d.busyNS.Load()
		}
		v["store.errors"] = float64(errs)
		if swaps > 0 {
			v["store.calls_per_swap"] = float64(calls) / swaps
			v["store.busy_us_per_swap"] = float64(busy) / swaps / 1e3
		}
		if s.lnk != nil && swaps > 0 {
			ls := s.lnk.TrafficStats()
			v["link.ops_per_swap"] = float64(ls.Ops-s.link0.Ops) / swaps
			v["link.bytes_per_swap"] = float64(ls.BytesSent+ls.BytesReceived-s.link0.BytesSent-s.link0.BytesReceived) / swaps
		}
		r.layer = &layerInput{frames: s.inner[0].frames}
		traceDerived(rc.tr.snapshot()[s.span0:], s.lnk != nil, swaps, r.wallS, v)
		s.inSitu(rc.iters, v)
	}
	if v["collects"] > 0 {
		v["heap.collect_us"] = v["collect_ns"] / v["collects"] / 1e3
		v["heap.collections_per_kop"] = collections * 1000 / ops
		v["heap.collect_share"] = collections * v["heap.collect_us"] / (r.wallS * 1e6)
	}
}
