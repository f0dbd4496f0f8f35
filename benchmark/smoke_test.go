package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"objectswap/internal/link"
	"objectswap/internal/store"
)

// runSeconds is BENCHMARK.json's run_seconds: what one driver run measures.
// With set-up and the off-the-clock parts a run takes about 1.5x as long; 92
// of them must fit the driver's 3420 s even when the host is at its slowest.
const runSeconds = 12

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads, both passes, at about 1/100 scale on
// shrunken graphs and validates the emitted document against the rules later
// issues rely on.
func TestSmoke(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	small := sizes{traverseObjects: 1000, chaseClusters: 16, zipfClusters: 64}
	doc, err := measure(options{size: small, workload: "all", seed: 1, seconds: nominalSeconds / 100, trace: traceBoth, reps: 1, out: out}, io.Discard)
	if err != nil {
		t.Fatalf("measure: %v (failed ops: %v)", err, failureLog)
	}
	// About 1 s on the reference host; not asserted, because the race detector
	// and a contended host each multiply it.
	t.Logf("smoke run took %v", time.Since(start))
	if doc.Claim != nil {
		t.Errorf("claim = %q, this harness claims no gain", *doc.Claim)
	}
	if doc.Host.GoVersion == "" || doc.Host.GOMAXPROCS < 1 || doc.Host.NumCPU < 1 {
		t.Errorf("incomplete host stamp: %+v", doc.Host)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.Workloads) > 8 {
		t.Fatalf("%d workloads in the document, want %d (at most 8)", len(doc.Workloads), len(workloads))
	}

	e2e := map[string]metricDef{}
	for _, d := range endToEnd {
		e2e[d.Name] = d
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, at most 16 and 128 allowed", len(endToEnd), len(perLayer))
	}
	for _, wl := range doc.Workloads {
		if !nameRE.MatchString(wl.Name) || wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %q: bad name or why %q", wl.Name, wl.Why)
		}
		if wl.Failed != 0 && wl.Name != wChaseLan {
			t.Errorf("%s: %d of %d ops failed: %v", wl.Name, wl.Failed, wl.Attempted, failureLog)
		}
		if wl.Attempted < 1 {
			t.Errorf("%s: nothing attempted", wl.Name)
		}
		for _, d := range endToEnd {
			m, ok := wl.EndToEnd[d.Name]
			// A p99 needs minP99Samples, which a 1/100 run does not have.
			if want := d.on(wl.Name) && !strings.Contains(d.Name, "_p99_"); ok != want && (want || !d.on(wl.Name)) {
				t.Errorf("%s: end-to-end metric %s present=%v, want %v", wl.Name, d.Name, ok, want)
			}
			if ok && (m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil) {
				t.Errorf("%s: %s lacks unit, direction or bound: %+v", wl.Name, d.Name, m)
			}
			if ok && universal[d.Name] && m.Value <= 0 {
				t.Errorf("%s: universal metric %s = %v, must never be 0", wl.Name, d.Name, m.Value)
			}
		}
		for name, m := range wl.PerLayer {
			if !nameRE.MatchString(name) || m.Unit == "" || m.Layer == "" ||
				(m.Better != "lower" && m.Better != "higher") || (m.Source != "harness" && m.Source != "program") {
				t.Errorf("%s: per-layer metric %s is incomplete: %+v", wl.Name, name, m)
			}
			if len(m.Moves) == 0 {
				t.Errorf("%s: %s names no moves (want a list or none)", wl.Name, name)
			}
			for _, mv := range m.Moves {
				if mv == "none" {
					continue
				}
				metric, target, ok := strings.Cut(mv, "@")
				if d, known := e2e[metric]; !ok || !known || !d.on(target) {
					t.Errorf("%s: %s moves %q, which is not an end-to-end metric reported on a workload", wl.Name, name, mv)
				}
			}
		}
		for _, d := range perLayer {
			if _, ok := wl.PerLayer[d.Name]; ok != d.on(wl.Name) {
				t.Errorf("%s: per-layer metric %s present=%v, want %v", wl.Name, d.Name, ok, d.on(wl.Name))
			}
		}
		for _, name := range []string{"trace.overhead_x", "unexplained_share"} {
			if _, ok := wl.PerLayer[name]; !ok {
				t.Errorf("%s: %s is not reported", wl.Name, name)
			}
		}
		// The driver's last line carries every name BENCHMARK.json lists.
		for _, traced := range []bool{false, true} {
			trace := traceOff
			if traced {
				trace = traceOnly
			}
			line := contractLine(wl, trace)
			if want := manifestMetrics(traced); len(line.Metrics) != len(want) {
				t.Errorf("%s: contract line has %d metrics with trace=%v, want %d", wl.Name, len(line.Metrics), traced, len(want))
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+wl.Name+".json")); err != nil {
			t.Errorf("%s: span file: %v", wl.Name, err)
		}
	}
	swapFree := doc.Workloads[0]
	if swapFree.Name != wTraverse || swapFree.Format != "" {
		t.Errorf("%s negotiated format %q: it must cause no swap", swapFree.Name, swapFree.Format)
	}

	// -compare: a document agrees with itself and loses to a slower copy.
	var buf bytes.Buffer
	if code := compareDocuments(doc, doc, &buf); code != 0 {
		t.Errorf("a document compared with itself exits %d:\n%s", code, buf.String())
	}
	slower := *doc
	slower.Workloads = append([]workloadResult(nil), doc.Workloads...)
	w := slower.Workloads[1]
	w.EndToEnd = map[string]metricValue{}
	for k, v := range doc.Workloads[1].EndToEnd {
		w.EndToEnd[k] = v
	}
	m := w.EndToEnd["ops_per_s"]
	m.Value /= 2
	w.EndToEnd["ops_per_s"] = m
	w.Failed++
	slower.Workloads[1] = w
	buf.Reset()
	if code := compareDocuments(doc, &slower, &buf); code == 0 || !strings.Contains(buf.String(), verdictWorse) {
		t.Errorf("halved ops_per_s and a failed op exit %d:\n%s", code, buf.String())
	}
	// Documents that measured different work are refused, not compared.
	if err := sameWork(doc, doc); err != nil {
		t.Errorf("a document does not match itself: %v", err)
	}
	for name, change := range map[string]func(*document){
		"seed":    func(d *document) { d.Seed++ },
		"seconds": func(d *document) { d.Seconds *= 2 },
		"reps":    func(d *document) { d.Reps = defaultReps },
		"pass":    func(d *document) { d.EndToEndScale = tracedShare },
	} {
		other := *doc
		change(&other)
		if sameWork(doc, &other) == nil {
			t.Errorf("documents that differ in %s compare as the same work", name)
		}
	}
}

// TestChaseRoundAfterLostWalk: a walk that loses its way leaves the clusters
// behind it swapped out; the next round must go on, so the failure reads as
// failed_share and not as an aborted run.
func TestChaseRoundAfterLostWalk(t *testing.T) {
	s, g, err := newChase(runCfg{size: sizes{chaseClusters: 8}, seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.sys.Close()
	for _, c := range []int{5, 6, 7} {
		if _, err := s.sys.SwapOut(g.clusters[c]); err != nil {
			t.Fatal(err)
		}
	}
	r := &rep{vals: map[string]float64{}}
	if err := chaseRound(s, g, nil, r); err != nil {
		t.Fatalf("round after a lost walk: %v", err)
	}
	if r.ops != 8 || r.failed != 0 || len(r.swapoutUs) != 5 {
		t.Errorf("%d ops, %d failed, %d swap-out samples; want 8, 0 and 5 (three clusters were already out)", r.ops, r.failed, len(r.swapoutUs))
	}
}

// TestManifest keeps BENCHMARK.json at the repository root in step with the
// metric catalogue. Run with UPDATE_MANIFEST=1 to rewrite the file.
func TestManifest(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type entry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	want := manifest{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, entry{w.name, w.why})
	}
	for _, d := range manifestMetrics(false) {
		bound := d.Bound
		want.EndToEnd = append(want.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
		if bound <= 0 || bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, bound)
		}
	}
	for _, d := range manifestMetrics(true) {
		want.PerLayer = append(want.PerLayer, metric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), want.EndToEnd...), want.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if len(want.EndToEnd) > 16 || len(want.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics in the manifest", len(want.EndToEnd), len(want.PerLayer))
	}

	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_MANIFEST") != "" {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the metric catalogue; rerun with UPDATE_MANIFEST=1")
	}
}

// TestTracedForwardsExactly: the harness's decorator must expose the optional
// store interfaces of what it wraps and no others, or the traced pass runs a
// different program (XML fallback, per-key gets).
func TestTracedForwardsExactly(t *testing.T) {
	mem := store.NewMem(0)
	cases := []struct {
		name         string
		inner        store.Store
		multi, lease bool
	}{
		{"mem", mem, true, false},
		{"link", link.Wrap(mem, lanProfile, &link.VirtualClock{}), false, false},
		{"lease-gc", store.NewLeaseGC(mem, time.Minute, nil), true, true},
	}
	for _, c := range cases {
		st, _, err := traced(newTracer(), "store", c.inner, false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, env := st.(store.Envelope)
		_, multi := st.(store.MultiGetter)
		_, lease := st.(store.Leaser)
		if !env || multi != c.multi || lease != c.lease {
			t.Errorf("%s: decorator has Envelope=%v MultiGetter=%v Leaser=%v, want true %v %v", c.name, env, multi, lease, c.multi, c.lease)
		}
	}
	if _, _, err := traced(newTracer(), "store", store.NewLegacy(nil), false); err == nil {
		t.Error("a store without Envelope was wrapped; the decorator would change format negotiation")
	}
}
