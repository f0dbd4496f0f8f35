// Command benchmark is the repository's one benchmark: four named workloads
// driven through the public facade, end-to-end metrics from an untraced pass,
// per-layer metrics from a separate traced pass, one result schema with a host
// stamp, and a -compare mode that judges two result files by the metrics' own
// bounds. See README.md in this directory.
//
//	go run ./benchmark                                  the full ledger, all workloads interleaved
//	go run ./benchmark -workload chase-mem -trace 0     one workload, end-to-end metrics
//	go run ./benchmark -workload chase-mem -trace 1     one workload, per-layer metrics
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one named set of inputs and the reason it exists.
type workload struct {
	name string
	why  string
	run  func(runCfg) (*rep, error)
}

var workloads = []workload{
	{wTraverse, "fits in memory, the paper's Figure 5: heap dispatch and core proxy mediation only, 0 swap events, so a swap-path change must leave it flat",
		runTraverseResident},
	{wChaseMem, "every cluster visit demand-faults from a zero-latency in-memory donor, prefetch off: the fault is all our own software",
		runChaseMem},
	{wChaseLan, "same chase over a 100 Mbps, 1 ms link with prefetch on: link round trips dominate, software decode gains vanish",
		runChaseLan},
	{wPressure, "working set 2.5x the heap, Zipf reads beside writes, two donors: every fault pays eviction (collect, encode, ship) first",
		runPressureZipf},
}

const (
	// defaultReps is the repetition count of every measurement (ISSUE 11); only
	// the smoke test runs fewer, through options.reps.
	defaultReps = 5
	// tracedShare is the scale of the traced pass relative to the untraced one.
	tracedShare = 0.25
	// Trace modes: the driver passes 0 or 1; the default runs both passes.
	traceOff, traceOnly, traceBoth = 0, 1, 2
	// noisySteal is the steal share above which the document warns that its
	// timings were taken on a contended host.
	noisySteal = 0.05
)

// options is one invocation's settings.
type options struct {
	size     sizes
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	out      string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{size: nominalSizes, reps: defaultReps}
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, traverse-resident, chase-mem, chase-lan or pressure-zipf")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", nominalSeconds, "timed work per workload, in seconds on the reference host; op counts scale with it")
	fs.IntVar(&o.trace, "trace", traceBoth, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; 2: both")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for the result document and the span files")
	compare := fs.Bool("compare", false, "compare two result documents: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if o.seconds <= 0 || o.trace < traceOff || o.trace > traceBoth || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0, 1 or 2, and no arguments may follow the flags")
		return 2
	}
	doc, err := measure(o, stderr)
	for _, f := range failureLog {
		fmt.Fprintln(stderr, "failed op:", f)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printDocument(stdout, doc)
	if err := writeJSON(filepath.Join(o.out, fmt.Sprintf("result-seed%d.json", o.seed)), doc); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if len(doc.Workloads) == 1 {
		// The driver's contract: the last line of standard output is one JSON
		// object with the metrics of the pass it asked for.
		line, err := json.Marshal(contractLine(doc.Workloads[0], o.trace))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// measure runs the selected workloads and assembles the result document.
// Repetitions are interleaved round-robin across workloads, so a noisy
// neighbour hits one repetition of each rather than five of one.
func measure(o options, progress io.Writer) (*document, error) {
	var sel []workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	steal0, total0 := cpuTicks()
	rc := runCfg{size: o.size, seed: o.seed, scale: o.seconds / nominalSeconds}
	rc.iters = rc.scaled(isolatedIters)
	run := func(w workload, rc runCfg, into map[string][]*rep, kind string) error {
		start := time.Now()
		r, err := w.run(rc)
		if err != nil {
			return fmt.Errorf("%s (%s): %w", w.name, kind, err)
		}
		into[w.name] = append(into[w.name], r)
		fmt.Fprintf(progress, "%-18s %-9s rep %d: %d ops, %d failed, %.2fs set-up, %.2fs timed, %.2fs in all\n",
			w.name, kind, len(into[w.name]), r.ops, r.failed, r.setupS, r.wallS, time.Since(start).Seconds())
		return nil
	}

	full := map[string][]*rep{}
	if o.trace != traceOnly {
		for i := 0; i < o.reps; i++ {
			for _, w := range sel {
				if err := run(w, rc, full, "untraced"); err != nil {
					return nil, err
				}
			}
		}
	}

	control, traced, flightOff := map[string][]*rep{}, map[string][]*rep{}, map[string][]*rep{}
	iso := map[string]map[string]float64{}
	doc := &document{Schema: schemaName, Seed: o.seed, Seconds: o.seconds, Reps: o.reps, EndToEndScale: 1, Host: stampHost()}
	if o.trace == traceOnly {
		doc.EndToEndScale = tracedShare
	}
	if o.trace != traceOff {
		q := rc
		q.scale *= tracedShare
		doc.TracedScale = tracedShare
		for i := 0; i < o.reps; i++ {
			for _, w := range sel {
				if err := run(w, q, control, "control"); err != nil {
					return nil, err
				}
				t := q
				t.tr = newTracer()
				if err := run(w, t, traced, "traced"); err != nil {
					return nil, err
				}
				if i == 0 {
					if err := writeJSON(filepath.Join(o.out, "trace-"+w.name+".json"), t.tr.snapshot()); err != nil {
						return nil, err
					}
				}
				if w.name == wChaseMem {
					off := q
					off.flightOff = true
					if err := run(w, off, flightOff, "flight-off"); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, w := range sel {
			if err := fidelity(w.name, traced[w.name], control[w.name]); err != nil {
				return nil, err
			}
			m := map[string]float64{}
			n := q.iters
			if err := heapLayerFor(w.name, n, m); err != nil {
				return nil, fmt.Errorf("%s: isolated heap layer: %w", w.name, err)
			}
			if in := traced[w.name][0].layer; in != nil {
				if err := isolated(in, n, m); err != nil {
					return nil, fmt.Errorf("%s: isolated layers: %w", w.name, err)
				}
			}
			if off := flightOff[w.name]; len(off) > 0 {
				m["obs.recorder_overhead_x"] = medianOpsPerS(off) / medianOpsPerS(control[w.name])
			}
			iso[w.name] = m
		}
	}

	for _, w := range sel {
		reps := full[w.name]
		if reps == nil {
			reps = control[w.name]
		}
		res := workloadResult{Name: w.name, Why: w.why, Format: formatOf(reps)}
		res.EndToEnd, res.Attempted, res.Failed = endToEndOf(w.name, reps)
		if t := traced[w.name]; t != nil {
			res.PerLayer = perLayerOf(w.name, t, control[w.name], iso[w.name])
		}
		for _, r := range append(append([]*rep(nil), reps...), traced[w.name]...) {
			if r.violations > 0 {
				return nil, fmt.Errorf("%s: CheckInvariants reported %d violations after a repetition", w.name, r.violations)
			}
		}
		doc.Workloads = append(doc.Workloads, res)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		doc.StealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	if doc.StealShare > noisySteal {
		doc.Notes = append(doc.Notes, fmt.Sprintf("the hypervisor took %.0f%% of this host's CPU time during the run: wall-clock metrics are inflated and their spread is wide", 100*doc.StealShare))
	}
	if doc.Host.PhysicalCPUs <= 1 {
		doc.Notes = append(doc.Notes, fmt.Sprintf("host reports %d physical CPU(s): one client goroutine is all this file measures; it supports no statement about scaling with cores", doc.Host.PhysicalCPUs))
	}
	return doc, nil
}

// result is the driver-facing last line of standard output.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine picks, for the pass the driver asked for, the metrics
// BENCHMARK.json lists: the universal end-to-end metrics with -trace 0, every
// other metric with -trace 1. A metric the workload does not have reads 0
// there, because the driver wants every listed name from every workload; the
// result document omits it instead. A wrong value and a returned error are
// both failed ops, so the outputs are correct exactly when none failed; a
// broken invariant or a traced pass that ran a different program never gets
// this far, because measure fails on it.
func contractLine(w workloadResult, trace int) result {
	res := result{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]contractValue{}}
	for _, m := range manifestMetrics(trace != traceOff) {
		v := w.EndToEnd[m.Name].Value
		if pl, ok := w.PerLayer[m.Name]; ok {
			v = pl.Value
		}
		res.Metrics[m.Name] = contractValue{Value: v, Unit: m.Unit}
	}
	return res
}

// manifestMetrics lists the metric definitions of one BENCHMARK.json section:
// end_to_end (the universal metrics), or per_layer (the workload-specific
// end-to-end metrics followed by the per-layer metrics).
func manifestMetrics(perLayerSection bool) []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if universal[d.Name] != perLayerSection {
			out = append(out, d)
		}
	}
	if perLayerSection {
		out = append(out, perLayer...)
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printDocument prints every metric by name, with its unit.
func printDocument(w io.Writer, doc *document) {
	fmt.Fprintf(w, "objectswap benchmark: seed %d, %.3g s per workload, %d repetitions; %s, GOMAXPROCS %d of %d CPUs (%d physical), %s, commit %s\n",
		doc.Seed, doc.Seconds, doc.Reps, doc.Host.GoVersion, doc.Host.GOMAXPROCS, doc.Host.NumCPU,
		doc.Host.PhysicalCPUs, doc.Host.CPUModel, doc.Host.Commit)
	for _, note := range doc.Notes {
		fmt.Fprintln(w, "note:", note)
	}
	for _, wl := range doc.Workloads {
		fmt.Fprintf(w, "\n%s: %d ops attempted, %d failed, format %q\n", wl.Name, wl.Attempted, wl.Failed, wl.Format)
		printMetrics(w, "end to end", wl.EndToEnd)
		if wl.PerLayer != nil {
			printMetrics(w, fmt.Sprintf("per layer (traced pass at %.2gx scale)", doc.TracedScale), wl.PerLayer)
		}
	}
}

func printMetrics(w io.Writer, title string, metrics map[string]metricValue) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s\n", title)
	for _, name := range names {
		m := metrics[name]
		fmt.Fprintf(w, "    %-38s %14.4f %-8s spread %5.1f%%  n %d\n", name, m.Value, m.Unit, 100*m.Spread, m.N)
	}
}
