package main

// The metric catalogue. Names are normative (ISSUE 11): later issues and the
// -compare mode refer to them verbatim.

// Workload names.
const (
	wTraverse = "traverse-resident"
	wChaseMem = "chase-mem"
	wChaseLan = "chase-lan"
	wPressure = "pressure-zipf"
)

var (
	allWorkloads  = []string{wTraverse, wChaseMem, wChaseLan, wPressure}
	swapWorkloads = []string{wChaseMem, wChaseLan, wPressure}
	chaseOnly     = []string{wChaseMem, wChaseLan}
)

// metricDef describes one metric: what it is called, how it is read, and on
// which workloads it exists.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the old median by which an end-to-end metric may
	// get worse before -compare calls it worse. Per-layer metrics have none.
	Bound float64
	// LanBound, when set, is ISSUE 11's bound on chase-lan and replaces Bound
	// there: its wall-clock time is slept on the link rather than computed and
	// repeats within 2 %, and its swap-in count depends on prefetch timing.
	LanBound float64
	// On lists the workloads that report the metric.
	On []string
	// Layer, Moves and Source describe a per-layer metric: the package it
	// measures, the "<end-to-end metric>@<workload>" pairs it should move
	// (nil: none, the flat line), and whether the harness measured it from
	// outside or the program reported it.
	Layer  string
	Moves  []string
	Source string
}

// boundOn is the metric's bound on one workload.
func (d metricDef) boundOn(workload string) float64 {
	if workload == wChaseLan && d.LanBound > 0 {
		return d.LanBound
	}
	return d.Bound
}

func (d metricDef) on(workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is what a user of the system sees. failed_share has bound 0: any
// increase is a regression. The counts repeat exactly and carry ISSUE 11's
// tight bounds, and so does proxy_overhead_x, a ratio of interleaved passes
// that cancels the host's drift. The wall-clock metrics carry ISSUE 11's 10 %
// on chase-lan only. On the three CPU-bound workloads they carry the widest
// bound the driver allows, an open deviation from ISSUE 11's 10 % / 20 %: on
// the shared 2-vCPU reference host identical work differs by 8 to 15 %
// (interquartile) between runs minutes apart whatever statistic is taken over
// the repetitions (README, "Baseline"), and a bound inside that noise would
// call it a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: allWorkloads},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, LanBound: 0.10, On: allWorkloads},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25, LanBound: 0.10, On: allWorkloads},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.25, On: []string{wChaseMem, wPressure}},
	{Name: "fault_p50_us", Unit: "us", Better: "lower", Bound: 0.25, LanBound: 0.10, On: swapWorkloads},
	{Name: "fault_p99_us", Unit: "us", Better: "lower", Bound: 0.25, On: []string{wChaseMem, wPressure}},
	{Name: "swapout_p50_us", Unit: "us", Better: "lower", Bound: 0.25, LanBound: 0.10, On: chaseOnly},
	{Name: "swapout_p99_us", Unit: "us", Better: "lower", Bound: 0.25, On: []string{wChaseMem}},
	{Name: "shipped_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.01, On: swapWorkloads},
	// Prefetch timing decides how many clusters chase-lan demand-faults, so the
	// count is not exact there.
	{Name: "swapins_per_kop", Unit: "count", Better: "lower", Bound: 0.01, LanBound: 0.10, On: swapWorkloads},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02, On: allWorkloads},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.02, On: allWorkloads},
	{Name: "proxy_overhead_x", Unit: "ratio", Better: "lower", Bound: 0.10, On: []string{wTraverse}},
	{Name: "failed_share", Unit: "fraction", Better: "lower", Bound: 0, On: allWorkloads},
}

// universal are the end-to-end metrics every workload reports and none reports
// as 0: the ones BENCHMARK.json lists under end_to_end, which the driver reads
// from every workload. The other end-to-end metrics exist on some workloads
// only, so BENCHMARK.json lists them with the per-layer metrics (0 where a
// workload has none) and -compare applies their bounds.
var universal = map[string]bool{
	"setup_s": true, "ops_per_s": true, "op_p50_us": true,
	"allocs_per_op": true, "alloc_kb_per_op": true,
}

func layerDef(layer, name, unit, better string, on []string, moves ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, On: on, Layer: layer, Moves: moves, Source: "harness"}
}

func programDef(name string, on []string, moves ...string) metricDef {
	return metricDef{Name: name, Unit: "us", Better: "lower", On: on, Layer: "core", Moves: moves, Source: "program"}
}

// perLayer is measured in the traced run, from the harness's own files: in
// situ by its store decorators and its timing of facade calls, isolated by
// replaying captured frames through each layer's public functions.
var perLayer = []metricDef{
	// heap
	layerDef("heap", "heap.alloc_ns", "ns", "lower", allWorkloads, "ops_per_s@"+wTraverse),
	layerDef("heap", "heap.field_get_ns", "ns", "lower", allWorkloads, "ops_per_s@"+wTraverse),
	layerDef("heap", "heap.field_set_ns", "ns", "lower", allWorkloads, "ops_per_s@"+wTraverse),
	layerDef("heap", "heap.invoke_ns", "ns", "lower", allWorkloads, "ops_per_s@"+wTraverse, "proxy_overhead_x@"+wTraverse),
	layerDef("heap", "heap.collect_us", "us", "lower", allWorkloads, "fault_p50_us@"+wPressure, "ops_per_s@"+wPressure, "ops_per_s@"+wChaseMem),
	layerDef("heap", "heap.collections_per_kop", "count", "lower", swapWorkloads, "fault_p50_us@"+wPressure, "ops_per_s@"+wPressure),
	layerDef("heap", "heap.collect_share", "fraction", "lower", swapWorkloads, "ops_per_s@"+wPressure, "ops_per_s@"+wChaseMem),

	// core
	layerDef("core", "core.fig5.a1_ns_per_visit", "ns", "lower", []string{wTraverse}, "proxy_overhead_x@"+wTraverse, "ops_per_s@"+wTraverse),
	layerDef("core", "core.fig5.a2_ns_per_visit", "ns", "lower", []string{wTraverse}, "proxy_overhead_x@"+wTraverse, "ops_per_s@"+wTraverse),
	layerDef("core", "core.fig5.b1_ns_per_visit", "ns", "lower", []string{wTraverse}, "proxy_overhead_x@"+wTraverse, "ops_per_s@"+wTraverse),
	layerDef("core", "core.fig5.b2_ns_per_visit", "ns", "lower", []string{wTraverse}, "proxy_overhead_x@"+wTraverse, "ops_per_s@"+wTraverse),
	layerDef("core", "core.fig5.noswap_ns_per_visit", "ns", "lower", []string{wTraverse}, "proxy_overhead_x@"+wTraverse),
	layerDef("core", "core.proxies_created_per_pass", "count", "lower", []string{wTraverse}, "allocs_per_op@"+wTraverse, "ops_per_s@"+wTraverse),
	layerDef("core", "core.swapin_nonfetch_us", "us", "lower", swapWorkloads, "fault_p50_us@"+wChaseMem),
	layerDef("core", "core.swapout_nonship_us", "us", "lower", chaseOnly, "swapout_p50_us@"+wChaseMem),
	layerDef("core", "core.victim_select_us", "us", "lower", swapWorkloads, "fault_p50_us@"+wPressure),
	layerDef("core", "core.invariant_violations", "count", "lower", allWorkloads),
	programDef("core.phase.swap_in.reserve_us", swapWorkloads),
	programDef("core.phase.swap_in.fetch_us", swapWorkloads, "fault_p50_us@"+wChaseLan),
	programDef("core.phase.swap_in.decode_us", swapWorkloads, "fault_p50_us@"+wChaseMem),
	programDef("core.phase.swap_in.evict_us", swapWorkloads, "fault_p50_us@"+wPressure),
	programDef("core.phase.swap_in.install_us", swapWorkloads, "fault_p50_us@"+wChaseMem),
	programDef("core.phase.swap_out.reserve_us", swapWorkloads),
	programDef("core.phase.swap_out.snapshot_us", swapWorkloads),
	programDef("core.phase.swap_out.negotiate_us", swapWorkloads, "swapout_p50_us@"+wChaseLan),
	programDef("core.phase.swap_out.encode_us", swapWorkloads, "swapout_p50_us@"+wChaseMem),
	programDef("core.phase.swap_out.ship_us", swapWorkloads, "swapout_p50_us@"+wChaseLan),
	programDef("core.phase.swap_out.commit_us", swapWorkloads),

	// fault
	layerDef("fault", "fault.do_overhead_ns", "ns", "lower", swapWorkloads, "fault_p50_us@"+wChaseMem),
	layerDef("fault", "fault.fetch_overhead_ns", "ns", "lower", swapWorkloads, "fault_p50_us@"+wChaseMem),
	layerDef("fault", "fault.demand_faults", "count", "lower", swapWorkloads, "fault_p50_us@"+wChaseLan, "ops_per_s@"+wChaseLan),
	layerDef("fault", "fault.prefetch_installed", "count", "higher", swapWorkloads, "ops_per_s@"+wChaseLan),
	layerDef("fault", "fault.prefetch_hits", "count", "higher", swapWorkloads, "fault_p50_us@"+wChaseLan, "ops_per_s@"+wChaseLan),
	layerDef("fault", "fault.prefetch_wasted", "count", "lower", swapWorkloads, "shipped_bytes_per_op@"+wChaseLan),
	layerDef("fault", "fault.coalesced_waiters", "count", "lower", swapWorkloads, "fault_p50_us@"+wChaseLan),
	layerDef("fault", "fault.batch_keys", "count", "higher", swapWorkloads, "ops_per_s@"+wChaseLan),
	layerDef("fault", "fault.prefetch_hit_ratio", "ratio", "higher", swapWorkloads, "ops_per_s@"+wChaseLan, "swapins_per_kop@"+wChaseLan),

	// wire
	layerDef("wire", "wire.encode_us_per_frame", "us", "lower", swapWorkloads, "swapout_p50_us@"+wChaseMem),
	layerDef("wire", "wire.decode_us_per_frame", "us", "lower", swapWorkloads, "fault_p50_us@"+wChaseMem),
	layerDef("wire", "wire.decode_allocs_per_frame", "count", "lower", swapWorkloads, "allocs_per_op@"+wChaseMem),
	layerDef("wire", "wire.decode_kb_alloc_per_frame", "KiB", "lower", swapWorkloads, "alloc_kb_per_op@"+wChaseMem),
	layerDef("wire", "wire.frame_bytes", "B", "lower", swapWorkloads, "shipped_bytes_per_op@"+wChaseMem, "shipped_bytes_per_op@"+wChaseLan, "shipped_bytes_per_op@"+wPressure, "fault_p50_us@"+wChaseLan),
	layerDef("wire", "wire.bytes_per_resident_byte", "ratio", "lower", swapWorkloads, "shipped_bytes_per_op@"+wChaseMem, "shipped_bytes_per_op@"+wChaseLan, "shipped_bytes_per_op@"+wPressure),

	// xmlcodec: the universal fallback. The first three move nothing under
	// the default format; they are the flat line a PR deleting an XML path
	// must show.
	layerDef("xmlcodec", "xmlcodec.encode_us_per_frame", "us", "lower", swapWorkloads),
	layerDef("xmlcodec", "xmlcodec.decode_us_per_frame", "us", "lower", swapWorkloads),
	layerDef("xmlcodec", "xmlcodec.frame_bytes", "B", "lower", swapWorkloads),
	layerDef("xmlcodec", "xmlcodec.install_us_per_frame", "us", "lower", swapWorkloads, "fault_p50_us@"+wChaseMem),

	// store. No workload uses HTTP: the loopback pair is the bridge's budget
	// for the store-stack collapse and moves no end-to-end metric.
	layerDef("store", "store.mem.put_ns", "ns", "lower", swapWorkloads, "swapout_p50_us@"+wChaseMem),
	layerDef("store", "store.mem.get_ns", "ns", "lower", swapWorkloads, "fault_p50_us@"+wChaseMem),
	layerDef("store", "store.mem.drop_ns", "ns", "lower", swapWorkloads, "fault_p50_us@"+wChaseMem),
	layerDef("store", "store.http.put_us", "us", "lower", swapWorkloads),
	layerDef("store", "store.http.get_us", "us", "lower", swapWorkloads),
	layerDef("store", "store.calls_per_swap", "count", "lower", swapWorkloads, "fault_p50_us@"+wChaseLan, "swapout_p50_us@"+wChaseLan),
	layerDef("store", "store.busy_us_per_swap", "us", "lower", swapWorkloads, "fault_p50_us@"+wChaseMem),
	layerDef("store", "store.errors", "count", "lower", swapWorkloads),

	// transport
	layerDef("transport", "transport.self_ns_per_call", "ns", "lower", swapWorkloads, "fault_p50_us@"+wChaseMem, "swapout_p50_us@"+wChaseMem),
	layerDef("transport", "transport.attempts", "count", "lower", swapWorkloads, "fault_p50_us@"+wChaseLan),
	layerDef("transport", "transport.retries", "count", "lower", swapWorkloads),
	layerDef("transport", "transport.breaker_trips", "count", "lower", swapWorkloads),

	// link: absent off chase-lan.
	layerDef("link", "link.ops_per_swap", "count", "lower", []string{wChaseLan}, "fault_p50_us@"+wChaseLan, "swapout_p50_us@"+wChaseLan, "ops_per_s@"+wChaseLan),
	layerDef("link", "link.delay_ms_per_swap", "ms", "lower", []string{wChaseLan}, "fault_p50_us@"+wChaseLan, "swapout_p50_us@"+wChaseLan, "ops_per_s@"+wChaseLan),
	layerDef("link", "link.bytes_per_swap", "B", "lower", []string{wChaseLan}, "shipped_bytes_per_op@"+wChaseLan),
	layerDef("link", "link.share", "fraction", "lower", []string{wChaseLan}, "ops_per_s@"+wChaseLan),

	// placement
	layerDef("placement", "placement.rank_ns", "ns", "lower", swapWorkloads, "swapout_p50_us@"+wChaseMem, "fault_p50_us@"+wPressure),
	layerDef("placement", "placement.ship_self_us", "us", "lower", swapWorkloads, "swapout_p50_us@"+wChaseMem, "fault_p50_us@"+wPressure),

	// policy / devctx
	layerDef("devctx", "devctx.check_ns", "ns", "lower", swapWorkloads, "op_p50_us@"+wPressure),
	layerDef("policy", "policy.swapouts_by_policy", "count", "higher", swapWorkloads, "swapins_per_kop@"+wPressure, "shipped_bytes_per_op@"+wPressure),
	layerDef("policy", "policy.swapouts_by_evictor", "count", "lower", swapWorkloads, "swapins_per_kop@"+wPressure, "shipped_bytes_per_op@"+wPressure),

	// obs and the harness's own cost
	layerDef("obs", "obs.recorder_overhead_x", "ratio", "lower", []string{wChaseMem}, "ops_per_s@"+wChaseMem),
	layerDef("obs", "obs.write_metrics_us", "us", "lower", swapWorkloads),
	layerDef("obs", "obs.series", "count", "lower", swapWorkloads),
	layerDef("obs", "trace.overhead_x", "ratio", "lower", allWorkloads),
	layerDef("obs", "unexplained_share", "fraction", "lower", allWorkloads),
}
