// Package objectswap is a Go implementation of Object-Swapping for
// resource-constrained devices, reproducing Veiga & Ferreira's OBIWAN
// middleware extension (ICDCS 2007).
//
// A System bundles one constrained device's middleware stack: a
// byte-accounted managed heap, the swapping runtime (swap-clusters,
// swap-cluster-proxies, replacement-objects), a nearby-device registry, the
// memory and connectivity monitors, and an XML-policy engine that turns
// memory pressure into swap-outs.
//
// Quick start:
//
//	sys, _ := objectswap.New(objectswap.Config{HeapCapacity: 1 << 20})
//	sys.AttachDevice("desktop-pc", store.NewMem(0))
//
//	node := heap.NewClass("Node", heap.FieldDef{Name: "next", Kind: heap.KindRef})
//	node.AddMethod("next", func(c *heap.Call) ([]heap.Value, error) { ... })
//	sys.MustRegisterClass(node)
//
//	cluster := sys.NewCluster()
//	obj, _ := sys.NewObject(node, cluster)
//	_ = sys.SetRoot("head", obj.RefTo())
//	...
//	sys.SwapOut(cluster)    // or let the policy engine decide
//
// The exported sub-APIs remain available for advanced use: System.Runtime
// (core), System.Heap (device heap), System.Monitor (memory monitor),
// System.Telemetry (cluster heat), System.Bus (events).
package objectswap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"objectswap/internal/core"
	"objectswap/internal/devctx"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/opshttp"
	"objectswap/internal/placement"
	"objectswap/internal/policy"
	"objectswap/internal/replication"
	"objectswap/internal/store"
	"objectswap/internal/telemetry"
	"objectswap/internal/transport"
	"objectswap/internal/wire"
)

// Re-exported identifier types, so the façade is usable without importing
// internal packages directly.
type (
	// ClusterID names a swap-cluster (0 is the never-swapped root cluster).
	ClusterID = core.ClusterID
	// SwapEvent describes a completed swap operation.
	SwapEvent = core.SwapEvent
	// ClusterInfo snapshots one swap-cluster's state.
	ClusterInfo = core.ClusterInfo
	// VictimStrategy orders eviction candidates.
	VictimStrategy = core.VictimStrategy
	// SwapOption tunes one SwapOut / SwapIn call (deadline, destination,
	// failover behavior).
	SwapOption = core.SwapOption
	// TransportPolicy bounds the resilience decorator wrapped around every
	// attached device: per-operation timeouts, retry/backoff, circuit
	// breaker.
	TransportPolicy = transport.Policy
	// TransportSnapshot is the aggregate transport-metrics view.
	TransportSnapshot = transport.Snapshot
	// MetricsRegistry is the observability registry every layer reports into.
	MetricsRegistry = obs.Registry
	// Clock is the time source driving all observability timings.
	Clock = obs.Clock
	// FlightRecorder retains the last completed swap spans and bus events.
	FlightRecorder = obs.Recorder
	// HealthCheck is one named subsystem probe served on /healthz.
	HealthCheck = opshttp.Check
)

// Swap options, re-exported from the runtime layer.
var (
	// WithContext runs the swap under a caller context, which bounds it.
	WithContext = core.WithContext
	// WithDevice pins the swap-out destination to a named device.
	WithDevice = core.WithDevice
	// WithNoFailover restores fail-fast shipment (no multi-device retry).
	WithNoFailover = core.WithNoFailover
	// WithReplicas overrides the replication factor for one swap-out: the
	// payload ships to K rendezvous-ranked donors and commits once a write
	// quorum (majority of K) lands.
	WithReplicas = core.WithReplicas
)

// Victim strategies, re-exported.
const (
	VictimColdest   = core.VictimColdest
	VictimLargest   = core.VictimLargest
	VictimLeastUsed = core.VictimLeastUsed
)

// RootCluster is swap-cluster-0: global variables and static state.
const RootCluster = core.RootCluster

// ErrClusterBusy reports a cluster already mid-swap on another goroutine;
// concurrent SwapOut / SwapIn callers should skip it or retry later.
var ErrClusterBusy = core.ErrClusterBusy

// Config parameterizes a System.
type Config struct {
	// HeapCapacity is the device's byte budget (0 = unlimited, which
	// disables pressure-driven swapping but keeps explicit swapping).
	HeapCapacity int64
	// MemoryThreshold is the occupancy fraction that fires the memory
	// monitor (default 0.8).
	MemoryThreshold float64
	// Policies is an XML policy document to load; when empty, the default
	// swap-coldest-on-pressure machine policy is installed.
	Policies []byte
	// DeviceName namespaces this device's storage keys on shared stores
	// (default: a process-unique name).
	DeviceName string
	// Replicas is the default replication factor for swap-outs: each shipped
	// cluster lands on K rendezvous-ranked donor devices (weighted by free
	// capacity) and commits once a write quorum (majority of K) lands.
	// Values <= 1 keep single-copy placement. With Replicas > 1 the System
	// also runs a background re-replication loop that re-ships
	// under-replicated clusters when donors fail (breaker-open, link-down,
	// device removal, or a swap-in falling through a dead replica); call
	// Close to stop it.
	Replicas int
	// Transport tunes the resilience decorator (timeouts, retry/backoff,
	// circuit breaker) wrapped around every store registered with
	// AttachDevice. The zero value selects the defaults; see
	// TransportPolicy.
	Transport TransportPolicy
	// Clock is the time source for all observability timings — event
	// timestamps, swap-phase durations, GC pauses, transport latencies
	// (default: the wall clock). Inject obs.NewVirtualClock in tests for
	// deterministic timings.
	Clock obs.Clock
	// Logger receives structured records from every layer: swap outcomes,
	// transport retries and breaker transitions, policy action outcomes,
	// memory threshold edges and link changes. Nil logs nothing.
	Logger *slog.Logger
	// FlightSpans / FlightEvents size the flight recorder's span and bus-event
	// rings (0 = defaults, 256 and 512; negative disables the recorder).
	FlightSpans  int
	FlightEvents int
	// WireFormats is the shipment-format preference order negotiated with the
	// donors on each swap-out (see internal/wire for the registered formats:
	// "binary", "binary+flate", "xml"); New refuses any other entry with an
	// error wrapping wire.ErrUnknownFormat. Empty selects the default, binary
	// with XML fallback; XML is always the implicit last resort, so a
	// neighborhood of pre-negotiation donors behaves exactly as before.
	// Whatever the format, a cluster written since its last reload ships in
	// full, and an unwritten one ships nothing at all: it leaves on the copy
	// its donors retained.
	WireFormats []string
	// Prefetch enables the graph-driven prefetcher in the asynchronous fault
	// engine: after every demand swap-in, and every crossing the prefetcher
	// served, the next Depth clusters along the replacement-object graph
	// (ranked by edge count, hop by hop) are kept in flight by Workers
	// background goroutines, gated by the memory monitor (no speculation
	// while the heap sits over threshold). The zero value disables
	// prefetching; single-flight coalescing of concurrent faults is always on.
	Prefetch PrefetchConfig
	// LeaseRenewEvery starts a background loop renewing the storage leases of
	// every swapped cluster's payload, and of the copy a resident cluster's
	// donors retain, each period, so lease-GC'ing donors (swapstore
	// -lease-ttl) keep live payloads and archive only orphans. Pick a period
	// well under the donors' TTL — a third or less. Zero disables the loop;
	// call Close to stop it.
	LeaseRenewEvery time.Duration
}

// PrefetchConfig tunes the fault engine's speculative swap-in.
type PrefetchConfig struct {
	// Depth is the number of clusters kept in flight ahead of a fault along
	// the graph: the faulted cluster's best-ranked neighbors, then theirs
	// (0 disables prefetching). Each needs a worker to be in flight at once.
	Depth int
	// Workers is the background swap-in pool size (default 2).
	Workers int
}

// System is the assembled middleware stack of one constrained device.
type System struct {
	heap    *heap.Heap
	rt      *core.Runtime
	bus     *event.Bus
	devices *store.Registry
	monitor *devctx.MemoryMonitor
	conn    *devctx.ConnectivityMonitor
	context *devctx.Context
	engine  *policy.Engine

	transportPol TransportPolicy
	metrics      *transport.Metrics
	obsReg       *obs.Registry
	recorder     *obs.Recorder
	logger       *slog.Logger
	repairer     *placement.Repairer
	telem        *telemetry.Tracker

	leaseEvery time.Duration
	leaseStop  chan struct{}
	leaseDone  chan struct{}
}

// New assembles a System from cfg. Every layer reports into one shared
// observability registry — the spine exposed by Metrics / WriteMetrics.
func New(cfg Config) (*System, error) {
	for _, f := range cfg.WireFormats {
		if _, err := wire.Lookup(wire.FormatID(f)); err != nil {
			return nil, fmt.Errorf("objectswap: WireFormats: %w", err)
		}
	}
	reg := obs.NewRegistry(cfg.Clock)
	h := heap.New(cfg.HeapCapacity)
	var recorder *obs.Recorder
	if cfg.FlightSpans >= 0 && cfg.FlightEvents >= 0 {
		recorder = obs.NewRecorder(cfg.FlightSpans, cfg.FlightEvents)
	}
	bus := event.NewBus(event.WithClock(reg.Clock()), event.WithRegistry(reg),
		event.WithFlightRecorder(recorder))
	devices := store.NewRegistry(store.SelectMostFree)

	// Ring overwrites surface as objectswap_flight_dropped_total{kind}.
	recorder.Instrument(reg)
	// The access-telemetry plane: cluster heat, working-set estimation,
	// fault attribution and thrash scoring, dated on the runtime's recency
	// clock.
	telem := telemetry.New(reg)

	opts := []core.Option{core.WithStores(devices), core.WithBus(bus), core.WithObs(reg),
		core.WithFlightRecorder(recorder), core.WithLogger(cfg.Logger),
		core.WithTelemetry(telem)}
	if cfg.DeviceName != "" {
		opts = append(opts, core.WithName(cfg.DeviceName))
	}
	if cfg.Replicas > 1 {
		opts = append(opts, core.WithDefaultReplicas(cfg.Replicas))
	}
	if len(cfg.WireFormats) > 0 {
		opts = append(opts, core.WithWireFormats(cfg.WireFormats...))
	}
	if cfg.Prefetch.Depth > 0 {
		opts = append(opts, core.WithPrefetch(cfg.Prefetch.Depth, cfg.Prefetch.Workers))
	}
	rt := core.NewRuntime(h, heap.NewRegistry(), opts...)
	h.Instrument(reg, rt.Name())

	conn := devctx.NewConnectivityMonitor(bus, devices)
	conn.Instrument(reg)
	conn.SetLogger(cfg.Logger)
	ctx := devctx.NewContext(h, conn)
	// Surface the telemetry plane in policy snapshots so rules can condition
	// on heat class counts, working-set size and thrash (e.g. "swap out only
	// while heat.cold > 0"). ThrashScore is the pure read — the hysteresis
	// state machine is only stepped by the health check and /debug/heat.
	ctx.RegisterMetric("heat.hot", func() float64 { hot, _, _ := telem.Counts(); return float64(hot) })
	ctx.RegisterMetric("heat.warm", func() float64 { _, warm, _ := telem.Counts(); return float64(warm) })
	ctx.RegisterMetric("heat.cold", func() float64 { _, _, cold := telem.Counts(); return float64(cold) })
	ctx.RegisterMetric("thrash.score", func() float64 { return telem.ThrashScore() })
	ctx.RegisterMetric("wss.clusters", func() float64 { c, _ := telem.WSS(0); return float64(c) })
	ctx.RegisterMetric("wss.bytes", func() float64 { _, b := telem.WSS(0); return float64(b) })
	engine := policy.NewEngine(bus, ctx)
	engine.Instrument(reg)
	engine.SetLogger(cfg.Logger)
	policy.BindSwapActions(engine, rt)

	doc := cfg.Policies
	if len(doc) == 0 {
		doc = []byte(policy.DefaultSwapPolicy)
	}
	if err := engine.Load(doc); err != nil {
		return nil, fmt.Errorf("objectswap: load policies: %w", err)
	}

	metrics := transport.NewMetricsWith(reg)
	// Every failed destination on a swap-out's failover trail counts as one
	// failover in the transport metrics.
	bus.Subscribe(event.TopicSwapOut, func(ev event.Event) {
		if e, ok := ev.Payload.(core.SwapEvent); ok {
			for _, d := range e.Attempted {
				metrics.AddFailover(d)
			}
		}
	})

	monitor := devctx.NewMemoryMonitor(h, bus, cfg.MemoryThreshold)
	monitor.Instrument(reg)
	monitor.SetLogger(cfg.Logger)
	// Pressure-gate speculation: the prefetcher asks before every background
	// swap-in and stands down while the heap sits at or over the monitor's
	// threshold, so prefetch can never be the thing that trips eviction.
	rt.FaultEngine().SetAdmit(func() bool {
		sample := monitor.Sample()
		return sample.Capacity <= 0 || sample.Fraction < monitor.Threshold()
	})

	var repairer *placement.Repairer
	if cfg.Replicas > 1 {
		repairer = placement.NewRepairer(repairTarget{rt}, cfg.Replicas,
			placement.RepairerOptions{Bus: bus, Obs: reg, Logger: cfg.Logger})
		repairer.Start()
	}

	sys := &System{
		heap:         h,
		rt:           rt,
		bus:          bus,
		devices:      devices,
		monitor:      monitor,
		conn:         conn,
		context:      ctx,
		engine:       engine,
		transportPol: cfg.Transport,
		metrics:      metrics,
		obsReg:       reg,
		recorder:     recorder,
		logger:       cfg.Logger,
		repairer:     repairer,
		telem:        telem,
		leaseEvery:   cfg.LeaseRenewEvery,
	}
	if sys.leaseEvery > 0 {
		sys.leaseStop = make(chan struct{})
		sys.leaseDone = make(chan struct{})
		go sys.leaseLoop()
	}
	return sys, nil
}

// leaseLoop renews swapped-cluster leases every Config.LeaseRenewEvery until
// Close. Renewal errors are swallowed here — a donor that is briefly down
// misses one round and catches the next; a donor without lease support is
// skipped permanently by RenewLeasesNow.
func (s *System) leaseLoop() {
	defer close(s.leaseDone)
	ticker := time.NewTicker(s.leaseEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.leaseStop:
			return
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), s.leaseEvery)
			s.RenewLeasesNow(ctx)
			cancel()
		}
	}
}

// RenewLeasesNow walks every cluster once and renews the lease on the one
// payload its donors hold for it — a swapped cluster's shipment, or the copy
// a resident cluster will leave on again without shipping — on each donor
// device holding it. Donors that do not support leases (no swapstore
// -lease-ttl, plain stores) are skipped silently; the count of successful
// per-key renewals is returned. A copy whose every donor renewed is reported
// to the runtime, which then counts on it for another lease period
// (core.Runtime.LeaseRenewed); one that did not runs out, and its cluster
// ships in full next time. The background loop (Config.LeaseRenewEvery) calls
// this on a timer; call it directly before a planned disconnection.
func (s *System) RenewLeasesNow(ctx context.Context) int {
	renewed := 0
	for _, info := range s.rt.Manager().InfoAll() {
		if info.BaseKey != "" {
			renewed += s.renewCopy(ctx, info.ID, info.BaseKey, info.BaseDevices)
		}
	}
	return renewed
}

// renewCopy renews key on each of devices and returns how many did.
func (s *System) renewCopy(ctx context.Context, id ClusterID, key string, devices []string) int {
	n := 0
	for _, d := range devices {
		st, ok := s.devices.Peek(d)
		if !ok {
			continue
		}
		// TTL 0 asks the donor for its configured default.
		if l, ok := st.(store.Leaser); ok && l.RenewLease(ctx, key, 0) == nil {
			n++
		}
	}
	if n > 0 && n == len(devices) {
		s.rt.LeaseRenewed(id, key)
	}
	return n
}

// repairTarget adapts core.Runtime to placement.RepairTarget: cluster ids are
// surfaced as raw uint32s, and the runtime conditions that mean "nothing to do
// right now" — mid-swap on another goroutine, reloaded since the sweep, or
// already fully replicated — collapse into placement.ErrSkip.
type repairTarget struct{ rt *core.Runtime }

func (t repairTarget) UnderReplicated(k int) []uint32 {
	ids := t.rt.UnderReplicated(k)
	out := make([]uint32, len(ids))
	for i, id := range ids {
		out[i] = uint32(id)
	}
	return out
}

func (t repairTarget) RepairCluster(ctx context.Context, cluster uint32, k int) error {
	_, err := t.rt.RepairCluster(ctx, core.ClusterID(cluster), k)
	if errors.Is(err, core.ErrClusterBusy) || errors.Is(err, core.ErrClusterLoaded) ||
		errors.Is(err, core.ErrNoRepair) {
		return fmt.Errorf("%w: %v", placement.ErrSkip, err)
	}
	return err
}

// RepairNow synchronously sweeps every under-replicated cluster once,
// re-shipping each toward Config.Replicas live copies, and returns how many
// clusters were repaired. With Replicas <= 1 it reports (0, nil) — there is
// no repair loop to run. Use it in tests and drain points; during normal
// operation the background loop reacts to failure events on its own.
func (s *System) RepairNow(ctx context.Context) (int, error) {
	if s.repairer == nil {
		return 0, nil
	}
	return s.repairer.RepairNow(ctx)
}

// Close stops the System's background work: the re-replication loop, the
// lease-renewal loop and the fault engine's prefetch workers. It is safe to
// call multiple times and on systems without any of them.
func (s *System) Close() {
	if s.repairer != nil {
		s.repairer.Close()
	}
	if s.leaseStop != nil {
		select {
		case <-s.leaseStop:
			// already closed by an earlier Close
		default:
			close(s.leaseStop)
		}
		<-s.leaseDone
	}
	s.rt.FaultEngine().Stop()
}

// DetachDevice removes a nearby device from the registry and announces the
// removal on the bus (topic device.removed) so the re-replication loop
// re-ships any clusters that held replicas on it. Swapped payloads on the
// device are not fetched back first — replicated clusters survive through
// their remaining copies; single-copy clusters on the device become
// unrecoverable until it is re-attached.
func (s *System) DetachDevice(name string) error {
	if _, ok := s.devices.Peek(name); !ok {
		return fmt.Errorf("objectswap: detach %q: %w", name, store.ErrNoDevice)
	}
	s.devices.Remove(name)
	s.conn.Set(name, false)
	s.bus.Emit(event.TopicDeviceRemoved, name)
	return nil
}

// Metrics exposes the shared observability registry: every layer — heap,
// swap runtime, event bus, transport, policy engine, device monitors —
// reports into it.
func (s *System) Metrics() *obs.Registry { return s.obsReg }

// WriteMetrics renders the full metrics page in the Prometheus text
// exposition format (version 0.0.4).
func (s *System) WriteMetrics(w io.Writer) error { return s.obsReg.WriteMetrics(w) }

// evictorStuckAfter is how long one victim of an eviction walk may stay in
// flight before the evictor health check reports the walk stalled.
const evictorStuckAfter = 30 * time.Second

// healthChecks builds the system's standard subsystem probes, served by
// OpsHandler on /healthz:
//
//	heap             fails when occupancy has crossed the memory monitor's
//	                 threshold
//	breakers         fails when any attached device's circuit breaker is open
//	stores           fails when devices are attached but none is reachable
//	evictor          fails when no evictor hook is installed, or one eviction
//	                 victim's swap-out has been in flight implausibly long
//	underreplicated  (Replicas > 1 only) fails while any swapped cluster has
//	                 fewer live replicas than Config.Replicas — degraded on
//	                 donor loss, ok again once the repair loop restores the
//	                 factor
func healthChecks(s *System) []opshttp.Check {
	checks := []opshttp.Check{
		{Name: "heap", Probe: func(context.Context) error {
			sample := s.monitor.Sample()
			if sample.Capacity > 0 && sample.Fraction >= s.monitor.Threshold() {
				return fmt.Errorf("heap at %.0f%% (threshold %.0f%%)",
					sample.Fraction*100, s.monitor.Threshold()*100)
			}
			return nil
		}},
		{Name: "breakers", Probe: func(context.Context) error {
			var open []string
			for _, name := range s.devices.Names() {
				if st, ok := s.devices.Peek(name); ok {
					if res, ok := st.(*transport.Resilient); ok && res.BreakerOpen() {
						open = append(open, name)
					}
				}
			}
			if len(open) > 0 {
				return fmt.Errorf("circuit breaker open: %s", strings.Join(open, ", "))
			}
			return nil
		}},
		{Name: "stores", Probe: func(context.Context) error {
			names := s.devices.Names()
			if len(names) == 0 {
				return nil // a store-less system is valid (no swapping)
			}
			for _, name := range names {
				if s.conn.Up(name) {
					return nil
				}
			}
			return fmt.Errorf("no reachable device (%d attached)", len(names))
		}},
		{Name: "evictor", Probe: func(context.Context) error {
			if !s.rt.HasEvictor() {
				return errors.New("no evictor installed")
			}
			if since, running := s.rt.EvictingSince(); running {
				if age := s.obsReg.Clock().Now().Sub(since); age > evictorStuckAfter {
					return fmt.Errorf("eviction walk stalled: a victim's swap-out in flight for %s", age)
				}
			}
			return nil
		}},
	}
	checks = append(checks, opshttp.Check{Name: "thrash", Probe: func(context.Context) error {
		// Degrades while the telemetry plane sees sustained swap ping-pong
		// (swap-ins landing right after swap-outs of the same cluster);
		// recovers once the decayed score falls below the low-water mark.
		return s.telem.HealthCheck()
	}})
	if s.rt.Replicas() > 1 {
		checks = append(checks, opshttp.Check{Name: "underreplicated", Probe: func(context.Context) error {
			if under := s.rt.UnderReplicated(0); len(under) > 0 {
				return fmt.Errorf("%d cluster(s) below %d live replicas", len(under), s.rt.Replicas())
			}
			return nil
		}})
	}
	return checks
}

// OpsHandler assembles the operator-facing HTTP surface for this system:
// /metrics, /healthz (healthChecks), /debug/traces, /debug/events,
// /debug/heat, /debug/wss, /debug/prefetch and /debug/pprof. Mount it on a
// side port via
// opshttp.Start (the obiswap command's -ops flag does exactly this).
func (s *System) OpsHandler() http.Handler {
	return opshttp.NewHandler(opshttp.Options{
		Metrics:   s.obsReg,
		Recorder:  s.recorder,
		Checks:    healthChecks(s),
		Logger:    s.logger,
		Telemetry: s.telem,
		Prefetch:  s.rt,
	})
}

// Runtime exposes the swapping runtime, for its locked entries: host code
// that reads or writes the heap, or takes several steps as one, does so in
// Runtime().Locked, through the Held it is given (Held.Heap is the heap's one
// way in).
func (s *System) Runtime() *core.Runtime { return s.rt }

// Telemetry exposes the access-telemetry plane: cluster heat, working-set
// estimation, fault attribution and thrash scoring.
func (s *System) Telemetry() *telemetry.Tracker { return s.telem }

// Heap exposes the device heap for its atomic reads only: Used and
// StatsSnapshot. Anything else the heap offers is caller-locked and goes
// through Runtime().Locked and Held.Heap.
func (s *System) Heap() *heap.Heap { return s.heap }

// Bus exposes the middleware event bus.
func (s *System) Bus() *event.Bus { return s.bus }

// Monitor exposes the memory monitor.
func (s *System) Monitor() *devctx.MemoryMonitor { return s.monitor }

// AttachDevice registers a nearby device able to store swapped XML and marks
// it reachable. The store is wrapped in the transport resilience decorator
// (per-operation timeouts, bounded retry with backoff, a circuit breaker):
// breaker transitions feed the connectivity monitor — so the registry stops
// selecting an unhealthy device — and are published as
// transport.breaker.open / transport.breaker.close events.
func (s *System) AttachDevice(name string, st store.Store) error {
	res := transport.NewResilient(name, st, s.transportPol,
		transport.WithMetrics(s.metrics),
		transport.WithLogger(s.logger),
		transport.WithBreakerNotify(func(open bool) {
			s.conn.Set(name, !open)
			if open {
				s.bus.Emit(event.TopicBreakerOpen, name)
			} else {
				s.bus.Emit(event.TopicBreakerClose, name)
			}
		}))
	if err := s.devices.Add(name, res); err != nil {
		return err
	}
	s.conn.Set(name, true)
	return nil
}

// TransportSnapshot copies the aggregate transport metrics: attempts,
// retries, failovers, breaker trips, bytes moved and mean per-operation
// latency, in total and per device.
func (s *System) TransportSnapshot() TransportSnapshot {
	return s.metrics.Snapshot()
}

// ProbeDevices issues one direct health probe (a Stats round-trip through
// the resilience decorator, past the breaker gate) to every attached device
// whose circuit breaker is open, and returns the names of the devices that
// answered. A recovered device's breaker closes, the connectivity monitor
// marks it reachable, and transport.breaker.close / link.up events fire —
// so the registry resumes selecting it. Call this on whatever cadence the
// deployment's link dynamics suggest (or from a policy action); a
// breaker-open device receives no regular traffic, so nothing else can
// discover its recovery.
func (s *System) ProbeDevices(ctx context.Context) []string {
	var recovered []string
	for _, name := range s.devices.Names() {
		st, ok := s.devices.Peek(name)
		if !ok {
			continue
		}
		res, ok := st.(*transport.Resilient)
		if !ok || !res.BreakerOpen() {
			continue
		}
		if res.Probe(ctx) == nil {
			recovered = append(recovered, name)
		}
	}
	return recovered
}

// SetDeviceAvailable flips a device's reachability (connectivity change).
func (s *System) SetDeviceAvailable(name string, up bool) {
	s.conn.Set(name, up)
}

// RegisterClass registers an application class.
func (s *System) RegisterClass(c *heap.Class) error { return s.rt.RegisterClass(c) }

// MustRegisterClass registers a class, panicking on error.
func (s *System) MustRegisterClass(c *heap.Class) *heap.Class { return s.rt.MustRegisterClass(c) }

// NewCluster declares a fresh swap-cluster.
func (s *System) NewCluster() ClusterID { return s.rt.Manager().NewCluster() }

// NewObject allocates an application object into a swap-cluster, checking
// the memory monitor afterwards so pressure policies run promptly. Write the
// returned object through SetField (o.RefTo()), not Object.Set, which would
// write the heap outside the runtime's hold.
func (s *System) NewObject(c *heap.Class, cluster ClusterID) (*heap.Object, error) {
	o, err := s.rt.NewObject(c, cluster)
	if err != nil {
		return nil, err
	}
	s.monitor.Check()
	return o, nil
}

// Scope runs fn and keeps every reference s hands out meanwhile (NewObject,
// Field, Invoke, Root, MustRoot, AssignedCursor) live until the last open
// scope closes, through swap-outs of its cluster. Outside a scope, a call's
// references live until a later call hands out others: enough to allocate an
// object and link or root it. Hold several across calls, or call s from
// several goroutines, inside a scope.
func (s *System) Scope(fn func() error) error { return s.rt.Scope(fn) }

// Invoke dispatches a method through the swapping-aware runtime. The results
// may live in the runtime's call frames (heap.Call's lifetime rule): the slice
// is valid until the next Invoke, Field or SetField on s, which may take it as
// its arguments, and the objects it references stay live by Scope's rule.
func (s *System) Invoke(target heap.Value, method string, args ...heap.Value) ([]heap.Value, error) {
	return s.rt.Invoke(target, method, args...)
}

// Field reads a field through the swapping-aware runtime.
func (s *System) Field(target heap.Value, name string) (heap.Value, error) {
	return s.rt.Field(target, name)
}

// SetField writes a field through the swapping-aware runtime (references are
// re-mediated for the owning cluster). The monitor is checked afterwards as
// payload growth is an allocation too.
func (s *System) SetField(target heap.Value, name string, v heap.Value) error {
	if err := s.rt.SetFieldValue(target, name, v); err != nil {
		return err
	}
	s.monitor.Check()
	return nil
}

// SetRoot assigns a global variable (swap-cluster-0 state).
func (s *System) SetRoot(name string, v heap.Value) error { return s.rt.SetRoot(name, v) }

// Root reads a global variable.
func (s *System) Root(name string) (heap.Value, bool) { return s.rt.Root(name) }

// RefEqual compares two references for application-level identity across
// any mediating proxies.
func (s *System) RefEqual(a, b heap.Value) (bool, error) { return s.rt.RefEqual(a, b) }

// Assign enables the iteration optimization on a proxy reference.
func (s *System) Assign(v heap.Value) error { return s.rt.Assign(v) }

// AssignedCursor returns a self-patching cursor for iterating from v: each
// reference it yields (method return or field read) re-targets the same
// proxy instead of minting a new one per step — the paper's Section 4
// iteration optimization. Use it for long traversals on tight heaps.
func (s *System) AssignedCursor(v heap.Value) (heap.Value, error) {
	return s.rt.AssignedCursor(v)
}

// SwapOut detaches a swap-cluster to nearby devices. With no options the
// placement planner rendezvous-ranks the donors (weighted by free capacity)
// and ships Config.Replicas copies, extending past failed donors until a
// write quorum lands; WithContext bounds the operation, WithDevice pins a
// single destination, WithReplicas overrides the factor for this call,
// WithNoFailover confines shipment to the top-ranked donors (no extension).
func (s *System) SwapOut(cluster ClusterID, opts ...SwapOption) (SwapEvent, error) {
	return s.rt.SwapOut(cluster, opts...)
}

// SwapIn prefetches a swapped cluster back. WithContext bounds the fetch; a timed-out swap-in leaves the cluster consistently swapped.
func (s *System) SwapIn(cluster ClusterID, opts ...SwapOption) (SwapEvent, error) {
	return s.rt.SwapIn(cluster, opts...)
}

// Evict frees at least need bytes: one collection first, then the victims
// ranked under strategy (0 selects VictimColdest) are swapped out one at a
// time, each one's memory returning as its swap-out commits.
func (s *System) Evict(strategy VictimStrategy, need int64) error {
	return s.rt.EvictWith(strategy, need)
}

// Collect runs a swapping-integrated garbage collection and reports how much
// it reclaimed. Before it returns, the swapping manager has forgotten every
// record of what it swept, the donors of the dead swapped clusters have been
// told to drop their copies, and the blocks of the swept proxies and
// replacement-objects wait in the heap's pool for the next mint or swap-out.
func (s *System) Collect() heap.CollectStats { return s.rt.Collect() }

// MergeClusters folds cluster src into dst, adapting swap granularity at
// runtime (boundary proxies between them are dismantled).
func (s *System) MergeClusters(dst, src ClusterID) error { return s.rt.MergeClusters(dst, src) }

// SplitCluster moves the given objects of cluster src into a fresh cluster,
// mediating the new boundary, and returns the new cluster's id.
func (s *System) SplitCluster(src ClusterID, members []heap.ObjID) (ClusterID, error) {
	return s.rt.SplitCluster(src, members)
}

// Clusters snapshots every swap-cluster's state.
func (s *System) Clusters() []ClusterInfo { return s.rt.Manager().InfoAll() }

// ReplicateFrom attaches an incremental replicator pulling from a master
// node over the given transport; groupSize replication clusters form one
// swap-cluster.
func (s *System) ReplicateFrom(t replication.Transport, groupSize int) *replication.Replicator {
	return replication.Attach(s.rt, t, replication.WithGroupSize(groupSize))
}

// SaveCheckpoint persists the device's full middleware state (resident
// clusters, swapped-cluster locations, roots, placeholders) to w — the
// Persistence module of the OBIWAN architecture.
func (s *System) SaveCheckpoint(w io.Writer) error { return s.rt.SaveCheckpoint(w) }

// LoadCheckpoint restores a checkpoint into this (fresh) system. Clusters
// that were swapped out at save time come back as swapped and fault in from
// their devices on first touch.
func (s *System) LoadCheckpoint(r io.Reader) error { return s.rt.LoadCheckpoint(r) }

// ErrNoRoot reports a missing named root.
var ErrNoRoot = errors.New("objectswap: no such root")

// MustRoot returns a named root or an error (convenience over Root).
func (s *System) MustRoot(name string) (heap.Value, error) {
	v, ok := s.Root(name)
	if !ok {
		return heap.Nil(), fmt.Errorf("%w: %q", ErrNoRoot, name)
	}
	return v, nil
}
