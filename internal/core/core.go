// Package core implements the paper's primary contribution: transparent
// Object-Swapping over swap-clusters.
//
// The object graph of a process is partitioned into swap-clusters — groups of
// objects treated as a single macro-object for swapping. Every reference that
// links two different swap-clusters is permanently mediated by a
// swap-cluster-proxy; references inside one swap-cluster are direct, so
// applications run at full speed on intra-cluster work. Proxies intercept
// every reference passed across a boundary (arguments and returns) and
// create, reuse, patch or dismantle swap-cluster-proxies so the invariant is
// maintained as the application navigates and mutates the graph.
//
// When memory must be freed, a swap-cluster is detached: a replacement-object
// (an array of references to the cluster's outbound proxies) is created,
// every inbound proxy is patched to target it, the cluster's objects are
// serialized to XML and shipped to a nearby device, and the local collector
// reclaims their memory. Touching any inbound proxy afterwards faults the
// whole cluster back in: the XML is fetched, objects are reinstalled under
// their original identities, inbound proxies are re-patched, and the
// replacement-object becomes garbage. When a replacement-object itself
// becomes unreachable, the whole swapped cluster is dead and the storing
// device is told to drop the XML — the paper's local-only GC integration.
//
// The Runtime type wires this machinery into the managed heap's Invoker
// indirection; the Manager type is the paper's SwappingManager.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"objectswap/internal/event"
	"objectswap/internal/fault"
	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/placement"
	"objectswap/internal/store"
	"objectswap/internal/telemetry"
	"objectswap/internal/wire"
)

// ClusterID names a swap-cluster within one Runtime. RootCluster (0) holds
// global variables and static state (the paper's swap-cluster-0); it is never
// swapped out.
type ClusterID uint32

// RootCluster is swap-cluster-0.
const RootCluster ClusterID = 0

// Hidden field names of middleware classes. The "$" prefix keeps them out of
// application field namespaces.
const (
	fldTarget = "$target"   // proxy: ref to the target object or its replacement
	fldObj    = "$obj"      // proxy: ultimate target ObjID (stable across swaps)
	fldSrc    = "$src"      // proxy: source cluster id
	fldMode   = "$mode"     // proxy: 0 = normal, 1 = assign-optimized
	fldClust  = "$cluster"  // replacement: swapped cluster id
	fldOut    = "$outbound" // replacement: list of refs to outbound proxies
)

const (
	proxyModeNormal int64 = 0
	proxyModeAssign int64 = 1
)

// proxyClassName is the class of swap-cluster-proxies.
const proxyClassName = "$SwapProxy"

// replacementClassName is the class of replacement-objects.
const replacementClassName = "$Replacement"

// Errors reported by the swapping runtime.
var (
	// ErrRootCluster reports an attempt to swap out swap-cluster-0.
	ErrRootCluster = errors.New("core: swap-cluster-0 cannot be swapped")
	// ErrClusterSwapped reports an operation requiring a resident cluster.
	ErrClusterSwapped = errors.New("core: cluster is swapped out")
	// ErrClusterLoaded reports a swap-in of a cluster that is resident.
	ErrClusterLoaded = errors.New("core: cluster is not swapped out")
	// ErrUnknownCluster reports an undeclared cluster id.
	ErrUnknownCluster = errors.New("core: unknown cluster")
	// ErrClusterEmpty reports a swap-out of a cluster with no members (its
	// objects may all have been collected).
	ErrClusterEmpty = errors.New("core: cluster is empty")
	// ErrNoStores reports swapping without a configured device registry.
	ErrNoStores = errors.New("core: no store registry configured")
	// ErrNotProxy reports an Assign call on something that is not a
	// swap-cluster-proxy reference.
	ErrNotProxy = errors.New("core: not a swap-cluster-proxy reference")
	// ErrClusterBusy reports a swap operation on a cluster whose swap-out or
	// swap-in is already in flight on another goroutine.
	ErrClusterBusy = errors.New("core: cluster swap in progress")
	// ErrNoRepair reports a repair request for a cluster already holding its
	// full replica set on live donors.
	ErrNoRepair = errors.New("core: cluster needs no repair")
	// ErrNoLiveReplica reports a repair (or swap-in) finding no reachable
	// donor holding the cluster's payload — the cluster is unrecoverable
	// until one of its donors returns.
	ErrNoLiveReplica = errors.New("core: no live replica")
	// ErrCorruptReplica reports a fetched payload whose checksum disagrees
	// with the one recorded at swap-out: the donor's copy rotted at rest.
	// Swap-in and repair treat it like a dead replica and fall through to
	// the next one.
	ErrCorruptReplica = errors.New("core: replica payload corrupt")
)

// FaultHandler resolves an incremental-replication object fault: it must
// replicate the cluster containing remote, the home-node identity an
// object-fault proxy stands for, and return a reference to the now-resident
// replica. It runs with the runtime lock released and reaches the runtime
// through its exported entries. Implemented by the replication package.
type FaultHandler interface {
	HandleFault(rt *Runtime, remote heap.ObjID) (heap.Value, error)
}

// SwapEvent is the payload of swap.out / swap.in / swap.drop events.
type SwapEvent struct {
	Cluster ClusterID
	Device  string
	Key     string
	Objects int
	Bytes   int // payload bytes moved over the link (in the negotiated wire format)
	// Clean marks a swap-out that shipped nothing: the cluster was unchanged
	// since its retained copy was anchored and left on it (Bytes 0, no store
	// call). Key, Format and Replicas are the retained copy's; Requested,
	// Quorum and Attempted are zero — no shipment was planned.
	Clean bool
	// Format is the wire format the payload moved in ("xml", "binary",
	// "binary+flate"). Empty on events not tied to one transfer.
	Format string
	// Requested is the replica count K the swap-out aimed for; Quorum is the
	// write quorum that applied. Shortfall = Requested - len(Replicas) when
	// positive: the shipment committed (quorum met) but the donor
	// neighborhood was too sparse for full replication — surfaced here on the
	// event itself, not only through the underreplicated gauge, so callers
	// see the degraded durability of this very swap-out.
	Requested int
	Quorum    int
	Shortfall int
	// Trace is the operation's cross-device trace ID, carried to the serving
	// device in the X-Obiswap-Trace header. Empty on events that are not tied
	// to one traced operation (drop).
	Trace string
	// Attempted lists the devices that failed the operation before it
	// settled: rejected swap-out destinations (failover trail), or dead
	// replicas a swap-in fell through before one served the payload.
	Attempted []string
	// Replicas is the full replica set holding the payload after the
	// operation, primary (Device) first; a singleton under the default
	// replication factor of 1. On swap-in completion it is the set that keeps
	// the payload as the cluster's retained copy.
	Replicas []string
	// Phases is the per-phase timing and byte breakdown of the completed
	// operation (reserve → snapshot → negotiate → encode → ship → commit for
	// a swap-out, reserve → snapshot → commit for a clean one; reserve →
	// fetch → decode → evict → install for a swap-in),
	// as recorded by the runtime's tracer. Empty on mid-flight events
	// (failover, drop).
	Phases []obs.Phase
	// Duration is the whole-operation time from the same trace span.
	Duration time.Duration
	// Cause attributes the swap (one of the Cause* constants): explicit API
	// call, evictor pressure, policy action, implicit reload, or repair.
	// Empty on events not tied to one attributed operation.
	Cause string
}

// Runtime is the swapping-aware Invoker: the OBIWAN middleware instance
// running on one constrained device. It is one monitor (lock.go): mu guards
// the heap, the cluster table, the event outbox and every field below that is
// neither atomic nor set before the runtime is shared.
type Runtime struct {
	mu     sync.Mutex
	outbox *outbox

	h   *heap.Heap
	reg *heap.Registry
	bus *event.Bus

	mgr *Manager
	// stores resolves the nearby devices by name, and placer, built over it
	// when it is set, ranks them and ships replicated payloads.
	stores *store.Registry
	placer *placement.Planner
	// defaultReplicas is the runtime-wide replication factor K (minimum 1).
	defaultReplicas int
	// wireFormats is the shipment-format preference order (see WithWireFormats).
	// Donors that do not advertise a preferred format get the next one; XML is
	// the implicit universal fallback.
	wireFormats []string

	// evictor is invoked on allocation failure to free memory (the policy
	// engine installs a swap-out action here).
	evictor func(need int64) error

	faultHandler FaultHandler

	// stack holds the receivers, arguments and freshly created middleware
	// objects of in-flight invocations; it stands in for thread stacks as GC
	// roots. frames holds one heap.Call per depth, indexed by depth and
	// released by the same frame.leave that pops the stack. Both are read and
	// written under mu, but belong to the one goroutine that dispatches at a
	// time: the lock orders the collectors and workers against it, not a
	// second dispatcher.
	stack  []heap.ObjID
	depth  int
	frames heap.Frames
	hosts  []hostRef    // the host roots (hand)
	scopes int          // open Scope calls
	roots  []heap.ObjID // the buffer rootSet hands the heap's passes
	// minted is the proxy the last mint made (newProxy): handing it to host
	// code reads its header without a lookup (keep) while the block is still
	// resident under the id handed.
	minted *heap.Object
	// dispatcher is the goroutine that opened the outermost frame, and
	// stackTrace the buffer its id is read through, both kept in the
	// lockcount build only (assertDispatcher): 0 and nil otherwise.
	dispatcher uint64
	stackTrace []byte

	// mutating counts the open sections that allocate and must keep mu
	// (beginMutate); while nonzero, the evictor, which releases it, stays out.
	mutating int
	// yield, nil outside tests, runs with mu held where another goroutine
	// could act before the runtime was one monitor: "mint" after newProxy's
	// enlist, "commit" before a swap commit's settle.
	yield func(at string)

	name     string
	keyseq   atomic.Uint64
	evicting bool // an evictor pass is running (runEvictor); under mu
	// evictDepth counts the eviction-walk victims whose swap-out is in
	// flight; evictStart is the registry-clock time (unix nanos) the oldest
	// of them started, 0 when none is. The evictor health check reads it.
	evictDepth atomic.Int32
	evictStart atomic.Int64
	traceSeq   atomic.Uint64

	// Observability spine. NewRuntime installs a private registry when none
	// is supplied via WithObs, so swap spans (and SwapEvent.Phases) are
	// always recorded.
	obsReg     *obs.Registry
	tracer     *obs.Tracer
	swapErrors *obs.CounterVec
	coreEvents *obs.CounterVec
	recorder   *obs.Recorder
	logger     *slog.Logger
	// telem, when set (WithTelemetry), keeps heat and thrash in the cluster
	// ledgers feed writes and reads them back through eachLedger (ledger.go).
	// Nil-safe: without one the ledgers carry their counters only.
	telem *telemetry.Tracker

	// faults is the asynchronous fault engine: single-flight coalescing of
	// concurrent swap-ins, direct donor reads, and (when enabled via
	// WithPrefetch) the graph-driven prefetcher. Always non-nil after
	// NewRuntime.
	faults          *fault.Engine
	prefetchDepth   int
	prefetchWorkers int

	// The middleware classes: one each for every swap-cluster-proxy,
	// replacement-object and object-fault proxy, whatever the class behind it.
	proxyClass       *heap.Class
	replacementClass *heap.Class
	objProxyClass    *heap.Class
	// classes lists the application classes in registration order; a
	// member run's class indexes it, and classIndex maps a class name to
	// that index.
	classes    []*heap.Class
	classIndex map[string]uint32
}

var _ heap.Invoker = (*Runtime)(nil)

// Option configures a Runtime.
type Option func(*Runtime)

// WithBus publishes middleware events (swap.out, swap.in, swap.drop) on bus.
func WithBus(bus *event.Bus) Option {
	return func(rt *Runtime) { rt.bus = bus }
}

// WithStores attaches the registry of nearby devices used for swapping.
func WithStores(r *store.Registry) Option {
	return func(rt *Runtime) { rt.stores = r }
}

// WithObs records the runtime's swap spans, phase timings and event counters
// in r instead of a private registry, so one scrape covers the whole
// middleware instance.
func WithObs(r *obs.Registry) Option {
	return func(rt *Runtime) {
		if r != nil {
			rt.obsReg = r
		}
	}
}

// WithFlightRecorder retains every finished swap span (with phase timings,
// trace ID, device and outcome) in rec for post-incident look-back.
func WithFlightRecorder(rec *obs.Recorder) Option {
	return func(rt *Runtime) { rt.recorder = rec }
}

// WithLogger emits structured records for swap outcomes and evictions. A nil
// logger (the default) logs nothing.
func WithLogger(lg *slog.Logger) Option {
	return func(rt *Runtime) { rt.logger = lg }
}

// WithTelemetry attaches the telemetry plane: t keeps heat and thrash in
// the runtime's cluster ledgers, reads them through the manager, and receives
// completed swap faults.
func WithTelemetry(t *telemetry.Tracker) Option {
	return func(rt *Runtime) { rt.telem = t }
}

// WithName sets the device's name, which prefixes every storage key it
// writes. The paper requires each stored set "be given a unique ID";
// when several devices share a neighborhood store, the name keeps their
// shipments apart. Defaults to a process-unique "devN".
func WithName(name string) Option {
	return func(rt *Runtime) {
		if name != "" {
			rt.name = name
		}
	}
}

// WithDefaultReplicas sets the runtime-wide replication factor K: every
// unpinned swap-out ships its payload to K donors (committing on a majority
// write quorum) unless a per-call WithReplicas overrides it. Values below 1
// are clamped to 1 — the paper's single-donor behavior.
func WithDefaultReplicas(k int) Option {
	return func(rt *Runtime) {
		if k > 1 {
			rt.defaultReplicas = k
		}
	}
}

// WithWireFormats sets the shipment-format preference order for negotiated
// swap-outs (wire.FormatID strings, most preferred first). The default is
// ["binary", "xml"]: the length-prefixed binary framing when the donors
// support it, the universal XML wrapper otherwise. XML is always available as
// the implicit fallback even when not listed.
func WithWireFormats(formats ...string) Option {
	return func(rt *Runtime) {
		if len(formats) > 0 {
			rt.wireFormats = append([]string(nil), formats...)
		}
	}
}

// runtimeSeq hands out process-unique default device names. A default name
// is fixed-width ("dev" and twelve digits, the width an operation's record
// sizes a trace id for), so every key a default-named runtime mints has the
// same length whichever runtime of its process it is.
var runtimeSeq uint64

// NewRuntime builds a swapping runtime over a device heap and class registry.
// On capacity-limited heaps without a configured reserve, a default
// middleware headroom is installed so proxies and replacement-objects can be
// allocated under full memory pressure (see heap.SetReserve).
func NewRuntime(h *heap.Heap, reg *heap.Registry, opts ...Option) *Runtime {
	rt := &Runtime{
		h:          h,
		reg:        reg,
		classIndex: make(map[string]uint32),
		name:       fmt.Sprintf("dev%012d", atomic.AddUint64(&runtimeSeq, 1)),
	}
	rt.frames = heap.NewFrames((*Held)(rt))
	// The middleware classes are not registered in the application registry
	// (swapped XML never mentions them).
	rt.proxyClass = buildProxyClass()
	rt.replacementClass = buildReplacementClass()
	rt.objProxyClass = buildObjProxyClass()
	for _, opt := range opts {
		opt(rt)
	}
	rt.logger = obs.Logger(rt.logger)
	rt.mgr = newManager(rt)
	if cap := h.Capacity(); cap > 0 && h.Reserve() == 0 {
		reserve := cap / 16
		if reserve < 512 {
			reserve = 512
		}
		h.SetReserve(reserve)
	}
	if rt.obsReg == nil {
		rt.obsReg = obs.NewRegistry(nil)
	}
	if len(rt.wireFormats) == 0 {
		rt.wireFormats = []string{string(wire.FormatBinary), string(wire.FormatXML)}
	}
	if rt.stores != nil {
		rt.placer = placement.New(rt.stores, placement.Options{Obs: rt.obsReg, Logger: rt.logger})
	}
	// A cluster leaves without a byte only while nothing was written since its
	// retained copy was anchored, and a write in place is a touch on its heat.
	h.AddWriteObserver(func(o *heap.Object) { rt.mgr.touch(o, true) })
	h.RegisterOwner(rt.owner())
	if rt.telem != nil {
		rt.telem.Watch(rt.mgr.eachLedger)
	}
	rt.instrument()
	rt.faults = fault.New(fault.Config{
		Obs:             rt.obsReg,
		PrefetchDepth:   rt.prefetchDepth,
		PrefetchWorkers: rt.prefetchWorkers,
		Neighbors:       rt.mgr.neighbors,
		SwapIn:          rt.prefetchSwapIn,
	})
	return rt
}

// shipFormats is the preference order a swap-out negotiates: the configured
// preferences, with XML appended as the universal fallback when not listed.
func (rt *Runtime) shipFormats() []string {
	if slices.Contains(rt.wireFormats, string(wire.FormatXML)) {
		return rt.wireFormats
	}
	return append(slices.Clip(rt.wireFormats), string(wire.FormatXML))
}

// beginMutate opens a section that allocates and must keep the runtime lock
// throughout (swap-in install, the replacement-object build, resize
// re-mediation, checkpoint restore). While any such section is open,
// allocation failures report ErrOutOfMemory instead of running the evictor,
// which lets go of the lock. The returned func closes the section.
func (rt *Runtime) beginMutate() func() {
	rt.mutating++
	return func() { rt.mutating-- }
}

// resolveCause defaults an unattributed swap: to the evictor while an
// eviction pass is in flight, and to an explicit API call otherwise.
func (rt *Runtime) resolveCause(cause string) string {
	if cause != "" {
		return cause
	}
	if rt.evicting {
		return CauseEvictor
	}
	return CauseExplicit
}

// instrument registers the runtime's span tracer, error and event counters,
// and cluster-residency gauges in its registry.
func (rt *Runtime) instrument() {
	r := rt.obsReg
	rt.tracer = obs.NewTracer(r, "objectswap_swap")
	rt.tracer.SetRecorder(rt.recorder)
	rt.swapErrors = r.CounterVec("objectswap_swap_errors_total",
		"Failed swap operations by operation.", "op")
	rt.coreEvents = r.CounterVec("objectswap_core_events_total",
		"Middleware events published by the swapping runtime, by topic.", "topic")
	// The family reads the table's by-residency tally: a reserved cluster
	// counts on the side of the swap it is on, and also as busy.
	states := [...]struct {
		name string
		in   func(residency) bool
	}{
		{"resident", func(r residency) bool { return !r.out() }},
		{"swapped", residency.out},
		{"busy", residency.reserved},
	}
	clusters := r.GaugeVec("objectswap_core_clusters",
		"Swap-clusters by residency state.", "state")
	for _, st := range states {
		clusters.WithFunc(func() float64 { return rt.count(st.in) }, st.name)
	}
	repl := r.GaugeVec("objectswap_placement_replicas",
		"Replica health of swapped clusters.", "stat")
	repl.WithFunc(func() float64 {
		return float64(len(rt.UnderReplicated(0)))
	}, "underreplicated")
	repl.WithFunc(func() float64 {
		live, swapped := rt.liveReplicaTotals()
		if swapped == 0 {
			return 0
		}
		return float64(live) / float64(swapped)
	}, "factor")
	// Constant 1; the labels carry the build-time configuration so
	// dashboards can correlate config changes with perf shifts across soaks.
	r.GaugeVec("objectswap_build_info",
		"Constant gauge whose labels record the configured replication factor and wire-format preference order.",
		"replicas", "formats").
		With(strconv.Itoa(rt.Replicas()), strings.Join(rt.wireFormats, ",")).Set(1)
}

// Obs returns the runtime's observability registry (never nil).
func (rt *Runtime) Obs() *obs.Registry { return rt.obsReg }

// Logger returns the runtime's structured logger (never nil).
func (rt *Runtime) Logger() *slog.Logger { return rt.logger }

// HasEvictor reports whether an allocation-pressure hook is installed.
func (rt *Runtime) HasEvictor() bool { return rt.evictor != nil }

// EvictingSince reports the registry-clock start time of the oldest victim
// swap-out an eviction walk has in flight, if any; the evictor's pass and the
// policy engine's swap-out action both walk through SwapOutVictims. The
// evictor health check flags a walk whose victim has not finished in time.
func (rt *Runtime) EvictingSince() (time.Time, bool) {
	ns := rt.evictStart.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// beginEvict marks one victim's swap-out in flight and endEvict clears the
// mark. Nested and concurrent victims share the oldest start time; the mark
// clears when the last of them ends.
func (rt *Runtime) beginEvict() {
	if rt.evictDepth.Add(1) == 1 {
		rt.evictStart.Store(rt.obsReg.Clock().Now().UnixNano())
	}
}

func (rt *Runtime) endEvict() {
	if rt.evictDepth.Add(-1) == 0 {
		rt.evictStart.Store(0)
	}
}

// Registry returns the class registry.
func (rt *Runtime) Registry() *heap.Registry { return rt.reg }

// Manager returns the SwappingManager.
func (rt *Runtime) Manager() *Manager { return rt.mgr }

// Bus returns the event bus, which may be nil.
func (rt *Runtime) Bus() *event.Bus { return rt.bus }

// SetEvictor installs the allocation-pressure hook, before the runtime is
// shared: when an allocation fails with ErrOutOfMemory, the runtime calls
// evict(need) once, with the runtime lock released, and retries.
func (rt *Runtime) SetEvictor(evict func(need int64) error) { rt.evictor = evict }

// SetFaultHandler installs (or, with nil, removes) the incremental-replication
// fault handler, under the runtime lock, so it may be changed on a shared
// runtime; the handler runs with the lock released.
func (rt *Runtime) SetFaultHandler(fh FaultHandler) {
	rt.lock()
	defer rt.unlock()
	rt.faultHandler = fh
}

// RegisterClass registers an application class. Middleware classes must not
// be registered this way.
func (rt *Runtime) RegisterClass(c *heap.Class) error {
	if c == nil {
		return errors.New("core: RegisterClass: nil class")
	}
	if c.Special != heap.SpecialNone {
		return fmt.Errorf("core: RegisterClass: %s is a middleware class", c.Name)
	}
	rt.lock()
	defer rt.unlock()
	if err := rt.reg.Register(c); err != nil {
		return err
	}
	rt.classIndex[c.Name] = uint32(len(rt.classes))
	rt.classes = append(rt.classes, c)
	return nil
}

// MustRegisterClass is RegisterClass that panics on error.
func (rt *Runtime) MustRegisterClass(c *heap.Class) *heap.Class {
	if err := rt.RegisterClass(c); err != nil {
		panic(err)
	}
	return c
}

// allocApp allocates an application object, invoking the evictor once on
// memory pressure. Evictions do not nest: an allocation failing while an
// eviction is already in progress reports ErrOutOfMemory directly rather
// than recursing. The caller holds the runtime lock, as for every allocation.
func (rt *Runtime) allocApp(c *heap.Class) (*heap.Object, error) {
	return rt.allocWith(false, c, nil)
}

// allocMiddleware allocates a middleware object (proxy, replacement-object)
// with access to the heap's reserve headroom, its leading fields set to init
// before it is resident (heap.NewPrivileged).
func (rt *Runtime) allocMiddleware(c *heap.Class, init ...heap.Value) (*heap.Object, error) {
	return rt.allocWith(true, c, init)
}

func (rt *Runtime) allocWith(privileged bool, c *heap.Class, init []heap.Value) (*heap.Object, error) {
	o, err := rt.alloc(privileged, c, init)
	if err == nil || !errors.Is(err, heap.ErrOutOfMemory) || rt.evictor == nil ||
		rt.evicting || rt.mutating > 0 {
		return o, err
	}
	need := int64(64 + 16*c.NumFields())
	if everr := rt.runEvictor(need); everr != nil {
		return nil, fmt.Errorf("%w (evictor: %v)", err, everr)
	}
	return rt.alloc(privileged, c, init)
}

// alloc is one allocation attempt of allocWith.
func (rt *Runtime) alloc(privileged bool, c *heap.Class, init []heap.Value) (*heap.Object, error) {
	if privileged {
		return rt.h.NewPrivileged(c, init...)
	}
	return rt.h.New(c)
}

// runEvictor invokes the evictor hook under the re-entrancy guard, with the
// runtime lock released: the hook evicts through the exported entries.
func (rt *Runtime) runEvictor(need int64) (err error) {
	if rt.evicting {
		return errors.New("core: eviction already in progress")
	}
	rt.evicting = true
	defer func() { rt.evicting = false }()
	rt.logger.LogAttrs(context.Background(), slog.LevelDebug, "eviction start",
		slog.Int64("need", need))
	rt.unlocked(func() { err = rt.evictor(need) })
	if err != nil {
		rt.logger.Warn("eviction failed", "need", need, "err", err)
	}
	return err
}

// appendTrace appends the text of trace seq to b: the device name, a dash and
// the sequence as at least eight hex digits. Trace IDs are deterministic
// (device name + sequence), so replayed runs produce identical
// flight-recorder dumps.
func (rt *Runtime) appendTrace(b []byte, seq uint64) []byte {
	b = append(append(b, rt.name...), '-')
	var hex [16]byte
	digits := strconv.AppendUint(hex[:0], seq, 16)
	for i := len(digits); i < 8; i++ { // as %08x
		b = append(b, '0')
	}
	return append(b, digits...)
}

// NewObject allocates an application object and assigns it to a swap-cluster.
// The cluster must have been created with Manager.NewCluster (or be
// RootCluster).
func (rt *Runtime) NewObject(c *heap.Class, cluster ClusterID) (*heap.Object, error) {
	rt.lock()
	defer rt.unlock()
	return (*Held)(rt).NewObject(c, cluster)
}

// NewObject is Runtime.NewObject under the caller's hold.
func (h *Held) NewObject(c *heap.Class, cluster ClusterID) (*heap.Object, error) {
	rt := (*Runtime)(h)
	if c.Special != heap.SpecialNone {
		return nil, fmt.Errorf("core: NewObject: %s is a middleware class", c.Name)
	}
	// The class registered under the name, not one that only shares it: a
	// reload installs members by their registered class's fields.
	class, ok := rt.classIndex[c.Name]
	if !ok || rt.classes[class] != c {
		return nil, fmt.Errorf("core: NewObject: class %s not registered with RegisterClass", c.Name)
	}
	// Allocating into a swapped-out cluster faults it back in first: the new
	// object joins its cluster-mates wherever they are.
	if _, out := rt.mgr.shipmentOf(cluster); out {
		if err := rt.reload(cluster); err != nil {
			return nil, fmt.Errorf("core: NewObject: %w", err)
		}
	}
	o, err := rt.allocApp(c)
	if err != nil {
		return nil, err
	}
	if err := rt.mgr.assign(o, cluster, class); err != nil {
		_ = rt.h.Remove(o.ID())
		return nil, err
	}
	rt.hand(o.RefTo())
	return o, nil
}

// SetRoot assigns a global variable (swap-cluster-0 state). The value is
// translated into cluster-0 perspective: references to objects of other
// clusters are wrapped in swap-cluster-proxies.
func (rt *Runtime) SetRoot(name string, v heap.Value) error {
	rt.lock()
	defer rt.unlock()
	return (*Held)(rt).SetRoot(name, v)
}

// SetRoot is Runtime.SetRoot under the caller's hold.
func (h *Held) SetRoot(name string, v heap.Value) error {
	rt := (*Runtime)(h)
	tv, err := rt.translate(v, RootCluster)
	if err != nil {
		return err
	}
	rt.h.SetRoot(name, tv)
	return nil
}

// Root reads a global variable as stored (possibly a proxy reference).
func (rt *Runtime) Root(name string) (heap.Value, bool) {
	rt.lock()
	defer rt.unlock()
	v, ok := rt.h.Root(name)
	rt.hand(v)
	return v, ok
}

// Name returns the device's key-namespace name.
func (rt *Runtime) Name() string { return rt.name }

// Replicas returns the runtime's default replication factor K (at least 1).
func (rt *Runtime) Replicas() int {
	if rt.defaultReplicas < 1 {
		return 1
	}
	return rt.defaultReplicas
}

// nextKey builds a storage key for a swap-out, unique across the devices
// sharing a store (device name + cluster + generation).
func (rt *Runtime) nextKey(cluster ClusterID) string {
	var buf [64]byte
	b := append(append(buf[:0], rt.name...), "-swapcluster-"...)
	b = append(strconv.AppendUint(b, uint64(cluster), 10), "-gen"...)
	return string(strconv.AppendUint(b, rt.keyseq.Add(1), 10))
}
