// Package fault is the asynchronous object-fault engine: it owns the
// swap-in miss path between a proxy crossing and the swap core.
//
// Two mechanisms live here:
//
//   - Single-flight coalescing (Do): concurrent faults on the same cluster
//     park on one in-flight swap-in and all resume with its result — error
//     included — instead of queueing on the runtime lock and paying the
//     fetch once each. A failed flight is cleared before its waiters wake,
//     so an immediate retry starts fresh.
//
//   - A graph-driven prefetcher (TriggerPrefetch): a walker's arrival at a
//     cluster — a demand fault or a join of its flight, before the read runs
//     or is waited on, or a resident crossing that is a hit — ranks the
//     clusters nearest it along the replacement-object graph, hop by hop,
//     and a small worker pool keeps the first PrefetchDepth of them in
//     flight through the normal reserve/commit path, gated by a
//     heap-pressure admission check. A cluster stays in the task set from
//     enqueue until its worker finishes, so a later trigger never queues it
//     twice; a trigger that comes while the task runs makes a task that
//     ends without installing run once more, since what it found may be
//     stale by then. An installed cluster enters the inventory (Installed); the
//     crossing that next reaches it — resident, or by joining its flight —
//     consumes the entry as the one prefetch hit (ConsumeHit), and an
//     eviction that beats the touch counts it as wasted (NoteEvicted).
//
// Donor reads (Fetch) go out directly: a fetch never waits behind another, so
// the prefetch window's round trips overlap on the link.
//
// The package deliberately knows nothing about the swap core: the core
// injects its graph, swap-in and admission behavior through the Config
// callbacks, which keeps the dependency arrow pointing downward.
package fault

import (
	"context"
	"sort"
	"sync"

	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// Config parameterizes an Engine. Only Obs is required; an Engine with nil
// callbacks degrades to pure single-flight coalescing.
type Config struct {
	// Obs is the registry the engine instruments itself into (nil: a
	// private registry, keeping the engine usable in isolation).
	Obs *obs.Registry
	// PrefetchDepth is the number of clusters kept in flight ahead of a
	// fault along the replacement-object graph (0 disables the prefetcher).
	PrefetchDepth int
	// PrefetchWorkers sizes the background worker pool (default 2).
	PrefetchWorkers int
	// Neighbors appends to buf[:0] the at most k clusters nearest cluster
	// along replacement-object edges, best first, and returns the result. It
	// must not allocate when cap(buf) >= k. It runs on the caller of
	// TriggerPrefetch or Rank, which holds the lock guarding the graph.
	Neighbors func(cluster uint32, k int, buf []uint32) []uint32
	// SwapIn performs one speculative swap-in and reports whether this call
	// installed the cluster (false when it was already resident, mid-flight
	// elsewhere, or gone). The swap-in reports its install through Installed
	// before the cluster becomes visible as resident.
	SwapIn func(cluster uint32) (installed bool, err error)
	// Admit is the heap-pressure guard consulted before every speculative
	// swap-in; nil admits everything. Replaceable later via SetAdmit.
	Admit func() bool
}

// flight is one in-progress swap-in shared by every coalesced waiter. A
// flight no waiter joined goes back on the engine's free list; one that a
// waiter joined is never reused, since its waiters read res and err after the
// leader has moved on.
type flight struct {
	done chan struct{} // made under fmu by the first waiter to join; nil for a lone leader
	res  any
	err  error
}

// Engine coordinates coalesced faults and background prefetch for one
// runtime. The zero value is not usable; construct with New.
type Engine struct {
	cfg Config

	fmu     sync.Mutex
	flights map[uint32]*flight
	free    []*flight // flights no waiter joined, for the next leader

	pmu       sync.Mutex
	idle      *sync.Cond // signaled when tasks empties
	admit     func() bool
	window    []uint32             // TriggerPrefetch's reused buffer; nil while lent out
	tasks     map[uint32]taskState // enqueued or running, until the task ends
	inventory map[uint32]int64     // prefetched cluster -> resident bytes
	stopped   bool
	queue     chan uint32
	wg        sync.WaitGroup

	coalesced   *obs.Counter
	prefetches  *obs.CounterVec
	wastedBytes *obs.Counter
}

// Prefetch outcome labels for objectswap_prefetch_events_total.
const (
	prefEnqueued = "enqueued"
	prefDropped  = "dropped"
	prefSkipped  = "skipped-pressure"
	prefNoop     = "noop"
	prefError    = "error"
	prefInstall  = "installed"
	prefHit      = "hit"
	prefWasted   = "wasted"
)

// New builds an Engine and, when cfg enables prefetching, starts its worker
// pool. Call Stop to wind the workers down.
func New(cfg Config) *Engine {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry(nil)
	}
	if cfg.PrefetchWorkers <= 0 {
		cfg.PrefetchWorkers = 2
	}
	e := &Engine{
		cfg:       cfg,
		flights:   make(map[uint32]*flight),
		admit:     cfg.Admit,
		tasks:     make(map[uint32]taskState),
		inventory: make(map[uint32]int64),
		coalesced: cfg.Obs.Counter("objectswap_fault_coalesced_total",
			"Faults that parked on another goroutine's in-flight swap-in."),
		prefetches: cfg.Obs.CounterVec("objectswap_prefetch_events_total",
			"Prefetcher outcomes by event.", "event"),
		wastedBytes: cfg.Obs.Counter("objectswap_prefetch_wasted_bytes_total",
			"Bytes of prefetched clusters evicted before any touch."),
	}
	e.idle = sync.NewCond(&e.pmu)
	if e.prefetchEnabled() {
		e.window = make([]uint32, 0, cfg.PrefetchDepth)
		e.queue = make(chan uint32, 64*cfg.PrefetchWorkers)
		for i := 0; i < cfg.PrefetchWorkers; i++ {
			e.wg.Add(1)
			go e.worker()
		}
	}
	return e
}

func (e *Engine) prefetchEnabled() bool {
	return e.cfg.PrefetchDepth > 0 && e.cfg.Neighbors != nil && e.cfg.SwapIn != nil
}

// Do runs one coalesced fault on cluster. The first caller becomes the
// flight leader and executes run; every caller that arrives while the flight
// is open parks and resumes with the leader's result and error — the very
// value run returned, not a copy. leader reports which role this call played.
// The flight is removed from the table before the waiters wake, so a retry
// after an error starts a fresh flight.
//
// A fault no one joins allocates nothing here: its flight comes off the
// engine's free list and goes back on it, and the channel waiters park on is
// made only when the first of them arrives.
func (e *Engine) Do(cluster uint32, run func() (any, error)) (res any, leader bool, err error) {
	if e == nil {
		res, err = run()
		return res, true, err
	}
	e.fmu.Lock()
	if f, ok := e.flights[cluster]; ok {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		e.fmu.Unlock()
		e.coalesced.Inc()
		<-f.done
		return f.res, false, f.err
	}
	var f *flight
	if n := len(e.free); n > 0 {
		f, e.free = e.free[n-1], e.free[:n-1]
	} else {
		f = new(flight)
	}
	e.flights[cluster] = f
	e.fmu.Unlock()

	res, err = run()

	e.fmu.Lock()
	delete(e.flights, cluster)
	done := f.done
	if done == nil {
		e.free = append(e.free, f)
	} else {
		f.res, f.err = res, err
	}
	e.fmu.Unlock()
	if done != nil {
		close(done)
	}
	return res, true, err
}

// Fetch reads key from donor store s (the donor's name is not needed). It
// is a direct read: concurrent fetches, against one donor or several, go out
// at once and never wait behind one another, so the round trips of the
// prefetch window overlap.
func (e *Engine) Fetch(ctx context.Context, _ string, s store.Store, key string) ([]byte, error) {
	return s.Get(ctx, key)
}

// SetAdmit installs (or replaces) the heap-pressure admission guard. The
// facade calls this after the memory monitor exists; passing nil admits
// every speculative swap-in.
func (e *Engine) SetAdmit(fn func() bool) {
	if e == nil {
		return
	}
	e.pmu.Lock()
	e.admit = fn
	e.pmu.Unlock()
}

// TriggerPrefetch enqueues the PrefetchDepth clusters nearest cluster along
// the graph for speculative swap-in, skipping any already queued, running or
// prefetched (a running one reruns if it ends as a no-op; see enqueue).
// Called once per arrival — as a demand fault or a join begins, before its
// read runs or is waited on, and on a resident hit — it slides the window
// ahead of a pointer chase, so the window's reads overlap the walker's wait.
// It never blocks on the workers (a full queue drops the excess) and
// allocates nothing. The caller holds the graph's lock.
func (e *Engine) TriggerPrefetch(cluster uint32) {
	if e == nil || !e.prefetchEnabled() {
		return
	}
	// Borrow the window buffer; a trigger that overlaps another walks into a
	// fresh one, and the graph is queried with no engine lock held.
	e.pmu.Lock()
	window := e.window
	e.window = nil
	e.pmu.Unlock()
	window = e.cfg.Neighbors(cluster, e.cfg.PrefetchDepth, window)
	e.pmu.Lock()
	defer e.pmu.Unlock()
	for _, n := range window {
		e.enqueue(n)
	}
	if e.window == nil {
		e.window = window
	}
}

// taskState is where a cluster's prefetch task is.
type taskState uint8

const (
	taskQueued      taskState = iota
	taskRunning               // taken by a worker
	taskRetriggered           // running, and triggered again since it started
)

// enqueue queues cluster unless it is already a task or prefetched. A
// trigger for a running task is not queued again, but noted: if the task
// ends without installing, what it found (say, the cluster still resident)
// may be stale by then, and taskDone queues it once more. The caller holds
// e.pmu.
func (e *Engine) enqueue(cluster uint32) {
	if st, busy := e.tasks[cluster]; e.stopped || busy {
		if st == taskRunning {
			e.tasks[cluster] = taskRetriggered
		}
		return
	}
	if _, have := e.inventory[cluster]; have {
		return // already prefetched and untouched
	}
	e.push(cluster)
}

// push queues cluster as a task, or drops it when the queue is full. The
// caller holds e.pmu, and the engine is not stopped.
func (e *Engine) push(cluster uint32) bool {
	select {
	case e.queue <- cluster:
		e.tasks[cluster] = taskQueued
		e.prefetches.With(prefEnqueued).Inc()
		return true
	default:
		e.prefetches.With(prefDropped).Inc()
		return false
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for cluster := range e.queue {
		e.runPrefetch(cluster)
	}
}

// runPrefetch runs one task. The cluster leaves the task set only when the
// task ends, so a trigger while it runs does not queue it again; a task that
// ends as a no-op after such a trigger runs once more (enqueue).
func (e *Engine) runPrefetch(cluster uint32) {
	e.pmu.Lock()
	e.tasks[cluster] = taskRunning
	admit := e.admit
	e.pmu.Unlock()
	if admit != nil && !admit() {
		e.prefetches.With(prefSkipped).Inc()
		e.taskDone(cluster, false)
		return
	}
	installed, err := e.cfg.SwapIn(cluster)
	switch {
	case err != nil:
		e.prefetches.With(prefError).Inc()
	case !installed:
		e.prefetches.With(prefNoop).Inc()
	}
	e.taskDone(cluster, err == nil && !installed)
}

// taskDone ends cluster's task, or queues it again when it was a no-op that
// a trigger overtook (again).
func (e *Engine) taskDone(cluster uint32, again bool) {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if again && e.tasks[cluster] == taskRetriggered && !e.stopped && e.push(cluster) {
		return
	}
	delete(e.tasks, cluster)
	if len(e.tasks) == 0 {
		e.idle.Broadcast()
	}
}

// Installed records that a speculative swap-in made cluster resident with
// bytes of payload. The swap core calls it inside the install's critical
// section, before any crossing can see the cluster resident, so the crossing
// that next reaches it — or the fault that joined its flight — always finds
// the entry. A no-op without a prefetcher.
func (e *Engine) Installed(cluster uint32, bytes int64) {
	if e == nil || !e.prefetchEnabled() {
		return
	}
	e.pmu.Lock()
	e.inventory[cluster] = bytes
	e.pmu.Unlock()
	e.prefetches.With(prefInstall).Inc()
}

// ConsumeHit reports whether cluster was made resident by the prefetcher and
// not touched since and, if so, consumes the inventory entry — the one hit
// that install earns — and returns its payload size.
func (e *Engine) ConsumeHit(cluster uint32) (int64, bool) {
	if e == nil || !e.prefetchEnabled() {
		return 0, false // no prefetcher: the inventory never holds anything
	}
	e.pmu.Lock()
	bytes, ok := e.inventory[cluster]
	if ok {
		delete(e.inventory, cluster)
	}
	e.pmu.Unlock()
	if ok {
		e.prefetches.With(prefHit).Inc()
	}
	return bytes, ok
}

// NoteEvicted records that cluster left the heap. A still-unconsumed
// inventory entry means the prefetch was wasted: it paid a round trip and
// was evicted before any touch.
func (e *Engine) NoteEvicted(cluster uint32) {
	if e == nil {
		return
	}
	e.pmu.Lock()
	bytes, ok := e.inventory[cluster]
	if ok {
		delete(e.inventory, cluster)
	}
	e.pmu.Unlock()
	if ok {
		e.prefetches.With(prefWasted).Inc()
		e.wastedBytes.Add(float64(bytes))
	}
}

// Rank is the prefetch window for cluster right now — at most k clusters,
// best first, walked exactly as TriggerPrefetch walks it — the
// /debug/prefetch endpoint's payload. Nil when no graph callback is wired.
// The caller holds the graph's lock, as TriggerPrefetch's does.
func (e *Engine) Rank(cluster uint32, k int) []uint32 {
	if e == nil || e.cfg.Neighbors == nil || k <= 0 {
		return nil
	}
	return e.cfg.Neighbors(cluster, k, nil)
}

// Quiesce blocks until every enqueued and running prefetch task has
// finished. Tests and drain points use it; steady-state operation never
// needs to.
func (e *Engine) Quiesce() {
	if e == nil {
		return
	}
	e.pmu.Lock()
	for len(e.tasks) > 0 {
		e.idle.Wait()
	}
	e.pmu.Unlock()
}

// Stop shuts the prefetch worker pool down and waits for in-flight tasks.
// Coalescing keeps working after Stop; further TriggerPrefetch calls are
// no-ops. Safe to call multiple times.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.pmu.Lock()
	if e.stopped {
		e.pmu.Unlock()
		return
	}
	e.stopped = true
	if e.queue != nil {
		close(e.queue)
	}
	e.pmu.Unlock()
	// Workers drain what is already queued (range over a closed channel
	// keeps yielding buffered items), then exit.
	e.wg.Wait()
}

// InventoryEntry is one prefetched-but-untouched cluster.
type InventoryEntry struct {
	Cluster uint32 `json:"cluster"`
	Bytes   int64  `json:"bytes"`
}

// Snapshot is the /debug/prefetch view of the engine.
type Snapshot struct {
	Depth            int    `json:"depth"`
	Workers          int    `json:"workers"`
	CoalescedWaiters uint64 `json:"coalesced_waiters"`
	// BatchKeys is always 0: the owner no longer merges concurrent fetches
	// into multi-key donor reads. Kept for readers of the field.
	BatchKeys       uint64           `json:"batch_keys"`
	Enqueued        uint64           `json:"enqueued"`
	Installed       uint64           `json:"installed"`
	Hits            uint64           `json:"hits"`
	Wasted          uint64           `json:"wasted"`
	WastedBytes     int64            `json:"wasted_bytes"`
	SkippedPressure uint64           `json:"skipped_pressure"`
	Errors          uint64           `json:"errors"`
	Dropped         uint64           `json:"dropped"`
	Inventory       []InventoryEntry `json:"inventory"`
}

// Accuracy returns the fraction of installed prefetches that were later
// consumed by a crossing (0 when nothing has been installed yet).
func (s Snapshot) Accuracy() float64 {
	if s.Installed == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Installed)
}

// Snapshot copies the engine's counters and current inventory.
func (e *Engine) Snapshot() Snapshot {
	if e == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Depth:            e.cfg.PrefetchDepth,
		Workers:          e.cfg.PrefetchWorkers,
		CoalescedWaiters: uint64(e.coalesced.Value()),
		Enqueued:         uint64(e.prefetches.With(prefEnqueued).Value()),
		Installed:        uint64(e.prefetches.With(prefInstall).Value()),
		Hits:             uint64(e.prefetches.With(prefHit).Value()),
		Wasted:           uint64(e.prefetches.With(prefWasted).Value()),
		WastedBytes:      int64(e.wastedBytes.Value()),
		SkippedPressure:  uint64(e.prefetches.With(prefSkipped).Value()),
		Errors:           uint64(e.prefetches.With(prefError).Value()),
		Dropped:          uint64(e.prefetches.With(prefDropped).Value()),
	}
	e.pmu.Lock()
	for c, b := range e.inventory {
		s.Inventory = append(s.Inventory, InventoryEntry{Cluster: c, Bytes: b})
	}
	e.pmu.Unlock()
	sort.Slice(s.Inventory, func(i, j int) bool {
		return s.Inventory[i].Cluster < s.Inventory[j].Cluster
	})
	return s
}
