// Package devctx implements OBIWAN's Context Management module: it abstracts
// the device resources whose values vary during execution — available memory
// and network connectivity — monitors them, and publishes events the policy
// engine reacts to.
package devctx

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// MemorySample is the payload of memory.threshold / memory.relief events.
type MemorySample struct {
	Used     int64
	Capacity int64
	Fraction float64 // Used/Capacity (0 when unlimited)
	Objects  int
}

// MemoryMonitor watches a device heap and fires edge-triggered events when
// occupancy crosses a threshold fraction: memory.threshold on the way up,
// memory.relief on the way down. Checks are explicit (Check) or periodic
// (Start/Stop).
type MemoryMonitor struct {
	h         *heap.Heap
	bus       *event.Bus
	threshold float64

	mu    sync.Mutex
	above bool
	// edges counts threshold crossings by direction (nil until Instrument).
	edges  *obs.CounterVec
	logger *slog.Logger

	stop chan struct{}
	done chan struct{}
}

// SetLogger emits structured records on threshold edges (nil logs nothing).
func (m *MemoryMonitor) SetLogger(lg *slog.Logger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.logger = obs.Logger(lg)
}

// NewMemoryMonitor builds a monitor firing at the given occupancy fraction
// (e.g. 0.8 = 80%).
func NewMemoryMonitor(h *heap.Heap, bus *event.Bus, threshold float64) *MemoryMonitor {
	if threshold <= 0 || threshold > 1 {
		threshold = 0.8
	}
	return &MemoryMonitor{h: h, bus: bus, threshold: threshold, logger: obs.Logger(nil)}
}

// Threshold returns the configured occupancy fraction.
func (m *MemoryMonitor) Threshold() float64 { return m.threshold }

// Sample reads the current memory situation.
func (m *MemoryMonitor) Sample() MemorySample {
	st := m.h.StatsSnapshot()
	return MemorySample{
		Used:     st.Used,
		Capacity: st.Capacity,
		Fraction: st.UsedFraction(),
		Objects:  st.Objects,
	}
}

// Check samples occupancy and fires an event on a threshold edge. It returns
// the sample and whether an event fired.
func (m *MemoryMonitor) Check() (MemorySample, bool) {
	s := m.Sample()
	m.mu.Lock()
	wasAbove := m.above
	isAbove := s.Capacity > 0 && s.Fraction >= m.threshold
	m.above = isAbove
	edges, logger := m.edges, m.logger
	m.mu.Unlock()

	switch {
	case isAbove && !wasAbove:
		edges.With("threshold").Inc()
		logger.LogAttrs(context.Background(), slog.LevelWarn, "memory threshold crossed",
			slog.Int64("used", s.Used), slog.Int64("capacity", s.Capacity), slog.Float64("fraction", s.Fraction))
		m.bus.Emit(event.TopicMemoryThreshold, s)
		return s, true
	case !isAbove && wasAbove:
		edges.With("relief").Inc()
		logger.LogAttrs(context.Background(), slog.LevelInfo, "memory pressure relieved",
			slog.Int64("used", s.Used), slog.Int64("capacity", s.Capacity), slog.Float64("fraction", s.Fraction))
		m.bus.Emit(event.TopicMemoryRelief, s)
		return s, true
	default:
		return s, false
	}
}

// Start launches periodic checking. Call Stop to terminate; Start on a
// running monitor is a no-op.
func (m *MemoryMonitor) Start(interval time.Duration) {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stop, m.done = stop, done
	m.mu.Unlock()

	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				m.Check()
			case <-stop:
				return
			}
		}
	}()
}

// Stop terminates periodic checking and waits for the worker to exit.
func (m *MemoryMonitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// ConnectivityMonitor tracks which nearby devices are reachable, mirrors the
// state into the device registry, and publishes link.up / link.down events.
type ConnectivityMonitor struct {
	bus *event.Bus
	reg *store.Registry

	mu    sync.Mutex
	state map[string]bool
	// obs instruments (nil until Instrument).
	linkGauge   *obs.GaugeVec
	transitions *obs.CounterVec
	logger      *slog.Logger
}

// SetLogger emits structured records on link transitions (nil logs nothing).
func (c *ConnectivityMonitor) SetLogger(lg *slog.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logger = obs.Logger(lg)
}

// NewConnectivityMonitor builds a monitor over the device registry.
func NewConnectivityMonitor(bus *event.Bus, reg *store.Registry) *ConnectivityMonitor {
	return &ConnectivityMonitor{bus: bus, reg: reg, state: make(map[string]bool), logger: obs.Logger(nil)}
}

// Set records a device's reachability, updating the registry and firing an
// event on every change of state.
func (c *ConnectivityMonitor) Set(name string, up bool) {
	c.mu.Lock()
	prev, known := c.state[name]
	c.state[name] = up
	linkGauge, transitions, logger := c.linkGauge, c.transitions, c.logger
	c.mu.Unlock()

	state := 0.0
	if up {
		state = 1
	}
	linkGauge.With(name).Set(state)
	c.reg.SetAvailable(name, up)
	if known && prev == up {
		return
	}
	if up {
		transitions.With(name, "up").Inc()
		logger.Info("link up", "device", name)
		c.bus.Emit(event.TopicLinkUp, name)
	} else {
		transitions.With(name, "down").Inc()
		logger.Warn("link down", "device", name)
		c.bus.Emit(event.TopicLinkDown, name)
	}
}

// Up reports a device's last known reachability.
func (c *ConnectivityMonitor) Up(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state[name]
}

// upCount reports how many tracked devices are reachable.
func (c *ConnectivityMonitor) upCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, up := range c.state {
		if up {
			n++
		}
	}
	return n
}

// Snapshot is the metric view the policy engine evaluates conditions
// against. Keys are dotted metric names, values are numeric.
type Snapshot map[string]float64

// Provider produces metric snapshots on demand.
type Provider interface {
	Snapshot() Snapshot
}

// Context aggregates the device's monitors into a metric Provider for the
// policy engine. Extra metrics can be registered by the application.
type Context struct {
	h    *heap.Heap
	conn *ConnectivityMonitor

	mu    sync.Mutex
	extra map[string]func() float64
}

var _ Provider = (*Context)(nil)

// NewContext builds a metric provider over a heap and an optional
// connectivity monitor.
func NewContext(h *heap.Heap, conn *ConnectivityMonitor) *Context {
	return &Context{h: h, conn: conn, extra: make(map[string]func() float64)}
}

// RegisterMetric adds an application metric, available to policies under the
// given dotted name.
func (c *Context) RegisterMetric(name string, fn func() float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.extra[name] = fn
}

// Snapshot implements Provider.
func (c *Context) Snapshot() Snapshot {
	st := c.h.StatsSnapshot()
	s := Snapshot{
		"heap.used":     float64(st.Used),
		"heap.capacity": float64(st.Capacity),
		"heap.used.pct": st.UsedFraction() * 100,
		"heap.objects":  float64(st.Objects),
	}
	if c.conn != nil {
		s["devices.up"] = float64(c.conn.upCount())
	}
	c.mu.Lock()
	for name, fn := range c.extra {
		s[name] = fn()
	}
	c.mu.Unlock()
	return s
}
