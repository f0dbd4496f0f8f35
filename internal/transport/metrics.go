package transport

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// Metrics aggregates transport activity across every decorated device. One
// Metrics instance is shared by all Resilient decorators of a System; the
// façade exposes its Snapshot.
//
// Metrics is a thin facade over the observability registry: every counter
// lives as a per-device obs series (and so appears in WriteMetrics scrapes),
// and Snapshot reads those series back. Counts survive the float64 round-trip
// exactly — integers are exact in a float64 up to 2^53.
type Metrics struct {
	reg *obs.Registry

	attempts  *obs.CounterVec
	retries   *obs.CounterVec
	successes *obs.CounterVec
	failures  *obs.CounterVec
	rejectedC *obs.CounterVec
	trips     *obs.CounterVec
	failovers *obs.CounterVec
	bytes     *obs.CounterVec // device, direction
	ops       *obs.CounterVec // device, op
	opSeconds *obs.HistogramVec
	breaker   *obs.GaugeVec // 1 = open

	mu      sync.Mutex
	devices map[string]bool
}

// NewMetricsWith returns a sink whose instruments register in r (nil = a
// private registry), so transport counters appear in the same metrics page as
// the rest of the middleware.
func NewMetricsWith(r *obs.Registry) *Metrics {
	if r == nil {
		r = obs.NewRegistry(nil)
	}
	return &Metrics{
		reg: r,
		attempts: r.CounterVec("objectswap_transport_attempts_total",
			"Store operations attempted (retries included).", "device"),
		retries: r.CounterVec("objectswap_transport_retries_total",
			"Attempts beyond the first per operation.", "device"),
		successes: r.CounterVec("objectswap_transport_successes_total",
			"Operations that completed successfully.", "device"),
		failures: r.CounterVec("objectswap_transport_failures_total",
			"Operations that exhausted their retry budget.", "device"),
		rejectedC: r.CounterVec("objectswap_transport_rejected_total",
			"Operations fast-failed while the circuit breaker was open.", "device"),
		trips: r.CounterVec("objectswap_transport_breaker_trips_total",
			"Circuit breaker open transitions.", "device"),
		failovers: r.CounterVec("objectswap_transport_failovers_total",
			"Swap-out shipments re-routed off a failed device.", "device"),
		bytes: r.CounterVec("objectswap_transport_bytes_total",
			"Payload bytes moved, by direction.", "device", "direction"),
		ops: r.CounterVec("objectswap_transport_ops_total",
			"Completed operations by kind.", "device", "op"),
		opSeconds: r.HistogramVec("objectswap_transport_op_seconds",
			"Wall time of completed operations (retries and backoff included).",
			nil, "device"),
		breaker: r.GaugeVec("objectswap_transport_breaker_open",
			"Circuit breaker state (1 = open).", "device"),
		devices: make(map[string]bool),
	}
}

// Registry returns the registry backing this sink.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// track remembers a device name so Snapshot can enumerate it, and forces its
// zero-valued series into existence.
func (m *Metrics) track(name string) {
	m.mu.Lock()
	known := m.devices[name]
	m.devices[name] = true
	m.mu.Unlock()
	if !known {
		m.attempts.With(name)
		m.retries.With(name)
		m.successes.With(name)
		m.failures.With(name)
		m.rejectedC.With(name)
		m.trips.With(name)
		m.failovers.With(name)
		m.bytes.With(name, "out")
		m.bytes.With(name, "in")
		m.opSeconds.With(name)
		m.breaker.With(name)
	}
}

func (m *Metrics) register(name string) { m.track(name) }

func (m *Metrics) attempt(name string, retry bool) {
	m.track(name)
	m.attempts.With(name).Inc()
	if retry {
		m.retries.With(name).Inc()
	}
}

func (m *Metrics) success(name string, op store.Op, d time.Duration) {
	m.track(name)
	m.successes.With(name).Inc()
	m.ops.With(name, op.String()).Inc()
	m.opSeconds.With(name).Observe(d.Seconds())
}

func (m *Metrics) failure(name string, op store.Op, d time.Duration) {
	m.track(name)
	m.failures.With(name).Inc()
	m.ops.With(name, op.String()).Inc()
	m.opSeconds.With(name).Observe(d.Seconds())
}

func (m *Metrics) rejected(name string) {
	m.track(name)
	m.rejectedC.With(name).Inc()
}

func (m *Metrics) breakerTrip(name string) {
	m.track(name)
	m.trips.With(name).Inc()
	m.breaker.With(name).Set(1)
}

func (m *Metrics) breakerState(name string, open bool) {
	m.track(name)
	v := 0.0
	if open {
		v = 1
	}
	m.breaker.With(name).Set(v)
}

// AddFailover records a swap-out shipment that was re-routed off the named
// failed device.
func (m *Metrics) AddFailover(name string) {
	m.track(name)
	m.failovers.With(name).Inc()
}

func (m *Metrics) bytesOut(name string, n int64) {
	m.track(name)
	m.bytes.With(name, "out").Add(float64(n))
}

func (m *Metrics) bytesIn(name string, n int64) {
	m.track(name)
	m.bytes.With(name, "in").Add(float64(n))
}

// DeviceSnapshot is one device's transport counters at a point in time.
type DeviceSnapshot struct {
	Attempts     int64
	Retries      int64
	Successes    int64
	Failures     int64
	Rejected     int64
	BreakerTrips int64
	BreakerOpen  bool
	Failovers    int64
	BytesOut     int64
	BytesIn      int64
	// MeanOpTime averages the wall time of completed operations (retries and
	// backoff included).
	MeanOpTime time.Duration
}

// Snapshot is the aggregate transport view the façade exposes and publishes.
type Snapshot struct {
	Attempts     int64
	Retries      int64
	Successes    int64
	Failures     int64
	Rejected     int64
	BreakerTrips int64
	Failovers    int64
	BytesOut     int64
	BytesIn      int64
	MeanOpTime   time.Duration
	Devices      map[string]DeviceSnapshot
}

func (m *Metrics) deviceSnapshot(name string) (DeviceSnapshot, time.Duration, int64) {
	count := func(v *obs.CounterVec, labels ...string) int64 {
		return int64(v.With(labels...).Value())
	}
	s := DeviceSnapshot{
		Attempts:     count(m.attempts, name),
		Retries:      count(m.retries, name),
		Successes:    count(m.successes, name),
		Failures:     count(m.failures, name),
		Rejected:     count(m.rejectedC, name),
		BreakerTrips: count(m.trips, name),
		BreakerOpen:  m.breaker.With(name).Value() != 0,
		Failovers:    count(m.failovers, name),
		BytesOut:     count(m.bytes, name, "out"),
		BytesIn:      count(m.bytes, name, "in"),
	}
	hs := m.opSeconds.With(name).Snapshot()
	opTime := time.Duration(hs.Sum * float64(time.Second))
	if hs.Count > 0 {
		s.MeanOpTime = opTime / time.Duration(hs.Count)
	}
	return s, opTime, int64(hs.Count)
}

// Snapshot copies the current counters. Totals aggregate the per-device
// series.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	names := make([]string, 0, len(m.devices))
	for n := range m.devices {
		names = append(names, n)
	}
	m.mu.Unlock()

	s := Snapshot{Devices: make(map[string]DeviceSnapshot, len(names))}
	var opTime time.Duration
	var ops int64
	for _, n := range names {
		d, t, c := m.deviceSnapshot(n)
		s.Devices[n] = d
		s.Attempts += d.Attempts
		s.Retries += d.Retries
		s.Successes += d.Successes
		s.Failures += d.Failures
		s.Rejected += d.Rejected
		s.BreakerTrips += d.BreakerTrips
		s.Failovers += d.Failovers
		s.BytesOut += d.BytesOut
		s.BytesIn += d.BytesIn
		opTime += t
		ops += c
	}
	if ops > 0 {
		s.MeanOpTime = opTime / time.Duration(ops)
	}
	return s
}

// String renders the snapshot for reports.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "transport: %d attempts (%d retries), %d ok / %d failed, %d fast-rejected\n",
		s.Attempts, s.Retries, s.Successes, s.Failures, s.Rejected)
	fmt.Fprintf(&b, "transport: %d breaker trips, %d failovers, %d B out / %d B in, mean op %v\n",
		s.BreakerTrips, s.Failovers, s.BytesOut, s.BytesIn, s.MeanOpTime)
	names := make([]string, 0, len(s.Devices))
	for n := range s.Devices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := s.Devices[n]
		state := "closed"
		if d.BreakerOpen {
			state = "OPEN"
		}
		fmt.Fprintf(&b, "  %-16s %4d attempts %3d retries %3d fail  breaker %s (%d trips)  %d/%d B out/in\n",
			n, d.Attempts, d.Retries, d.Failures, state, d.BreakerTrips, d.BytesOut, d.BytesIn)
	}
	return b.String()
}
