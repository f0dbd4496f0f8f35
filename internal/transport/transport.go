// Package transport hardens the path between the constrained device and its
// swapping neighbors. The paper's deployment target is "a myriad of small
// memory-enabled devices with wireless connectivity" — Bluetooth-class links
// that stall, drop and disappear — so a raw store.Store call is the wrong
// unit of failure: one lost frame must not abort a whole swap-out.
//
// Resilient decorates any store.Store with the three classic remedies:
//
//   - per-operation timeouts, so a hung device surfaces as a clean error
//     instead of blocking a fault-in forever;
//   - bounded retry with exponential backoff and deterministic jitter,
//     absorbing transient link loss (sleeps go through a Clock, so tests and
//     benchmarks run on virtual time);
//   - a per-device circuit breaker that trips after consecutive failed
//     operations, fails fast while open, and lets periodic probe operations
//     through to detect recovery. Breaker transitions are reported through a
//     callback so device health feeds back into the connectivity monitor and
//     the registry's selection.
//
// A shared Metrics sink aggregates attempts, retries, failures, breaker
// trips, failovers and bytes moved across every decorated device; the System
// façade exposes its Snapshot and publishes transitions on the event bus.
package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// Clock abstracts backoff sleeps; link.RealClock and link.VirtualClock
// satisfy it.
type Clock interface {
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// ErrBreakerOpen reports an operation rejected without touching the device
// because its circuit breaker is open. It wraps store.ErrUnavailable so
// existing reachability handling (registry skip, deferred drops) applies.
var ErrBreakerOpen = fmt.Errorf("%w: circuit breaker open", store.ErrUnavailable)

// Policy bounds the resilience behavior. The zero value means "defaults";
// see the field comments for what 0 selects.
type Policy struct {
	// OpTimeout bounds each individual attempt (0 = 10s; < 0 disables).
	OpTimeout time.Duration
	// MaxAttempts bounds tries per operation, first included (0 = 3).
	MaxAttempts int
	// BackoffBase seeds the exponential backoff between attempts (0 = 20ms).
	BackoffBase time.Duration
	// BackoffMax caps a single backoff sleep (0 = 2s).
	BackoffMax time.Duration
	// BreakerThreshold is the consecutive failed-operation count that trips
	// the breaker (0 = 5; < 0 disables the breaker).
	BreakerThreshold int
	// BreakerProbeEvery lets every Nth operation through while the breaker
	// is open, probing for recovery (0 = 4).
	BreakerProbeEvery int
	// Seed drives the deterministic backoff jitter stream.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.OpTimeout == 0 {
		p.OpTimeout = 10 * time.Second
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 20 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerProbeEvery <= 0 {
		p.BreakerProbeEvery = 4
	}
	return p
}

// Option configures a Resilient decorator.
type Option func(*Resilient)

// WithClock routes backoff sleeps through clock (virtual time in tests).
func WithClock(c Clock) Option {
	return func(r *Resilient) {
		if c != nil {
			r.clock = c
		}
	}
}

// WithMetrics aggregates this device's transport counters into m.
func WithMetrics(m *Metrics) Option {
	return func(r *Resilient) { r.metrics = m }
}

// WithLogger emits structured records for retries and breaker transitions.
// A nil logger (the default) logs nothing.
func WithLogger(lg *slog.Logger) Option {
	return func(r *Resilient) { r.logger = lg }
}

// WithBreakerNotify registers a callback invoked on every breaker
// transition: open=true when the device is declared unhealthy, open=false
// when a probe succeeds and the breaker closes. The callback runs outside
// the decorator's lock.
func WithBreakerNotify(fn func(open bool)) Option {
	return func(r *Resilient) { r.onBreaker = fn }
}

// Resilient wraps one device's store with timeouts, retry and a circuit
// breaker.
type Resilient struct {
	name    string
	inner   store.Store
	pol     Policy
	clock   Clock
	metrics *Metrics
	logger  *slog.Logger

	onBreaker func(open bool)

	mu         sync.Mutex
	consecFail int
	open       bool
	rejected   int // operations rejected since the breaker opened
	rng        uint64
}

var (
	_ store.Store    = (*Resilient)(nil)
	_ store.Envelope = (*Resilient)(nil)
)

// NewResilient decorates inner, which serves the named device, with the
// policy's resilience behavior.
func NewResilient(name string, inner store.Store, pol Policy, opts ...Option) *Resilient {
	r := &Resilient{
		name:  name,
		inner: inner,
		pol:   pol.withDefaults(),
		clock: realClock{},
		rng:   uint64(pol.Seed)*6364136223846793005 + 1442695040888963407,
	}
	for _, opt := range opts {
		opt(r)
	}
	r.logger = obs.Logger(r.logger)
	if r.metrics != nil {
		r.metrics.register(name)
	}
	return r
}

// Name returns the decorated device's name.
func (r *Resilient) Name() string { return r.name }

// Inner returns the decorated store.
func (r *Resilient) Inner() store.Store { return r.inner }

// BreakerOpen reports whether the device is currently declared unhealthy.
func (r *Resilient) BreakerOpen() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open
}

// admit decides whether an operation may reach the device. While the breaker
// is open, every BreakerProbeEvery-th operation is admitted as a probe.
func (r *Resilient) admit() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.open {
		return true
	}
	r.rejected++
	return r.rejected%r.pol.BreakerProbeEvery == 0
}

// recordSuccess resets the failure streak and closes an open breaker.
func (r *Resilient) recordSuccess() {
	r.mu.Lock()
	r.consecFail = 0
	wasOpen := r.open
	r.open = false
	r.rejected = 0
	r.mu.Unlock()
	if wasOpen {
		r.logger.Info("breaker closed", "device", r.name)
		if r.metrics != nil {
			r.metrics.breakerState(r.name, false)
		}
		if r.onBreaker != nil {
			r.onBreaker(false)
		}
	}
}

// recordFailure advances the failure streak and trips the breaker at the
// policy threshold.
func (r *Resilient) recordFailure() {
	if r.pol.BreakerThreshold < 0 {
		return
	}
	r.mu.Lock()
	r.consecFail++
	tripped := !r.open && r.consecFail >= r.pol.BreakerThreshold
	if tripped {
		r.open = true
		r.rejected = 0
	}
	r.mu.Unlock()
	if tripped {
		r.logger.Warn("breaker open", "device", r.name,
			"consecutive_failures", r.pol.BreakerThreshold)
		if r.metrics != nil {
			r.metrics.breakerTrip(r.name)
		}
		if r.onBreaker != nil {
			r.onBreaker(true)
		}
	}
}

// backoff computes the sleep before the given retry (attempt counts from 1),
// with deterministic jitter in [0, d/2).
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.pol.BackoffBase << (attempt - 1)
	if d > r.pol.BackoffMax || d <= 0 {
		d = r.pol.BackoffMax
	}
	r.mu.Lock()
	r.rng ^= r.rng >> 12
	r.rng ^= r.rng << 25
	r.rng ^= r.rng >> 27
	draw := r.rng
	r.mu.Unlock()
	if half := int64(d / 2); half > 0 {
		d += time.Duration(int64(draw % uint64(half)))
	}
	return d
}

// retryable reports whether an error is worth another attempt: definitive
// protocol answers (missing key, full device, version-namespace collisions)
// and caller cancellations are not.
func retryable(err error) bool {
	switch {
	case errors.Is(err, store.ErrNotFound),
		errors.Is(err, store.ErrCapacity),
		errors.Is(err, store.ErrVersionedKey),
		errors.Is(err, store.ErrUnsupportedFormat),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// do runs one logical store operation through the full resilience stack.
func (r *Resilient) do(ctx context.Context, op store.Op, fn func(context.Context) error) error {
	if !r.admit() {
		if r.metrics != nil {
			r.metrics.rejected(r.name)
		}
		return fmt.Errorf("device %s: %w", r.name, ErrBreakerOpen)
	}
	return r.attempts(ctx, op, r.pol.MaxAttempts, fn)
}

// attempts runs fn up to limit times, each under the per-attempt timeout, with
// backoff between them, and books the outcome against the device's health
// and metrics. It does not consult the breaker: do does, Probe must not.
func (r *Resilient) attempts(ctx context.Context, op store.Op, limit int, fn func(context.Context) error) error {
	start := time.Now()
	var err error
	for attempt := 1; ; attempt++ {
		if r.metrics != nil {
			r.metrics.attempt(r.name, attempt > 1)
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if r.pol.OpTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, r.pol.OpTimeout)
		}
		err = fn(attemptCtx)
		cancel()
		if err == nil {
			r.recordSuccess()
			if r.metrics != nil {
				r.metrics.success(r.name, op, time.Since(start))
			}
			return nil
		}
		// A per-attempt timeout with the parent still live is the device's
		// failure, not the caller's cancellation: it stays retryable.
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			err = fmt.Errorf("%w: device %s timed out on %s: %v",
				store.ErrUnavailable, r.name, op, err)
		}
		if ctx.Err() != nil || attempt >= limit || !retryable(err) {
			break
		}
		r.logger.Debug("retrying", "device", r.name, "op", op,
			"attempt", attempt, "err", err)
		r.clock.Sleep(r.backoff(attempt))
	}
	if retryable(err) || errors.Is(err, context.DeadlineExceeded) {
		// Only link-shaped outcomes count against device health; a NotFound
		// answer proves the device is alive.
		r.recordFailure()
	}
	if r.metrics != nil {
		r.metrics.failure(r.name, op, time.Since(start))
	}
	return err
}

// Probe bypasses the breaker gate and issues one direct Stats round-trip to
// the device, closing an open breaker when the device answers. Regular
// operations cannot serve as recovery probes once the connectivity monitor
// has steered all traffic away from an unhealthy device, so something — a
// policy action, a reconnect notification, a periodic sweep — must call
// Probe (or the façade's ProbeDevices) to let the device back in.
func (r *Resilient) Probe(ctx context.Context) error {
	return r.attempts(ctx, store.OpStats, 1, func(ctx context.Context) error {
		_, err := r.inner.Stats(ctx)
		return err
	})
}

// Put ships data with retry, timeout and breaker accounting.
func (r *Resilient) Put(ctx context.Context, key string, data []byte) error {
	err := r.do(ctx, store.OpPut, func(ctx context.Context) error {
		return r.inner.Put(ctx, key, data)
	})
	if err == nil && r.metrics != nil {
		r.metrics.bytesOut(r.name, int64(len(data)))
	}
	return err
}

// PutEnvelope ships data with its wire-format envelope through the full
// resilience stack. A format the device refuses is a definitive protocol
// answer (like NotFound), never retried and never counted against the link.
func (r *Resilient) PutEnvelope(ctx context.Context, key string, data []byte, opts store.PutOpts) error {
	err := r.do(ctx, store.OpPut, func(ctx context.Context) error {
		return store.PutWith(ctx, r.inner, key, data, opts)
	})
	if err == nil && r.metrics != nil {
		r.metrics.bytesOut(r.name, int64(len(data)))
	}
	return err
}

// GetEnvelope fetches a payload and its envelope with retry, timeout and
// breaker accounting.
func (r *Resilient) GetEnvelope(ctx context.Context, key string) ([]byte, store.PutOpts, error) {
	var (
		data []byte
		opts store.PutOpts
	)
	err := r.do(ctx, store.OpGet, func(ctx context.Context) error {
		var ferr error
		data, opts, ferr = store.GetWith(ctx, r.inner, key)
		return ferr
	})
	if err != nil {
		return nil, store.PutOpts{}, err
	}
	if r.metrics != nil {
		r.metrics.bytesIn(r.name, int64(len(data)))
	}
	return data, opts, nil
}

// Get fetches a payload with retry, timeout and breaker accounting.
func (r *Resilient) Get(ctx context.Context, key string) ([]byte, error) {
	var data []byte
	err := r.do(ctx, store.OpGet, func(ctx context.Context) error {
		var ferr error
		data, ferr = r.inner.Get(ctx, key)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	if r.metrics != nil {
		r.metrics.bytesIn(r.name, int64(len(data)))
	}
	return data, nil
}

// GetMulti serves a batched fetch with retry, timeout and breaker
// accounting when the wrapped store supports the extension; otherwise each
// key goes through the resilient Get individually (not-found keys omitted,
// per the store.MultiGetter contract).
func (r *Resilient) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	mg, ok := r.inner.(store.MultiGetter)
	if !ok {
		out := make(map[string][]byte, len(keys))
		for _, key := range keys {
			data, err := r.Get(ctx, key)
			if err != nil {
				if errors.Is(err, store.ErrNotFound) {
					continue
				}
				return nil, err
			}
			out[key] = data
		}
		return out, nil
	}
	var got map[string][]byte
	err := r.do(ctx, store.OpGet, func(ctx context.Context) error {
		var ferr error
		got, ferr = mg.GetMulti(ctx, keys)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	if r.metrics != nil {
		var n int64
		for _, data := range got {
			n += int64(len(data))
		}
		r.metrics.bytesIn(r.name, n)
	}
	return got, nil
}

// RenewLease extends a replica key's lease with retry, timeout and breaker
// accounting. Devices without lease GC report store.ErrLeaseUnsupported.
func (r *Resilient) RenewLease(ctx context.Context, key string, ttl time.Duration) error {
	l, ok := r.inner.(store.Leaser)
	if !ok {
		return fmt.Errorf("%w: device %s", store.ErrLeaseUnsupported, r.name)
	}
	return r.do(ctx, store.OpRenew, func(ctx context.Context) error {
		return l.RenewLease(ctx, key, ttl)
	})
}

// Drop removes a payload with retry, timeout and breaker accounting.
func (r *Resilient) Drop(ctx context.Context, key string) error {
	return r.do(ctx, store.OpDrop, func(ctx context.Context) error {
		return r.inner.Drop(ctx, key)
	})
}

// Keys enumerates with retry, timeout and breaker accounting.
func (r *Resilient) Keys(ctx context.Context) ([]string, error) {
	var keys []string
	err := r.do(ctx, store.OpKeys, func(ctx context.Context) error {
		var ferr error
		keys, ferr = r.inner.Keys(ctx)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// Stats reports occupancy with retry, timeout and breaker accounting.
func (r *Resilient) Stats(ctx context.Context) (store.Stats, error) {
	var st store.Stats
	err := r.do(ctx, store.OpStats, func(ctx context.Context) error {
		var ferr error
		st, ferr = r.inner.Stats(ctx)
		return ferr
	})
	if err != nil {
		return store.Stats{}, err
	}
	return st, nil
}
