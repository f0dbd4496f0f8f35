package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrLeaseUnsupported reports a donor that does not track leases (a plain
// store, or a swapstore predating the lease protocol). Owners treat it as
// "nothing to renew" — the donor will never expire their replicas.
var ErrLeaseUnsupported = errors.New("store: leases unsupported")

// Leaser is an optional Store extension: donors that garbage-collect
// abandoned replicas by lease implement it, and owners call RenewLease on
// their replica keys to signal they are still alive. ttl <= 0 renews for
// the donor's default TTL.
type Leaser interface {
	RenewLease(ctx context.Context, key string, ttl time.Duration) error
}

// LeaseGC decorates a donor-side store with per-key leases: every Put
// starts a lease of the default TTL, RenewLease extends it, and
// ExpireLapsed drops every key whose lease has lapsed. Wrap a *Versioned
// store to make expiry non-destructive — Versioned.Drop archives the
// payload as a generation instead of destroying it, so a device that
// renews late can still be recovered by the operator.
type LeaseGC struct {
	inner Store
	ttl   time.Duration
	now   func() time.Time

	mu     sync.Mutex
	leases map[string]time.Time // key -> expiry deadline
}

var (
	_ Store       = (*LeaseGC)(nil)
	_ Envelope    = (*LeaseGC)(nil)
	_ Leaser      = (*LeaseGC)(nil)
	_ MultiGetter = (*LeaseGC)(nil)
)

// NewLeaseGC wraps inner with lease tracking. ttl is the default lease
// duration (minimum 1s is enforced); now defaults to time.Now.
func NewLeaseGC(inner Store, ttl time.Duration, now func() time.Time) *LeaseGC {
	if ttl < time.Second {
		ttl = time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &LeaseGC{
		inner:  inner,
		ttl:    ttl,
		now:    now,
		leases: make(map[string]time.Time),
	}
}

// TTL reports the default lease duration.
func (l *LeaseGC) TTL() time.Duration { return l.ttl }

func (l *LeaseGC) lease(key string, ttl time.Duration) {
	if ttl <= 0 {
		ttl = l.ttl
	}
	l.mu.Lock()
	l.leases[key] = l.now().Add(ttl)
	l.mu.Unlock()
}

// Put stores data and starts (or restarts) the key's lease.
func (l *LeaseGC) Put(ctx context.Context, key string, data []byte) error {
	if err := l.inner.Put(ctx, key, data); err != nil {
		return err
	}
	l.lease(key, 0)
	return nil
}

// PutEnvelope stores data with its envelope and starts the key's lease.
func (l *LeaseGC) PutEnvelope(ctx context.Context, key string, data []byte, opts PutOpts) error {
	if err := PutWith(ctx, l.inner, key, data, opts); err != nil {
		return err
	}
	l.lease(key, 0)
	return nil
}

// Get reads through to the wrapped store.
func (l *LeaseGC) Get(ctx context.Context, key string) ([]byte, error) {
	return l.inner.Get(ctx, key)
}

// GetEnvelope reads through to the wrapped store.
func (l *LeaseGC) GetEnvelope(ctx context.Context, key string) ([]byte, PutOpts, error) {
	return GetWith(ctx, l.inner, key)
}

// GetMulti serves a batch through the wrapped store.
func (l *LeaseGC) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	return GetMulti(ctx, l.inner, keys)
}

// Drop removes the key and forgets its lease.
func (l *LeaseGC) Drop(ctx context.Context, key string) error {
	err := l.inner.Drop(ctx, key)
	if err == nil || errors.Is(err, ErrNotFound) {
		l.mu.Lock()
		delete(l.leases, key)
		l.mu.Unlock()
	}
	return err
}

// Keys lists the wrapped store's keys.
func (l *LeaseGC) Keys(ctx context.Context) ([]string, error) { return l.inner.Keys(ctx) }

// Stats reports the wrapped store's occupancy and advertises the default
// lease, so an owner knows how long an unrenewed key lasts here.
func (l *LeaseGC) Stats(ctx context.Context) (Stats, error) {
	st, err := l.inner.Stats(ctx)
	st.LeaseTTL = l.ttl
	return st, err
}

// RenewLease extends the lease on key. A key stored before the wrapper
// existed (or by an out-of-band path) is adopted: renewal succeeds as long
// as the key is present. ttl <= 0 uses the default.
func (l *LeaseGC) RenewLease(ctx context.Context, key string, ttl time.Duration) error {
	l.mu.Lock()
	_, tracked := l.leases[key]
	l.mu.Unlock()
	if !tracked {
		if _, err := l.inner.Get(ctx, key); err != nil {
			return fmt.Errorf("renew lease %q: %w", key, err)
		}
	}
	l.lease(key, ttl)
	return nil
}

// ExpireLapsed drops every key whose lease deadline has passed and returns
// the expired keys. When the wrapped store is a *Versioned, each drop
// archives the payload as a version instead of destroying it. A lease whose
// key is already gone is silently forgotten and not reported.
func (l *LeaseGC) ExpireLapsed(ctx context.Context) ([]string, error) {
	now := l.now()
	l.mu.Lock()
	var lapsed []string
	for key, deadline := range l.leases {
		if !deadline.After(now) {
			lapsed = append(lapsed, key)
		}
	}
	l.mu.Unlock()

	var expired []string
	var firstErr error
	for _, key := range lapsed {
		err := l.inner.Drop(ctx, key)
		switch {
		case err == nil:
			expired = append(expired, key)
		case errors.Is(err, ErrNotFound):
			// Dropped out-of-band; just forget the lease.
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("expire lease %q: %w", key, err)
			}
			continue // keep the lease; retry next sweep
		}
		l.mu.Lock()
		delete(l.leases, key)
		l.mu.Unlock()
	}
	return expired, firstErr
}

// Deadline reports the lease expiry of key, if one is tracked.
func (l *LeaseGC) Deadline(key string) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.leases[key]
	return d, ok
}

// LeaseCount reports how many keys currently hold a lease.
func (l *LeaseGC) LeaseCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.leases)
}
