// Package link simulates the wireless hop between the constrained device and
// a nearby swapping device.
//
// The paper's prototype moved swapped XML over Bluetooth at 700 Kbps; this
// package wraps any store.Store with a deterministic link model (bandwidth,
// round-trip latency, jitter, fault injection) so transfer behaviour can be
// reproduced and measured without hardware. A Clock abstraction lets tests
// and the transfer benchmarks run on virtual time: delays are computed and
// accounted, not slept.
package link

import (
	"context"
	"fmt"
	"sync"
	"time"

	"objectswap/internal/store"
)

// Clock abstracts the passage of transfer time.
type Clock interface {
	// Sleep accounts d of link time (a real clock blocks, a virtual clock
	// accumulates).
	Sleep(d time.Duration)
}

// RealClock sleeps on the wall clock.
type RealClock struct{}

// Sleep blocks for d.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock accumulates slept time without blocking — virtual transfer
// time for benchmarks.
type VirtualClock struct {
	mu      sync.Mutex
	elapsed time.Duration
}

// Sleep accumulates d.
func (c *VirtualClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.elapsed += d
	c.mu.Unlock()
}

// Elapsed returns the total virtual time slept.
func (c *VirtualClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed
}

// Reset clears the accumulated time.
func (c *VirtualClock) Reset() {
	c.mu.Lock()
	c.elapsed = 0
	c.mu.Unlock()
}

// Profile describes a link's characteristics.
type Profile struct {
	// Name labels the profile in diagnostics.
	Name string
	// BitsPerSecond is the usable throughput. 0 disables bandwidth delay.
	BitsPerSecond int64
	// Latency is the per-operation round-trip overhead.
	Latency time.Duration
	// Jitter adds a deterministic sawtooth 0..Jitter to each operation,
	// advancing per operation (reproducible without randomness).
	Jitter time.Duration
	// FailEvery injects ErrUnavailable on every n-th operation (0 = never).
	FailEvery int
}

// Bluetooth1 is the paper's prototype link: Bluetooth at 700 Kbps with a
// typical 30 ms round trip.
func Bluetooth1() Profile {
	return Profile{Name: "bluetooth-700kbps", BitsPerSecond: 700_000, Latency: 30 * time.Millisecond}
}

// TransferTime computes the modelled time to move n payload bytes.
func (p Profile) TransferTime(n int) time.Duration {
	d := p.Latency
	if p.BitsPerSecond > 0 {
		bits := int64(n) * 8
		d += time.Duration(bits * int64(time.Second) / p.BitsPerSecond)
	}
	return d
}

// Stats aggregates traffic over a link.
type Stats struct {
	Ops           int
	BytesSent     int64 // toward the device (Put payloads)
	BytesReceived int64 // from the device (Get payloads)
	Delay         time.Duration
	Failures      int
}

// Link wraps a Store, imposing the profile's delays on every operation.
type Link struct {
	inner   store.Store
	profile Profile
	clock   Clock

	mu    sync.Mutex
	ops   int
	stats Stats
}

var _ store.Store = (*Link)(nil)

// Wrap returns s behind a simulated link. A nil clock uses the real clock.
func Wrap(s store.Store, p Profile, clock Clock) *Link {
	if clock == nil {
		clock = RealClock{}
	}
	return &Link{inner: s, profile: p, clock: clock}
}

var _ store.Envelope = (*Link)(nil)

// Stats returns a copy of the traffic counters.
func (l *Link) TrafficStats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Profile returns the link profile.
func (l *Link) Profile() Profile { return l.profile }

// transfer accounts one operation carrying n payload bytes; it reports an
// injected failure when the profile demands one.
func (l *Link) transfer(n int) error {
	l.mu.Lock()
	l.ops++
	op := l.ops
	d := l.profile.TransferTime(n)
	if l.profile.Jitter > 0 {
		// Deterministic sawtooth over 16 steps.
		d += l.profile.Jitter * time.Duration(op%16) / 16
	}
	fail := l.profile.FailEvery > 0 && op%l.profile.FailEvery == 0
	l.stats.Ops++
	l.stats.Delay += d
	if fail {
		l.stats.Failures++
	}
	l.mu.Unlock()

	l.clock.Sleep(d)
	if fail {
		return fmt.Errorf("%w: link %s dropped operation %d",
			store.ErrUnavailable, l.profile.Name, op)
	}
	return nil
}

// Put forwards after accounting an upstream transfer of the payload.
func (l *Link) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := l.transfer(len(data)); err != nil {
		return err
	}
	l.mu.Lock()
	l.stats.BytesSent += int64(len(data))
	l.mu.Unlock()
	return l.inner.Put(ctx, key, data)
}

// Get forwards, then accounts a downstream transfer of the payload.
func (l *Link) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := l.inner.Get(ctx, key)
	if err != nil {
		// Account the (cheap) failed round trip.
		if terr := l.transfer(0); terr != nil {
			return nil, terr
		}
		return nil, err
	}
	if err := l.transfer(len(data)); err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.stats.BytesReceived += int64(len(data))
	l.mu.Unlock()
	return data, nil
}

// PutEnvelope forwards the format-tagged write after accounting an upstream
// transfer, so a link-wrapped donor accepts exactly the formats its inner
// store does (the Stats it forwards advertise them).
func (l *Link) PutEnvelope(ctx context.Context, key string, data []byte, opts store.PutOpts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := l.transfer(len(data)); err != nil {
		return err
	}
	l.mu.Lock()
	l.stats.BytesSent += int64(len(data))
	l.mu.Unlock()
	return store.PutWith(ctx, l.inner, key, data, opts)
}

// GetEnvelope forwards, then accounts a downstream transfer of the payload.
func (l *Link) GetEnvelope(ctx context.Context, key string) ([]byte, store.PutOpts, error) {
	if err := ctx.Err(); err != nil {
		return nil, store.PutOpts{}, err
	}
	data, opts, err := store.GetWith(ctx, l.inner, key)
	if err != nil {
		if terr := l.transfer(0); terr != nil {
			return nil, store.PutOpts{}, terr
		}
		return nil, store.PutOpts{}, err
	}
	if err := l.transfer(len(data)); err != nil {
		return nil, store.PutOpts{}, err
	}
	l.mu.Lock()
	l.stats.BytesReceived += int64(len(data))
	l.mu.Unlock()
	return data, opts, nil
}

// Drop forwards after accounting a control round trip.
func (l *Link) Drop(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := l.transfer(0); err != nil {
		return err
	}
	return l.inner.Drop(ctx, key)
}

// Keys forwards after accounting a control round trip.
func (l *Link) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := l.transfer(0); err != nil {
		return nil, err
	}
	return l.inner.Keys(ctx)
}

// Stats forwards after accounting a control round trip.
func (l *Link) Stats(ctx context.Context) (store.Stats, error) {
	if err := ctx.Err(); err != nil {
		return store.Stats{}, err
	}
	if err := l.transfer(0); err != nil {
		return store.Stats{}, err
	}
	return l.inner.Stats(ctx)
}
