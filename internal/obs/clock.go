// Package obs is the middleware's observability spine: a dependency-free
// metrics registry (counters, gauges, histograms with fixed deterministic
// bucket bounds), per-operation trace spans with phase timings, and a
// Prometheus-style text exposition writer.
//
// The paper's modules observe each other — context management publishes
// memory and connectivity events, the policy engine reacts, the swapping
// manager reports outcomes — and every one of those signals lands here, in
// one registry, so a single scrape explains why a swap was slow or a policy
// fired. All timings flow through a pluggable Clock (virtual time in tests),
// never through wall-clock reads inside the instruments themselves.
package obs

import (
	"sync"
	"time"
)

// Clock supplies the current time to spans and timed instruments. RealClock
// reads the wall clock; VirtualClock is advanced manually, making every
// obs-derived timing deterministic under test.
type Clock interface {
	Now() time.Time
}

// RealClock reads time.Now. It is the only wall-clock access in the package,
// confined to the Clock boundary.
type RealClock struct{}

// Now returns the wall-clock time.
func (RealClock) Now() time.Time { return time.Now() }

// Since returns the time elapsed since t, a reading of this clock, from the
// monotonic clock alone.
func (RealClock) Since(t time.Time) time.Duration { return time.Since(t) }

// A Stopwatch is a Clock that can also tell the time elapsed since one of its
// own readings from its monotonic clock alone, which is cheaper than a Now
// that reads the wall clock too. RealClock is one; VirtualClock is not.
type Stopwatch interface {
	Clock
	Since(t time.Time) time.Duration
}

// VirtualClock is a manually advanced clock for deterministic tests.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a virtual clock positioned at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the virtual clock forward by d.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}
