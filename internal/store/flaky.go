package store

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Op names one operation of the Store contract, for fault scheduling.
type Op uint8

// Operations a Flaky store can fail on demand.
const (
	OpPut Op = iota
	OpGet
	OpDrop
	OpKeys
	OpStats
	OpRenew
	numOps
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDrop:
		return "drop"
	case OpKeys:
		return "keys"
	case OpStats:
		return "stats"
	case OpRenew:
		return "renew"
	default:
		return fmt.Sprintf("op(%d)", o)
	}
}

// Sleeper accounts injected latency. link.Clock implementations (RealClock,
// VirtualClock) satisfy it, so failure-mode tests run on virtual time.
type Sleeper interface {
	Sleep(d time.Duration)
}

// Flaky wraps a Store with deterministic fault injection: per-operation
// failure schedules (explicit call indices, fail-next-N windows, or a seeded
// pseudo-random failure rate), hang schedules (the call blocks until its
// context is done — the "device stopped answering" case), and fixed latency
// injection through a Sleeper. All scheduling is reproducible: the same seed
// and call sequence produce the same faults.
//
// Flaky is the failure harness the transport resilience tests are built on;
// it is exported because operators can also use it to rehearse policies
// against simulated bad neighborhoods.
type Flaky struct {
	inner Store

	mu      sync.Mutex
	calls   [numOps]int
	failed  [numOps]int
	failOn  [numOps]map[int]bool
	failTo  [numOps]int // fail calls with index <= failTo (fail-next-N window)
	hangOn  [numOps]map[int]bool
	rate    [numOps]float64
	rng     uint64
	latency time.Duration
	clock   Sleeper
}

var (
	_ Store    = (*Flaky)(nil)
	_ Envelope = (*Flaky)(nil)
)

// NewFlaky wraps inner with an initially fault-free schedule. seed drives the
// FailRate pseudo-random stream.
func NewFlaky(inner Store, seed int64) *Flaky {
	f := &Flaky{inner: inner, rng: uint64(seed)*2685821657736338717 + 1}
	for op := Op(0); op < numOps; op++ {
		f.failOn[op] = make(map[int]bool)
		f.hangOn[op] = make(map[int]bool)
	}
	return f
}

// FailOn schedules failures for specific 1-based call indices of op.
func (f *Flaky) FailOn(op Op, calls ...int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range calls {
		f.failOn[op][c] = true
	}
}

// FailNext makes the next n calls of op fail (counted from the calls made so
// far). n < 0 fails every future call of op.
func (f *Flaky) FailNext(op Op, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 0 {
		f.failTo[op] = int(^uint(0) >> 1)
		return
	}
	f.failTo[op] = f.calls[op] + n
}

// FailRate makes op fail with the given probability, drawn from the seeded
// deterministic stream (0 disables).
func (f *Flaky) FailRate(op Op, rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rate[op] = rate
}

// HangOn schedules specific 1-based call indices of op to block until the
// operation's context is done, then return its error — the unresponsive
// device that never NAKs.
func (f *Flaky) HangOn(op Op, calls ...int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range calls {
		f.hangOn[op][c] = true
	}
}

// SetLatency injects a fixed delay before every operation, accounted through
// clock (nil clock sleeps on the wall clock).
func (f *Flaky) SetLatency(d time.Duration, clock Sleeper) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
	f.clock = clock
}

// Calls reports how many times op has been invoked.
func (f *Flaky) Calls(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// Failures reports how many injected faults op has suffered (hangs included).
func (f *Flaky) Failures(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed[op]
}

// next advances the op's call counter and decides this call's fate.
func (f *Flaky) next(op Op) (fail, hang bool, latency time.Duration, clock Sleeper) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op]++
	n := f.calls[op]
	switch {
	case f.hangOn[op][n]:
		hang = true
	case f.failOn[op][n] || n <= f.failTo[op]:
		fail = true
	case f.rate[op] > 0:
		// xorshift64*: deterministic stream from the seed.
		f.rng ^= f.rng >> 12
		f.rng ^= f.rng << 25
		f.rng ^= f.rng >> 27
		draw := float64(f.rng*2685821657736338717>>11) / float64(1<<53)
		fail = draw < f.rate[op]
	}
	if fail || hang {
		f.failed[op]++
	}
	return fail, hang, f.latency, f.clock
}

// gate applies the schedule for one call of op; a nil return means the call
// should be forwarded to the inner store.
func (f *Flaky) gate(ctx context.Context, op Op) error {
	fail, hang, latency, clock := f.next(op)
	if latency > 0 {
		if clock == nil {
			clock = realSleeper{}
		}
		clock.Sleep(latency)
	}
	if hang {
		<-ctx.Done()
		return fmt.Errorf("%w: flaky device hung on %s: %v", ErrUnavailable, op, ctx.Err())
	}
	if fail {
		return fmt.Errorf("%w: flaky device failed %s call %d", ErrUnavailable, op, f.Calls(op))
	}
	return ctx.Err()
}

type realSleeper struct{}

func (realSleeper) Sleep(d time.Duration) { time.Sleep(d) }

// Put applies the fault schedule, then forwards.
func (f *Flaky) Put(ctx context.Context, key string, data []byte) error {
	if err := f.gate(ctx, OpPut); err != nil {
		return err
	}
	return f.inner.Put(ctx, key, data)
}

// PutEnvelope applies the OpPut fault schedule, then forwards the envelope
// write (falling back per PutWith when the inner store is format-blind).
func (f *Flaky) PutEnvelope(ctx context.Context, key string, data []byte, opts PutOpts) error {
	if err := f.gate(ctx, OpPut); err != nil {
		return err
	}
	return PutWith(ctx, f.inner, key, data, opts)
}

// GetEnvelope applies the OpGet fault schedule, then forwards.
func (f *Flaky) GetEnvelope(ctx context.Context, key string) ([]byte, PutOpts, error) {
	if err := f.gate(ctx, OpGet); err != nil {
		return nil, PutOpts{}, err
	}
	return GetWith(ctx, f.inner, key)
}

// Get applies the fault schedule, then forwards.
func (f *Flaky) Get(ctx context.Context, key string) ([]byte, error) {
	if err := f.gate(ctx, OpGet); err != nil {
		return nil, err
	}
	return f.inner.Get(ctx, key)
}

// Drop applies the fault schedule, then forwards.
func (f *Flaky) Drop(ctx context.Context, key string) error {
	if err := f.gate(ctx, OpDrop); err != nil {
		return err
	}
	return f.inner.Drop(ctx, key)
}

// Keys applies the fault schedule, then forwards.
func (f *Flaky) Keys(ctx context.Context) ([]string, error) {
	if err := f.gate(ctx, OpKeys); err != nil {
		return nil, err
	}
	return f.inner.Keys(ctx)
}

// Stats applies the fault schedule, then forwards.
func (f *Flaky) Stats(ctx context.Context) (Stats, error) {
	if err := f.gate(ctx, OpStats); err != nil {
		return Stats{}, err
	}
	return f.inner.Stats(ctx)
}
