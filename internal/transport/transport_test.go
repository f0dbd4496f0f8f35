package transport

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"objectswap/internal/link"
	"objectswap/internal/store"
)

var ctx = context.Background()

// harness wires a Resilient around a fault-injecting store on virtual time.
type harness struct {
	res   *Resilient
	flaky *store.Flaky
	mem   *store.Mem
	clock *link.VirtualClock
	m     *Metrics
}

func newHarness(pol Policy, opts ...Option) *harness {
	h := &harness{
		mem:   store.NewMem(0),
		clock: &link.VirtualClock{},
		m:     NewMetrics(),
	}
	h.flaky = store.NewFlaky(h.mem, 1)
	opts = append([]Option{WithClock(h.clock), WithMetrics(h.m)}, opts...)
	h.res = NewResilient("pda", h.flaky, pol, opts...)
	return h
}

func TestRetryAbsorbsTransientFailure(t *testing.T) {
	h := newHarness(Policy{})
	h.flaky.FailOn(store.OpPut, 1)

	if err := h.res.Put(ctx, "k", []byte("payload")); err != nil {
		t.Fatalf("put over transiently-failing store: %v", err)
	}
	if got := h.flaky.Calls(store.OpPut); got != 2 {
		t.Fatalf("device saw %d puts, want 2 (1 failure + 1 retry)", got)
	}
	if h.clock.Elapsed() <= 0 {
		t.Fatal("retry did not back off on the clock")
	}
	snap := h.m.Snapshot()
	if snap.Attempts != 2 || snap.Retries != 1 || snap.Successes != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.BytesOut != int64(len("payload")) {
		t.Fatalf("bytes out = %d", snap.BytesOut)
	}
	// The payload really landed.
	if got, err := h.mem.Get(ctx, "k"); err != nil || string(got) != "payload" {
		t.Fatalf("inner store holds %q, %v", got, err)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	h := newHarness(Policy{MaxAttempts: 2})
	h.flaky.FailNext(store.OpPut, -1)

	err := h.res.Put(ctx, "k", []byte("x"))
	if !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if got := h.flaky.Calls(store.OpPut); got != 2 {
		t.Fatalf("device saw %d puts, want exactly MaxAttempts=2", got)
	}
	snap := h.m.Snapshot()
	if snap.Failures != 1 || snap.Retries != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestDefinitiveAnswersAreNotRetried(t *testing.T) {
	h := newHarness(Policy{BreakerThreshold: 2})

	// ErrNotFound is a protocol answer, not a link failure: one attempt only,
	// and the breaker must not count it as device trouble.
	for i := 0; i < 6; i++ {
		if _, err := h.res.Get(ctx, "missing"); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("err = %v", err)
		}
	}
	if got := h.flaky.Calls(store.OpGet); got != 6 {
		t.Fatalf("device saw %d gets, want 6 (no retries)", got)
	}
	if h.res.BreakerOpen() {
		t.Fatal("breaker tripped on NotFound answers")
	}
}

func TestBreakerTripsProbesAndRecovers(t *testing.T) {
	var transitions []bool
	h := newHarness(
		Policy{MaxAttempts: 1, BreakerThreshold: 2, BreakerProbeEvery: 3},
		WithBreakerNotify(func(open bool) { transitions = append(transitions, open) }),
	)
	h.flaky.FailNext(store.OpPut, -1)

	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if err := h.res.Put(ctx, "k", []byte("x")); err == nil {
			t.Fatal("put succeeded over dead store")
		}
	}
	if !h.res.BreakerOpen() {
		t.Fatal("breaker not open after threshold failures")
	}
	devCalls := h.flaky.Calls(store.OpPut)

	// While open, most operations fail fast without touching the device.
	err := h.res.Put(ctx, "k", []byte("x"))
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("fast-fail err = %v", err)
	}
	if h.flaky.Calls(store.OpPut) != devCalls {
		t.Fatal("rejected operation reached the device")
	}

	// The device heals; periodic probes discover it and close the breaker.
	h.flaky.FailNext(store.OpPut, 0)
	for i := 0; i < 12 && h.res.BreakerOpen(); i++ {
		_ = h.res.Put(ctx, "k", []byte("x"))
	}
	if h.res.BreakerOpen() {
		t.Fatal("breaker never closed after the device recovered")
	}
	if len(transitions) != 2 || !transitions[0] || transitions[1] {
		t.Fatalf("breaker transitions = %v, want [open close]", transitions)
	}
	snap := h.m.Snapshot()
	if snap.BreakerTrips != 1 || snap.Rejected == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if d := snap.Devices["pda"]; d.BreakerOpen {
		t.Fatal("device snapshot still reports the breaker open")
	}
}

func TestPerAttemptTimeoutIsRetriedAsUnavailable(t *testing.T) {
	h := newHarness(Policy{OpTimeout: 20 * time.Millisecond})
	if err := h.mem.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	h.flaky.HangOn(store.OpGet, 1) // first fetch never answers

	got, err := h.res.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if calls := h.flaky.Calls(store.OpGet); calls != 2 {
		t.Fatalf("device saw %d gets, want 2 (hang + retry)", calls)
	}
}

func TestTimeoutExhaustionSurfacesAsUnavailableAndTripsBreaker(t *testing.T) {
	h := newHarness(Policy{OpTimeout: 10 * time.Millisecond, MaxAttempts: 1, BreakerThreshold: 1})
	h.flaky.HangOn(store.OpGet, 1)

	_, err := h.res.Get(ctx, "k")
	if !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("timed-out op reported %v, want ErrUnavailable", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("per-attempt timeout leaked as the caller's DeadlineExceeded")
	}
	if !h.res.BreakerOpen() {
		t.Fatal("hung device did not count against breaker health")
	}
}

func TestCallerCancellationFailsFastWithoutBlame(t *testing.T) {
	h := newHarness(Policy{BreakerThreshold: 1})
	cctx, cancel := context.WithCancel(ctx)
	cancel()

	err := h.res.Put(cctx, "k", []byte("x"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if calls := h.flaky.Calls(store.OpPut); calls > 1 {
		t.Fatalf("canceled op was retried (%d calls)", calls)
	}
	if h.res.BreakerOpen() {
		t.Fatal("caller cancellation tripped the breaker")
	}
}

// recordClock captures every backoff sleep.
type recordClock struct{ sleeps []time.Duration }

func (c *recordClock) Sleep(d time.Duration) { c.sleeps = append(c.sleeps, d) }

func TestBackoffIsExponentialAndDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		clock := &recordClock{}
		flaky := store.NewFlaky(store.NewMem(0), 1)
		flaky.FailNext(store.OpPut, -1)
		r := NewResilient("pda", flaky,
			Policy{MaxAttempts: 6, BackoffBase: 10 * time.Millisecond, BackoffMax: time.Second, Seed: seed},
			WithClock(clock))
		_ = r.Put(ctx, "k", []byte("x"))
		return clock.sleeps
	}

	a, b := run(42), run(42)
	if len(a) != 5 {
		t.Fatalf("%d sleeps, want MaxAttempts-1=5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at sleep %d: %v vs %v", i, a[i], b[i])
		}
		floor := 10 * time.Millisecond << i
		if floor > time.Second {
			floor = time.Second
		}
		if a[i] < floor || a[i] > floor+floor/2 {
			t.Fatalf("sleep %d = %v, want in [%v, %v]", i, a[i], floor, floor+floor/2)
		}
	}
}

func TestMetricsAggregateAcrossDevices(t *testing.T) {
	m := NewMetrics()
	good := NewResilient("good", store.NewFlaky(store.NewMem(0), 1), Policy{}, WithMetrics(m))
	badFlaky := store.NewFlaky(store.NewMem(0), 1)
	badFlaky.FailNext(store.OpPut, -1)
	bad := NewResilient("bad", badFlaky, Policy{MaxAttempts: 1, BreakerThreshold: -1}, WithMetrics(m))

	if err := good.Put(ctx, "k", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := bad.Put(ctx, "k", []byte("abcd")); err == nil {
		t.Fatal("put to dead device succeeded")
	}

	snap := m.Snapshot()
	if snap.Successes != 1 || snap.Failures != 1 || snap.BytesOut != 4 {
		t.Fatalf("totals = %+v", snap)
	}
	if snap.Devices["good"].Successes != 1 || snap.Devices["bad"].Failures != 1 {
		t.Fatalf("per-device = %+v", snap.Devices)
	}
	out := snap.String()
	if !strings.Contains(out, "good") || !strings.Contains(out, "bad") {
		t.Fatalf("rendered snapshot missing devices:\n%s", out)
	}

	// A lease renewal is its own kind of operation, not a capacity probe.
	leased := NewResilient("leased", store.NewLeaseGC(store.NewMem(0), time.Hour, nil), Policy{}, WithMetrics(m))
	if err := leased.Put(ctx, "k", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := leased.RenewLease(ctx, "k", time.Hour); err != nil {
		t.Fatal(err)
	}
	if renew, stats := m.ops.With("leased", "renew").Value(), m.ops.With("leased", "stats").Value(); renew != 1 || stats != 0 {
		t.Fatalf("ops_total{device=leased}: renew = %v, stats = %v, want 1 and 0", renew, stats)
	}
}

func TestProbeBypassesBreakerAndRecovers(t *testing.T) {
	h := newHarness(Policy{MaxAttempts: 1, BreakerThreshold: 1})
	h.flaky.FailNext(store.OpPut, -1)
	h.flaky.FailNext(store.OpStats, -1)

	if err := h.res.Put(ctx, "k", []byte("x")); err == nil {
		t.Fatal("put to dead device succeeded")
	}
	if !h.res.BreakerOpen() {
		t.Fatal("breaker not open")
	}

	// Probing a still-dead device reaches it (past the gate) and fails.
	statsBefore := h.flaky.Calls(store.OpStats)
	if err := h.res.Probe(ctx); err == nil {
		t.Fatal("probe of dead device succeeded")
	}
	if h.flaky.Calls(store.OpStats) != statsBefore+1 {
		t.Fatal("probe never reached the device")
	}
	if !h.res.BreakerOpen() {
		t.Fatal("failed probe closed the breaker")
	}

	// After recovery one probe closes the breaker.
	h.flaky.FailNext(store.OpStats, 0)
	if err := h.res.Probe(ctx); err != nil {
		t.Fatalf("probe of recovered device: %v", err)
	}
	if h.res.BreakerOpen() {
		t.Fatal("breaker still open after successful probe")
	}
}
