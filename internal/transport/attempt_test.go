package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"objectswap/internal/store"
)

// TestAttemptOverMemAllocatesOnlyTheCopy: a store that only polls Err, as
// store.Mem does, is handed a reused attempt context, so a warm Get through
// the whole resilience stack — breaker, per-attempt timeout, metrics —
// allocates only the payload copy the donor hands back.
func TestAttemptOverMemAllocatesOnlyTheCopy(t *testing.T) {
	mem := store.NewMem(0)
	if err := mem.Put(ctx, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	r := NewResilient("pda", mem, Policy{OpTimeout: time.Minute}, WithMetrics(NewMetrics()))
	get := func() {
		if data, err := r.Get(ctx, "k"); err != nil || string(data) != "payload" {
			t.Fatalf("get = %q, %v", data, err)
		}
	}
	get() // the first attempt context, the metric series
	if got := testing.AllocsPerRun(100, get); got != 1 {
		t.Fatalf("a warm Get over store.Mem allocates %.1f objects, want 1 (the donor's copy)", got)
	}
}

// keeper is a store whose Get, when asked to, takes its context's Done
// channel and keeps the context past its return, as a store that hands the
// context to a goroutine of its own does.
type keeper struct {
	*store.Mem
	watch bool
	seen  []context.Context
}

func (k *keeper) Get(ctx context.Context, key string) ([]byte, error) {
	if k.watch {
		_ = ctx.Done()
	}
	k.seen = append(k.seen, ctx)
	return k.Mem.Get(ctx, key)
}

// TestArmedAttemptContextIsNotReused: a context whose Done the store asked
// for closes when its attempt ends, as context.WithTimeout's does when
// cancelled, and no later attempt is handed it again; contexts nobody asked
// Done of are reused.
func TestArmedAttemptContextIsNotReused(t *testing.T) {
	k := &keeper{Mem: store.NewMem(0)}
	if err := k.Mem.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	r := NewResilient("pda", k, Policy{OpTimeout: time.Minute})
	get := func() {
		t.Helper()
		if _, err := r.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	get()
	get()
	if k.seen[0] != k.seen[1] {
		t.Fatal("an attempt context nobody asked Done of was not reused")
	}

	k.watch = true
	get()
	kept := k.seen[2]
	select {
	case <-kept.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the kept context did not close when its attempt ended")
	}
	if !errors.Is(kept.Err(), context.Canceled) {
		t.Fatalf("the kept context reports %v after its attempt, want context.Canceled", kept.Err())
	}

	k.watch = false
	get()
	get()
	if next := k.seen[3]; next == kept || k.seen[4] == kept {
		t.Fatal("an attempt was handed the context an earlier store kept")
	}
	if kept.Err() == nil {
		t.Fatal("the kept context reopened for a later attempt")
	}
}

// TestAttemptContextReportsParentFirst: an attempt context reports its
// parent's error first and DeadlineExceeded once its own deadline has passed,
// and its deadline is the earlier of the two.
func TestAttemptContextReportsParentFirst(t *testing.T) {
	past, future := time.Now().Add(-time.Second), time.Now().Add(time.Hour)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name     string
		parent   context.Context
		deadline time.Time
		want     error
	}{
		{"parent cancelled, deadline passed", cancelled, past, context.Canceled},
		{"parent live, deadline passed", ctx, past, context.DeadlineExceeded},
		{"parent live, deadline ahead", ctx, future, nil},
	} {
		c := &attemptCtx{parent: tc.parent, deadline: tc.deadline}
		if err := c.Err(); err != tc.want {
			t.Errorf("%s: Err() = %v, want %v", tc.name, err, tc.want)
		}
	}

	soon := time.Now().Add(time.Minute)
	bounded, cancelBounded := context.WithDeadline(ctx, soon)
	defer cancelBounded()
	if d, ok := (&attemptCtx{parent: bounded, deadline: future}).Deadline(); !ok || !d.Equal(soon) {
		t.Fatalf("Deadline() = %v, %v; want the parent's earlier %v", d, ok, soon)
	}
	if d, ok := (&attemptCtx{parent: bounded, deadline: past}).Deadline(); !ok || !d.Equal(past) {
		t.Fatalf("Deadline() = %v, %v; want the attempt's earlier %v", d, ok, past)
	}

	// Armed, it closes at its deadline and reports DeadlineExceeded, as
	// context.WithDeadline does.
	c := &attemptCtx{parent: ctx, deadline: time.Now().Add(5 * time.Millisecond)}
	select {
	case <-c.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("an armed attempt context did not close at its deadline")
	}
	if !errors.Is(c.Err(), context.DeadlineExceeded) {
		t.Fatalf("armed Err() = %v after the deadline, want DeadlineExceeded", c.Err())
	}
}
