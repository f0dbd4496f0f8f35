package link

import (
	"context"
	"errors"
	"testing"
	"time"

	"objectswap/internal/store"
)

var ctx = context.Background()

func TestTransferTimeModel(t *testing.T) {
	p := Bluetooth1() // 700 Kbps, 30 ms latency
	// 8750 bytes = 70000 bits = 100 ms at 700 Kbps, plus 30 ms latency.
	got := p.transferTime(8750)
	want := 130 * time.Millisecond
	if got != want {
		t.Fatalf("transferTime = %v, want %v", got, want)
	}
	// Zero bandwidth disables the serialization delay.
	p0 := Profile{Latency: 5 * time.Millisecond}
	if p0.transferTime(1<<20) != 5*time.Millisecond {
		t.Fatal("zero-bandwidth profile should cost latency only")
	}
}

func TestLinkAccountsTraffic(t *testing.T) {
	clock := &VirtualClock{}
	l := Wrap(store.NewMem(0), Bluetooth1(), clock)

	payload := make([]byte, 8750)
	if err := l.Put(ctx, "k", payload); err != nil {
		t.Fatal(err)
	}
	got, err := l.Get(ctx, "k")
	if err != nil || len(got) != len(payload) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	if err := l.Drop(ctx, "k"); err != nil {
		t.Fatal(err)
	}

	st := l.TrafficStats()
	if st.Ops != 3 {
		t.Fatalf("ops = %d", st.Ops)
	}
	if st.BytesSent != 8750 || st.BytesReceived != 8750 {
		t.Fatalf("traffic = %+v", st)
	}
	// Put 130ms + Get 130ms + Drop 30ms = 290ms of virtual link time.
	if clock.Elapsed() != 290*time.Millisecond {
		t.Fatalf("virtual time = %v, want 290ms", clock.Elapsed())
	}
	if st.Delay != clock.Elapsed() {
		t.Fatalf("stats delay %v != clock %v", st.Delay, clock.Elapsed())
	}
	clock.Reset()
	if clock.Elapsed() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestLinkJitterDeterministic(t *testing.T) {
	mk := func() *Link {
		return Wrap(store.NewMem(0), Profile{
			Name: "jittery", Latency: 10 * time.Millisecond, Jitter: 16 * time.Millisecond,
		}, &VirtualClock{})
	}
	run := func(l *Link) time.Duration {
		for i := 0; i < 10; i++ {
			_ = l.Put(ctx, "k", []byte("x"))
		}
		return l.TrafficStats().Delay
	}
	a, b := run(mk()), run(mk())
	if a != b {
		t.Fatalf("jitter not deterministic: %v vs %v", a, b)
	}
	if a <= 100*time.Millisecond {
		t.Fatalf("jitter added nothing: %v", a)
	}
}

func TestLinkFaultInjection(t *testing.T) {
	l := Wrap(store.NewMem(0), Profile{FailEvery: 3}, &VirtualClock{})
	var failures int
	for i := 0; i < 9; i++ {
		if err := l.Put(ctx, "k", []byte("x")); err != nil {
			if !errors.Is(err, store.ErrUnavailable) {
				t.Fatalf("unexpected failure type: %v", err)
			}
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("failures = %d, want 3 (every 3rd op)", failures)
	}
	if l.TrafficStats().Failures != 3 {
		t.Fatalf("stats failures = %d", l.TrafficStats().Failures)
	}
}

func TestLinkPropagatesStoreSemantics(t *testing.T) {
	inner := store.NewMem(0)
	l := Wrap(inner, Profile{}, &VirtualClock{})
	if _, err := l.Get(ctx, "missing"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get missing through link: %v", err)
	}
	_ = l.Put(ctx, "a", []byte("1"))
	keys, err := l.Keys(ctx)
	if err != nil || len(keys) != 1 {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	st, err := l.Stats(ctx)
	if err != nil || st.Items != 1 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	if l.Profile().Name != "" {
		t.Fatalf("Profile = %+v", l.Profile())
	}
}

func TestRealClockSleeps(t *testing.T) {
	start := time.Now()
	RealClock{}.Sleep(5 * time.Millisecond)
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("RealClock did not sleep")
	}
}
