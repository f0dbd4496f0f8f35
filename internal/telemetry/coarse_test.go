package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objectswap/internal/obs"
)

// realTracker is a tracker on the real clock, a Stopwatch, so that accesses
// are dated with the coarse instant.
func realTracker(t *testing.T) *Tracker {
	t.Helper()
	tr := New(obs.NewRegistry(obs.RealClock{}), Options{})
	if tr.watch == nil {
		t.Fatal("the real clock is no Stopwatch")
	}
	return tr
}

// waitIdle waits until tr's refresher has disarmed its timer, which takes
// two firings with no access between them.
func waitIdle(t *testing.T, tr *Tracker) {
	t.Helper()
	time.Sleep(3 * refreshPeriod)
	for deadline := time.Now().Add(5 * time.Second); tr.refreshing.Load() != refreshIdle; {
		if time.Now().After(deadline) {
			t.Fatalf("refresher still in state %d after 5 s without an access", tr.refreshing.Load())
		}
		time.Sleep(refreshPeriod)
	}
}

// A warm coarse reading allocates nothing, and neither does a timer firing
// that falls inside the count.
func TestAccessNowAllocatesNothing(t *testing.T) {
	tr := realTracker(t)
	tr.AccessNow()
	if n := testing.AllocsPerRun(1000, func() { tr.AccessNow() }); n != 0 {
		t.Fatalf("a warm AccessNow allocates %v objects, want 0", n)
	}
	// Long enough for several firings to land inside the count.
	if n := testing.AllocsPerRun(20, func() {
		tr.AccessNow()
		time.Sleep(refreshPeriod)
	}); n != 0 {
		t.Fatalf("an AccessNow beside the refresh timer allocates %v objects, want 0", n)
	}
}

// Coarse readings never go back, against a read side raising the instant
// from another goroutine and the timer refreshing it from a third, and an
// access is never dated before a read that finished ahead of it.
func TestAccessNowMonotoneAgainstReads(t *testing.T) {
	tr := realTracker(t)
	var lastRead atomic.Int64 // the latest read side's instant, published once it returned
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			lastRead.Store(int64(tr.instant(tr.readNow())))
		}
	}()
	var prev Instant
	for i := 0; i < 20000; i++ {
		ahead := Instant(lastRead.Load())
		now := tr.AccessNow()
		if now < prev {
			close(stop)
			wg.Wait()
			t.Fatalf("reading %d went back: %d after %d", i, now, prev)
		}
		if now < ahead {
			close(stop)
			wg.Wait()
			t.Fatalf("reading %d dated %d, before the read at %d that finished ahead of it", i, now, ahead)
		}
		prev = now
	}
	close(stop)
	wg.Wait()
}

// An access right after a read side's reading is not dated before it, though
// the timer has not fired since.
func TestAccessNowNotBeforeARead(t *testing.T) {
	tr := realTracker(t)
	tr.AccessNow() // arm the refresher: the next access reads the coarse instant
	for i := 0; i < 100; i++ {
		read := tr.instant(tr.readNow())
		if now := tr.AccessNow(); now < read {
			t.Fatalf("access dated %d, before the read at %d ahead of it", now, read)
		}
	}
}

// A tracker in use keeps its coarse instant moving; once no access has come
// for about three refresh periods no timer is armed, and the next access
// takes a fresh reading and arms the timer again.
func TestAccessNowIdlesAndWakes(t *testing.T) {
	tr := realTracker(t)
	first := tr.AccessNow()
	for deadline := time.Now().Add(5 * time.Second); tr.AccessNow() < first+Instant(refreshPeriod); {
		if time.Now().After(deadline) {
			t.Fatalf("coarse instant stuck at %d for 5 s of accesses", tr.AccessNow())
		}
		time.Sleep(refreshPeriod / 4)
	}
	waitIdle(t, tr)
	before := tr.Now()
	if now := tr.AccessNow(); now < before {
		t.Fatalf("first access after idle dated %d, before a full reading at %d ahead of it", now, before)
	}
	if s := tr.refreshing.Load(); s != refreshAccessed && s != refreshArmed {
		t.Fatalf("refresher in state %d after a waking access, want it armed", s)
	}
	waitIdle(t, tr)
}
