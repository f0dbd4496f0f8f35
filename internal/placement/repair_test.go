package placement

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"objectswap/internal/event"
)

// fakeTarget is a scriptable RepairTarget.
type fakeTarget struct {
	mu       sync.Mutex
	under    []uint32
	errs     map[uint32]error
	repaired []uint32
}

func (f *fakeTarget) UnderReplicated(int) []uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint32(nil), f.under...)
}

func (f *fakeTarget) RepairCluster(_ context.Context, c uint32, _ int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.errs[c]; err != nil {
		return err
	}
	f.repaired = append(f.repaired, c)
	// A repaired cluster leaves the under-replicated set.
	var rest []uint32
	for _, id := range f.under {
		if id != c {
			rest = append(rest, id)
		}
	}
	f.under = rest
	return nil
}

func (f *fakeTarget) repairedIDs() []uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint32(nil), f.repaired...)
}

func TestRepairNowSweepsAndCounts(t *testing.T) {
	target := &fakeTarget{
		under: []uint32{1, 2, 3, 4},
		errs: map[uint32]error{
			2: fmt.Errorf("%w: busy", ErrSkip),
			3: errors.New("donor pool exhausted"),
		},
	}
	r := NewRepairer(target, 2, RepairerOptions{})
	defer r.Close()

	n, err := r.RepairNow(context.Background())
	if n != 2 {
		t.Fatalf("repaired %d clusters, want 2", n)
	}
	if err == nil || err.Error() != "donor pool exhausted" {
		t.Fatalf("err = %v", err)
	}
	got := target.repairedIDs()
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("repaired = %v", got)
	}
}

func TestRepairerKickedByBusEvents(t *testing.T) {
	bus := event.NewBus()
	target := &fakeTarget{under: []uint32{7}}
	r := NewRepairer(target, 2, RepairerOptions{Bus: bus})
	r.Start()
	defer r.Close()

	// A breaker-open event must wake the background loop, which repairs the
	// under-replicated cluster.
	bus.Emit(event.TopicBreakerOpen, "some-donor")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := target.repairedIDs(); len(got) == 1 && got[0] == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background repair never ran; repaired = %v", target.repairedIDs())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRepairerKickCoalesces(t *testing.T) {
	// Kicks before Start must not block the publisher (the bus delivers
	// synchronously from inside swap operations).
	target := &fakeTarget{}
	r := NewRepairer(target, 2, RepairerOptions{})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			r.signal("test")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("signal blocked with no consumer")
	}
	r.Close()
}

func TestRepairerCloseIdempotent(t *testing.T) {
	r := NewRepairer(&fakeTarget{}, 2, RepairerOptions{})
	r.Start()
	r.Close()
	r.Close() // must not panic or hang
}
