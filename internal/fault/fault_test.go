package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objectswap/internal/store"
)

// TestDoCoalesces parks N concurrent callers for one cluster on a single
// flight: the leader's run fires once and every waiter resumes with the
// leader's result.
func TestDoCoalesces(t *testing.T) {
	e := New(Config{})
	defer e.Stop()

	release := make(chan struct{})
	var runs atomic.Int32
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		res, leader, err := e.Do(7, func() (any, error) {
			runs.Add(1)
			<-release
			return "payload", nil
		})
		if !leader || err != nil || res != "payload" {
			t.Errorf("leader: res=%v leader=%v err=%v", res, leader, err)
		}
	}()
	// Wait until the leader owns the flight before spawning waiters.
	waitFor(t, func() bool {
		e.fmu.Lock()
		defer e.fmu.Unlock()
		return len(e.flights) == 1
	})

	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, leader, err := e.Do(7, func() (any, error) {
				runs.Add(1)
				return "unexpected", nil
			})
			if leader || err != nil || res != "payload" {
				t.Errorf("waiter: res=%v leader=%v err=%v", res, leader, err)
			}
		}()
	}
	waitFor(t, func() bool { return e.Snapshot().CoalescedWaiters == waiters })
	close(release)
	<-leaderDone
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("run fired %d times, want 1", got)
	}
	// A different cluster never coalesces with cluster 7's flight.
	if _, leader, _ := e.Do(8, func() (any, error) { return nil, nil }); !leader {
		t.Fatal("fresh cluster did not lead its own flight")
	}
}

// TestDoErrorPropagatesAndClears delivers the leader's error to every
// waiter and leaves no flight behind, so a retry starts fresh.
func TestDoErrorPropagatesAndClears(t *testing.T) {
	e := New(Config{})
	defer e.Stop()

	sentinel := errors.New("donor flaked")
	release := make(chan struct{})
	results := make(chan error, 4)
	go func() {
		_, _, err := e.Do(3, func() (any, error) { <-release; return nil, sentinel })
		results <- err
	}()
	waitFor(t, func() bool {
		e.fmu.Lock()
		defer e.fmu.Unlock()
		return len(e.flights) == 1
	})
	for i := 0; i < 3; i++ {
		go func() {
			_, _, err := e.Do(3, func() (any, error) { return nil, nil })
			results <- err
		}()
	}
	waitFor(t, func() bool { return e.Snapshot().CoalescedWaiters == 3 })
	close(release)
	for i := 0; i < 4; i++ {
		if err := <-results; !errors.Is(err, sentinel) {
			t.Fatalf("caller %d got %v, want the leader's error", i, err)
		}
	}
	// The failed flight is gone: the next caller leads and can succeed.
	res, leader, err := e.Do(3, func() (any, error) { return 42, nil })
	if !leader || err != nil || res != 42 {
		t.Fatalf("retry after failure: res=%v leader=%v err=%v", res, leader, err)
	}
}

// TestUncoalescedFaultAllocatesNothing: a fault no waiter joins takes its
// flight off the engine's free list and puts it back, and makes no channel,
// so once the first flight exists a lone Do allocates nothing.
func TestUncoalescedFaultAllocatesNothing(t *testing.T) {
	e := New(Config{})
	defer e.Stop()
	run := func() (any, error) { return nil, nil }
	e.Do(7, run) // the first flight and the table's entry
	if got := testing.AllocsPerRun(100, func() { e.Do(7, run) }); got != 0 {
		t.Fatalf("an uncoalesced Do allocates %.1f objects, want 0", got)
	}
}

// TestJoinedFlightIsNotReused: waiters read their flight's result after its
// leader has gone, so a flight a waiter joined is never handed to a later
// leader. Each round's leader starts once the previous leader has returned,
// while that round's waiters may still be waking; every waiter must resume
// with exactly its own leader's result and error.
func TestJoinedFlightIsNotReused(t *testing.T) {
	e := New(Config{})
	defer e.Stop()
	const rounds, waiters = 20, 3
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		release, led := make(chan struct{}), make(chan struct{})
		want, wantErr := r, fmt.Errorf("round %d failed", r)
		go func() {
			defer close(led)
			res, leader, err := e.Do(5, func() (any, error) { <-release; return want, wantErr })
			if !leader || res != want || err != wantErr {
				t.Errorf("round %d leader: res=%v leader=%v err=%v", r, res, leader, err)
			}
		}()
		waitFor(t, func() bool {
			e.fmu.Lock()
			defer e.fmu.Unlock()
			return len(e.flights) == 1
		})
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, leader, err := e.Do(5, func() (any, error) { return -1, nil })
				if leader || res != want || err != wantErr {
					t.Errorf("round %d waiter: res=%v leader=%v err=%v, want %v and %v", r, res, leader, err, want, wantErr)
				}
			}()
		}
		waitFor(t, func() bool { return e.Snapshot().CoalescedWaiters == uint64((r+1)*waiters) })
		close(release)
		<-led
	}
	wg.Wait()
}

// TestPrefetchPipeline drives the whole speculative path: trigger →
// neighbor ranking → worker swap-in → inventory → hit / waste accounting.
func TestPrefetchPipeline(t *testing.T) {
	var mu sync.Mutex
	installed := []uint32{}
	var e *Engine
	e = New(Config{
		PrefetchDepth:   2,
		PrefetchWorkers: 2,
		Neighbors: func(cluster uint32, k int, buf []uint32) []uint32 {
			if cluster == 1 {
				return append(buf[:0], 2, 3)
			}
			return buf[:0]
		},
		SwapIn: func(cluster uint32) (bool, error) {
			mu.Lock()
			installed = append(installed, cluster)
			mu.Unlock()
			e.Installed(cluster, 100*int64(cluster))
			return true, nil
		},
	})
	defer e.Stop()

	e.TriggerPrefetch(1)
	e.Quiesce()

	mu.Lock()
	n := len(installed)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("prefetcher installed %d clusters, want 2", n)
	}
	snap := e.Snapshot()
	if snap.Enqueued != 2 || snap.Installed != 2 {
		t.Fatalf("snapshot enqueued=%d installed=%d, want 2/2", snap.Enqueued, snap.Installed)
	}
	if len(snap.Inventory) != 2 {
		t.Fatalf("inventory = %+v, want clusters 2 and 3", snap.Inventory)
	}

	// A crossing into cluster 2 is a hit and consumes its inventory entry;
	// re-triggering it is then allowed again (the queued-dedup cleared).
	if bytes, ok := e.ConsumeHit(2); !ok || bytes != 200 {
		t.Fatalf("ConsumeHit(2) = %d,%v want 200,true", bytes, ok)
	}
	if _, ok := e.ConsumeHit(2); ok {
		t.Fatal("second ConsumeHit(2) still found inventory")
	}
	// Cluster 3 is evicted untouched: wasted.
	e.NoteEvicted(3)
	if _, ok := e.ConsumeHit(3); ok {
		t.Fatal("evicted cluster still in inventory")
	}
	snap = e.Snapshot()
	if snap.Hits != 1 || snap.Wasted != 1 || snap.WastedBytes != 300 {
		t.Fatalf("hits=%d wasted=%d wastedBytes=%d, want 1/1/300",
			snap.Hits, snap.Wasted, snap.WastedBytes)
	}
	if acc := snap.Accuracy(); acc != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5 (1 hit of 2 installs)", acc)
	}
}

// TestPrefetchAdmissionGate drops speculation while the admission guard
// reports memory pressure — the SwapIn callback must never fire.
func TestPrefetchAdmissionGate(t *testing.T) {
	var swapIns atomic.Int32
	e := New(Config{
		PrefetchDepth: 1,
		Neighbors:     func(_ uint32, _ int, buf []uint32) []uint32 { return append(buf[:0], 9) },
		SwapIn:        func(uint32) (bool, error) { swapIns.Add(1); return true, nil },
	})
	defer e.Stop()
	e.SetAdmit(func() bool { return false })

	e.TriggerPrefetch(1)
	e.Quiesce()
	if swapIns.Load() != 0 {
		t.Fatalf("SwapIn fired %d times under pressure, want 0", swapIns.Load())
	}
	if snap := e.Snapshot(); snap.SkippedPressure != 1 {
		t.Fatalf("skipped-pressure = %d, want 1", snap.SkippedPressure)
	}

	// Pressure relieved: the same trigger now installs.
	e.SetAdmit(func() bool { return true })
	e.TriggerPrefetch(1)
	e.Quiesce()
	if swapIns.Load() != 1 {
		t.Fatalf("SwapIn fired %d times after relief, want 1", swapIns.Load())
	}
}

// TestNilEngineDegenerates keeps the nil engine a pure pass-through, so a
// runtime without a fault engine still works.
func TestNilEngineDegenerates(t *testing.T) {
	var e *Engine
	res, leader, err := e.Do(1, func() (any, error) { return "x", nil })
	if res != "x" || !leader || err != nil {
		t.Fatalf("nil Do = %v,%v,%v", res, leader, err)
	}
	m := store.NewMem(0)
	if err := m.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	data, err := e.Fetch(context.Background(), "d", m, "k")
	if err != nil || string(data) != "v" {
		t.Fatalf("nil Fetch = %q,%v", data, err)
	}
	e.TriggerPrefetch(1)
	e.NoteEvicted(1)
	e.Quiesce()
	e.Stop()
	if _, ok := e.ConsumeHit(1); ok {
		t.Fatal("nil engine reported a hit")
	}
}

// TestStopDrainsWorkers shuts the pool down with work still queued and
// leaves Quiesce non-blocking afterwards.
func TestStopDrainsWorkers(t *testing.T) {
	e := New(Config{
		PrefetchDepth: 4,
		Neighbors:     func(_ uint32, _ int, buf []uint32) []uint32 { return append(buf[:0], 2, 3, 4, 5) },
		SwapIn: func(uint32) (bool, error) {
			time.Sleep(time.Millisecond)
			return true, nil
		},
	})
	e.TriggerPrefetch(1)
	e.Stop()
	e.Stop() // idempotent
	e.Quiesce()
	e.TriggerPrefetch(1) // no-op after Stop, must not panic on the closed queue
}

// TestTriggerWhileRunningDoesNotRequeue re-triggers the window while its
// cluster's prefetch is still running: the cluster stays in the task set, so
// it is not queued again and the idle worker never parks on its flight.
func TestTriggerWhileRunningDoesNotRequeue(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan uint32, 4)
	var e *Engine
	e = New(Config{
		PrefetchDepth:   1,
		PrefetchWorkers: 2,
		Neighbors:       func(_ uint32, _ int, buf []uint32) []uint32 { return append(buf[:0], 5) },
		SwapIn: func(c uint32) (bool, error) {
			// The core's shape: the speculative reload is the cluster's flight.
			_, leader, err := e.Do(c, func() (any, error) {
				entered <- c
				<-gate
				e.Installed(c, 1)
				return nil, nil
			})
			return leader, err
		},
	})
	defer e.Stop()

	e.TriggerPrefetch(1)
	<-entered
	e.TriggerPrefetch(1)
	e.TriggerPrefetch(2)
	if snap := e.Snapshot(); snap.Enqueued != 1 {
		t.Fatalf("enqueued = %d while cluster 5 runs, want 1", snap.Enqueued)
	}
	close(gate)
	e.Quiesce()
	snap := e.Snapshot()
	if len(entered) != 0 || snap.CoalescedWaiters != 0 || snap.Installed != 1 {
		t.Fatalf("re-entries=%d parked=%d installed=%d, want 0/0/1",
			len(entered), snap.CoalescedWaiters, snap.Installed)
	}
}

// TestTriggerOvertakingANoopTaskRunsItAgain is the swallowed trigger behind
// the access ledger's old flake: a task that will find its cluster resident
// (a no-op) is running when the cluster leaves and a trigger asks for it
// again. That trigger must not be lost to the running task: once the no-op
// ends, the task runs once more and installs the cluster. A trigger for a
// task that installs, or for one still queued, queues nothing
// (TestTriggerWhileRunningDoesNotRequeue).
func TestTriggerOvertakingANoopTaskRunsItAgain(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan uint32, 4)
	var runs atomic.Int32
	var e *Engine
	e = New(Config{
		PrefetchDepth:   1,
		PrefetchWorkers: 2,
		Neighbors:       func(_ uint32, _ int, buf []uint32) []uint32 { return append(buf[:0], 5) },
		SwapIn: func(c uint32) (bool, error) {
			if runs.Add(1) == 1 {
				entered <- c
				<-gate
				return false, nil // it read the cluster resident, before it left
			}
			e.Installed(c, 1)
			return true, nil
		},
	})
	defer e.Stop()

	e.TriggerPrefetch(1)
	<-entered
	e.TriggerPrefetch(1) // cluster 5 has left since the task looked
	e.TriggerPrefetch(2) // one rerun, however many triggers
	close(gate)
	e.Quiesce()
	if snap := e.Snapshot(); runs.Load() != 2 || snap.Installed != 1 || snap.Enqueued != 2 {
		t.Fatalf("runs=%d installed=%d enqueued=%d, want 2/1/2", runs.Load(), snap.Installed, snap.Enqueued)
	}
}

// TestJoinCountsOneHit joins a demand fault onto a running prefetch flight
// and consumes its hit before, and after, the worker's task ends. Either way
// the install earns exactly one hit and nothing is left to waste.
func TestJoinCountsOneHit(t *testing.T) {
	for _, walkerFirst := range []bool{true, false} {
		name := map[bool]string{true: "walker first", false: "worker first"}[walkerFirst]
		t.Run(name, func(t *testing.T) {
			gate, hold := make(chan struct{}), make(chan struct{})
			var e *Engine
			e = New(Config{
				PrefetchDepth: 1,
				Neighbors:     func(_ uint32, _ int, buf []uint32) []uint32 { return append(buf[:0], 5) },
				SwapIn: func(c uint32) (bool, error) {
					_, leader, err := e.Do(c, func() (any, error) {
						<-gate
						e.Installed(c, 64)
						return "prefetched", nil
					})
					<-hold // the worker's task ends only once released
					return leader, err
				},
			})
			defer e.Stop()

			e.TriggerPrefetch(1)
			waitFor(t, func() bool {
				e.fmu.Lock()
				defer e.fmu.Unlock()
				return len(e.flights) == 1
			})
			joined, consume := make(chan struct{}), make(chan bool)
			go func() {
				res, leader, err := e.Do(5, func() (any, error) { return "demand", nil })
				if leader || err != nil || res != "prefetched" {
					t.Errorf("walker did not join the prefetch: res=%v leader=%v err=%v", res, leader, err)
				}
				close(joined)
				<-consume
				_, hit := e.ConsumeHit(5)
				consume <- hit
			}()
			waitFor(t, func() bool { return e.Snapshot().CoalescedWaiters == 1 })
			close(gate)
			<-joined
			if !walkerFirst {
				close(hold)
				e.Quiesce()
			}
			consume <- true
			if !<-consume {
				t.Fatal("the joined fault was not the prefetch's hit")
			}
			if walkerFirst {
				close(hold)
				e.Quiesce()
			}
			if _, again := e.ConsumeHit(5); again {
				t.Fatal("a second crossing took the same install's hit")
			}
			e.NoteEvicted(5)
			snap := e.Snapshot()
			if snap.Installed != 1 || snap.Hits != 1 || snap.Wasted != 0 || len(snap.Inventory) != 0 {
				t.Fatalf("installed=%d hits=%d wasted=%d inventory=%v, want 1/1/0/[]",
					snap.Installed, snap.Hits, snap.Wasted, snap.Inventory)
			}
		})
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
