package objectswap

// scenario_test drives the paper's Figure 2 deployment end to end: multiple
// constrained PDAs replicate from one master and swap to a *shared
// neighborhood* of storage devices over HTTP, concurrently, with keys and
// clusters fully isolated per device.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/replication"
	"objectswap/internal/store"
)

func TestNeighborhoodScenario(t *testing.T) {
	// One master catalogue.
	reg := heap.NewRegistry()
	reg.MustRegister(taskClass())
	master := replication.NewMaster(reg, 10)
	cls, _ := reg.Lookup("Task")
	var prev *heap.Object
	const items = 60
	for i := 0; i < items; i++ {
		o, _ := master.Heap().New(cls)
		o.MustSet("title", heap.Str(fmt.Sprintf("item-%02d", i)))
		if prev == nil {
			master.Heap().SetRoot("catalogue", o.RefTo())
		} else {
			prev.MustSet("next", o.RefTo())
		}
		prev = o
	}
	masterSrv := httptest.NewServer(replication.NewHandler(master))
	defer masterSrv.Close()

	// Two shared storage nodes in the neighborhood.
	shared1 := store.NewMem(0)
	shared2 := store.NewMem(0)
	store1 := httptest.NewServer(store.NewHandler(shared1))
	defer store1.Close()
	store2 := httptest.NewServer(store.NewHandler(shared2))
	defer store2.Close()

	// Three PDAs working concurrently. Each System is single-threaded
	// internally; concurrency is across devices, as in the real scenario.
	const pdas = 3
	var wg sync.WaitGroup
	var totalSwaps atomic.Int64
	errs := make([]error, pdas)
	for p := 0; p < pdas; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = runPDA(p, masterSrv.URL, store1.URL, store2.URL, items, &totalSwaps)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("pda %d: %v", p, err)
		}
	}

	// Pressure really moved data through the neighborhood (keys never
	// collided — every PDA verified both passes — and shipments flowed).
	if totalSwaps.Load() == 0 {
		t.Fatal("no shipments reached the neighborhood stores")
	}
}

// runPDA replicates the catalogue, works through it under memory pressure,
// and verifies every item.
func runPDA(id int, masterURL, store1URL, store2URL string, items int, swaps *atomic.Int64) error {
	sys, err := New(Config{
		HeapCapacity:    16 << 10,
		MemoryThreshold: 0.5,
	})
	if err != nil {
		return err
	}
	if err := sys.AttachDevice("shared-1", store.NewClient(store1URL)); err != nil {
		return err
	}
	if err := sys.AttachDevice("shared-2", store.NewClient(store2URL)); err != nil {
		return err
	}
	// Every published swap event must carry the pipeline's phase breakdown.
	var phaseErr atomic.Value
	checkPhases := func(ev event.Event, want []string) {
		e, ok := ev.Payload.(SwapEvent)
		if !ok {
			phaseErr.Store(fmt.Errorf("swap event payload is %T", ev.Payload))
			return
		}
		if len(e.Phases) != len(want) {
			phaseErr.Store(fmt.Errorf("swap event has %d phases, want %d", len(e.Phases), len(want)))
			return
		}
		var bytes int64
		for i, ph := range e.Phases {
			if ph.Name != want[i] {
				phaseErr.Store(fmt.Errorf("phase %d is %q, want %q", i, ph.Name, want[i]))
				return
			}
			bytes += ph.Bytes
		}
		if bytes == 0 {
			phaseErr.Store(fmt.Errorf("swap event phases carry no bytes"))
		}
	}
	sys.Bus().Subscribe(event.TopicSwapOut, func(ev event.Event) {
		swaps.Add(1)
		checkPhases(ev, []string{"reserve", "snapshot", "negotiate", "encode", "ship", "commit"})
	})
	sys.Bus().Subscribe(event.TopicSwapIn, func(ev event.Event) {
		checkPhases(ev, []string{"reserve", "fetch", "decode", "evict", "install"})
	})
	sys.MustRegisterClass(taskClass())
	repl := sys.ReplicateFrom(replication.NewClient(masterURL), 1)
	if _, err := repl.ReplicateRoot(context.Background(), "catalogue"); err != nil {
		return err
	}

	// Two full passes: the second pass re-faults whatever pressure evicted.
	for pass := 0; pass < 2; pass++ {
		cur, err := sys.MustRoot("catalogue")
		if err != nil {
			return err
		}
		count := 0
		for !cur.IsNil() {
			// The context-management monitor runs alongside the application,
			// turning occupancy into policy-driven swap-outs.
			sys.Monitor().Check()
			out, err := sys.Invoke(cur, "title")
			if err != nil {
				return fmt.Errorf("pass %d item %d: %w", pass, count, err)
			}
			title, _ := out[0].Str()
			if title != fmt.Sprintf("item-%02d", count) {
				return fmt.Errorf("pass %d item %d: got %q", pass, count, title)
			}
			cur, err = sys.Field(cur, "next")
			if err != nil {
				return err
			}
			count++
		}
		if count != items {
			return fmt.Errorf("pass %d: %d items, want %d", pass, count, items)
		}
	}
	if err, ok := phaseErr.Load().(error); ok {
		return err
	}
	return nil
}
