package core

import (
	"fmt"
	"sync"
	"testing"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// TestEvictionBudget pins the cost of an eviction pass: however many victims
// it swaps out, it runs exactly one collection (the pressure pass that tries
// garbage first), and every victim's bytes are back when its swap-out
// returns — occupancy falls swap by swap with no collection in between.
// check.sh runs it by name: the counts do not depend on the host.
func TestEvictionBudget(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism-%d", parallelism), func(t *testing.T) {
			bus := event.NewBus()
			h := heap.New(0)
			devices := store.NewRegistry(store.SelectMostFree)
			if err := devices.Add("d", store.NewMem(0)); err != nil {
				t.Fatal(err)
			}
			rt := NewRuntime(h, heap.NewRegistry(), WithStores(devices), WithBus(bus))
			f := &fixture{rt: rt, reg: devices, node: newNodeClass()}
			rt.MustRegisterClass(f.node)
			f.buildList(t, 80, 10, 256)
			want := f.snapshotTags(t)

			// What every completed swap-out saw: occupancy and the collection
			// count at the moment SwapOut published its event.
			type sample struct {
				used        int64
				collections uint64
			}
			var mu sync.Mutex
			var samples []sample
			bus.Subscribe(event.TopicSwapOut, func(event.Event) {
				mu.Lock()
				samples = append(samples, sample{h.Used(), h.StatsSnapshot().Collections})
				mu.Unlock()
			})

			before := h.Used()
			collections := h.StatsSnapshot().Collections
			need := before / 2
			if err := rt.EvictWith(EvictOptions{Parallelism: parallelism}, need); err != nil {
				t.Fatal(err)
			}

			if len(samples) < 2 {
				t.Fatalf("pass swapped %d victims, want at least 2", len(samples))
			}
			if got := h.StatsSnapshot().Collections - collections; got != 1 {
				t.Fatalf("pass of %d victims ran %d collections, want exactly 1", len(samples), got)
			}
			if used := h.Used(); used > before-need {
				t.Fatalf("used = %d after the pass, want <= %d", used, before-need)
			}
			prev := before
			for i, s := range samples {
				if s.collections != collections+1 {
					t.Fatalf("victim %d: %d collections so far, want the pass's one", i, s.collections-collections)
				}
				// Concurrent victims publish in any order, so only the
				// sequential pass can demand a drop at every single return.
				if parallelism == 1 && s.used >= prev {
					t.Fatalf("victim %d: used %d, not below the %d before its swap-out", i, s.used, prev)
				}
				prev = s.used
			}
			if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
				t.Fatalf("invariants after the pass: %v", errs)
			}

			got := f.snapshotTags(t)
			if len(got) != len(want) {
				t.Fatalf("list length after reload = %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}
