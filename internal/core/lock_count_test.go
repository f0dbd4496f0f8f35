//go:build lockcount

package core

import (
	"fmt"
	"testing"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// TestLockAcquisitions counts the runtime lock's acquisitions per step of
// Figure 5's two iterations over a resident list: a step is an Invoke of
// "next" on the cursor and a SetRoot of what it returns. A B2 step, through
// an assign-mode cursor that re-aims itself, takes at most 2; a B1 step,
// which mints a fresh proxy, at most 3. Each is one per exported entry: the
// crossing, the mint, the heap reads and writes and the root store all run
// under the hold their entry took. Before the runtime was one monitor, both
// steps took 13 (the swap lock, the table lock, and the heap's lock, its
// remembered-set lock and its observer lock). The floor, heap.DirectRuntime,
// takes its one mutex in each of the same two entries (Invoke, and WithHeap
// for the root store): 2 per step.
func TestLockAcquisitions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		assign bool
		max    uint64
	}{{"B2", true, 2}, {"B1", false, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 0)
			f.buildList(t, 200, 50, 8)
			cur := f.head(t)
			if tc.assign {
				var err error
				if cur, err = f.rt.AssignedCursor(cur); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.rt.SetRoot("cursor", cur); err != nil {
				t.Fatal(err)
			}
			steps, most := 0, uint64(0)
			for {
				before := acquisitions.Load()
				out, err := f.rt.Invoke(cur, "next")
				if err != nil {
					t.Fatal(err)
				}
				if out[0].IsNil() {
					break
				}
				cur = out[0]
				if err := f.rt.SetRoot("cursor", cur); err != nil {
					t.Fatal(err)
				}
				most = max(most, acquisitions.Load()-before)
				steps++
			}
			if steps != 199 {
				t.Fatalf("%d steps, want 199", steps)
			}
			if most > tc.max {
				t.Fatalf("a %s step takes up to %d acquisitions of the runtime lock, want at most %d", tc.name, most, tc.max)
			}
			t.Logf("%s: at most %d acquisitions per step", tc.name, most)
		})
	}
}

// TestSecondDispatcherPanics: the invocation stack belongs to one dispatcher
// (DESIGN §6). A method parks in a demand fault, its donor's read held, with
// the runtime lock let go; a second goroutine that dispatches meanwhile — a
// Field on the list's head — would push onto the first one's frames, and
// under the tag it panics before it pushes anything. The parked call then
// returns the right object, and a Field once the stack is empty passes.
func TestSecondDispatcherPanics(t *testing.T) {
	devices := store.NewRegistry(store.SelectMostFree)
	gs := &gatedStore{Mem: store.NewMem(0)}
	if err := devices.Add("pda-neighbor", gs); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices))
	rt.MustRegisterClass(newNodeClass())
	ids := buildChain(t, rt, 2, 4) // nodes 0-3, 4-7
	ev, err := rt.SwapOut(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	gs.key, gs.gate = ev.Key, make(chan struct{})
	gs.mu.Unlock()

	head, _ := rt.Root("head")
	done := make(chan error, 1)
	go func() {
		out, err := rt.Invoke(head, "fetch", heap.Int(6))
		if err == nil {
			var tag heap.Value
			if tag, err = rt.Field(out[0], "tag"); err == nil && tag.MustInt() != 6 {
				err = fmt.Errorf("fetch returned the node tagged %d, want 6", tag.MustInt())
			}
		}
		done <- err
	}()
	waitUntil(t, func() bool { return gs.waiting() == 1 })

	second := func() (msg any) {
		defer func() { msg = recover() }()
		_, _ = rt.Field(head, "tag")
		return nil
	}()
	close(gs.gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked call did not return after its demand fault")
	}
	if second == nil {
		t.Fatal("a second goroutine dispatched while the first held frames, and nothing panicked")
	}
	t.Logf("the second dispatcher panicked: %v", second)
	if tag, err := rt.Field(head, "tag"); err != nil || tag.MustInt() != 0 {
		t.Fatalf("Field with the stack empty: %v, %v", tag, err)
	}
	checkClean(t, rt)
}
