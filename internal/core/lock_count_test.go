//go:build lockcount

package core

import "testing"

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
