package core

import (
	"context"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
	"objectswap/internal/wire"
)

// titles snapshots the title of every member of clusters, each in a copy of
// its own: the oracle reloaded titles are compared against.
func titles(t *testing.T, f *fixture, clusters []ClusterID) map[heap.ObjID]string {
	t.Helper()
	out := make(map[heap.ObjID]string)
	for _, id := range clusters {
		for _, oid := range members(f, id) {
			out[oid] = strings.Clone(title(t, f, oid))
		}
	}
	return out
}

// members lists a cluster's members.
func members(f *fixture, id ClusterID) []heap.ObjID {
	tab := &f.rt.mgr.table
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return append([]heap.ObjID(nil), tab.clusters[id].members...)
}

func title(t *testing.T, f *fixture, oid heap.ObjID) string {
	t.Helper()
	o, err := f.rt.h.Get(oid)
	if err != nil {
		t.Fatalf("@%d: %v", oid, err)
	}
	v, err := o.FieldByName("title")
	if err != nil {
		t.Fatal(err)
	}
	s, err := v.Str()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkTitles collects the Go heap three times, so a frame nothing but the
// installed strings refers to would be gone if they did not keep it, and
// compares every resident member's title with the oracle.
func checkTitles(t *testing.T, f *fixture, oracle map[heap.ObjID]string, when string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	checked := 0
	for oid, want := range oracle {
		if f.rt.h.Contains(oid) {
			if got := title(t, f, oid); got != want {
				t.Fatalf("%s: @%d title %.24q..., want %.24q...", when, oid, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no member resident to check", when)
	}
}

// TestReloadedStringsOutliveTheFetch: a swap-in hands its fetched copy over,
// and a binary frame's string section becomes the storage of the titles it
// installs (a compressed frame's inflated body does; XML is copied). Nothing
// else refers to the copy once the swap-in returns, so the titles alone must
// keep it alive and unchanged: after three collections every title equals the
// one written before the first swap-out, and still does after the other
// clusters' fetches and a further swap-out and swap-in of each. Two clusters
// are reloaded one after the other, so a store that served every Get from one
// reused buffer would show the second cluster's titles in the first's.
//
// The prefetch case drives the same check through a pointer chase with two
// prefetch workers reloading the clusters ahead of the walker, concurrently
// with its demand faults; check.sh runs the test ten times under the race
// detector.
func TestReloadedStringsOutliveTheFetch(t *testing.T) {
	for _, format := range []wire.FormatID{wire.FormatBinary, wire.FormatFlate, wire.FormatXML} {
		t.Run(string(format), func(t *testing.T) {
			f, ids := taskFixture(t, 3, 32, 128, WithWireFormats(string(format)))
			away := ids[1:]
			oracle := titles(t, f, ids)
			for round := 0; round < 2; round++ {
				for _, id := range away {
					touchTask(t, f, id) // ship, not leave on the copy
					ev, err := f.rt.SwapOut(id)
					if err != nil {
						t.Fatal(err)
					}
					if ev.Format != string(format) {
						t.Fatalf("shipped %q, want %q", ev.Format, format)
					}
				}
				f.rt.Collect()
				for i, id := range away {
					if _, err := f.rt.SwapIn(id); err != nil {
						t.Fatal(err)
					}
					checkTitles(t, f, oracle, fmt.Sprintf("round %d, after reload %d", round, i))
				}
			}
		})
	}
	t.Run("prefetch", func(t *testing.T) {
		f, ids := taskFixture(t, 8, 32, 128, WithPrefetch(2, 2))
		defer f.rt.FaultEngine().Stop()
		oracle := titles(t, f, ids)
		for round := 0; round < 2; round++ {
			for _, id := range ids {
				touchTask(t, f, id)
				if _, err := f.rt.SwapOut(id); err != nil {
					t.Fatal(err)
				}
			}
			f.rt.Collect()
			cur := f.head(t)
			for step := 0; step < len(oracle)-1; step++ {
				next, err := f.rt.Field(cur, "next")
				if err != nil {
					t.Fatalf("round %d, step %d: %v", round, step, err)
				}
				cur = next
			}
			f.rt.FaultEngine().Quiesce()
			checkTitles(t, f, oracle, fmt.Sprintf("round %d, after the chase", round))
		}
	})
}

// frameWitness is a donor that remembers every payload its Get handed out and
// a checksum of it taken on the way out, so a test can show nobody wrote to
// a fetched copy afterwards.
type frameWitness struct {
	*store.Mem
	mu     sync.Mutex
	frames [][]byte
	sums   []uint32
}

func (w *frameWitness) Get(ctx context.Context, key string) ([]byte, error) {
	data, _, err := w.GetEnvelope(ctx, key)
	return data, err
}

func (w *frameWitness) GetEnvelope(ctx context.Context, key string) ([]byte, store.PutOpts, error) {
	data, opts, err := w.Mem.GetEnvelope(ctx, key)
	if err == nil {
		w.mu.Lock()
		w.frames, w.sums = append(w.frames, data), append(w.sums, crc32.ChecksumIEEE(data))
		w.mu.Unlock()
	}
	return data, opts, err
}

// verify reports the fetched copies whose bytes changed since Get returned
// them, and how many there are.
func (w *frameWitness) verify(t *testing.T, when string) int {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, data := range w.frames {
		if crc32.ChecksumIEEE(data) != w.sums[i] {
			t.Fatalf("%s: fetched copy %d was written after its Get returned", when, i)
		}
	}
	return len(w.frames)
}

// TestSwapInNeverWritesTheFetchedFrame: what the donor's Get returned is
// handed over to the installed strings, so nothing may write to it again —
// not the swap-in that staged it, not the swap-out that ships the cluster
// next (its encoder buffers are pooled), not a collection. The donor
// checksums every copy on its way out and the checksums are taken again
// after each of the three.
func TestSwapInNeverWritesTheFetchedFrame(t *testing.T) {
	for _, format := range []wire.FormatID{wire.FormatBinary, wire.FormatFlate, wire.FormatXML} {
		t.Run(string(format), func(t *testing.T) {
			f, ids := taskFixture(t, 2, 32, 128, WithWireFormats(string(format)))
			witness := &frameWitness{Mem: f.mem}
			f.reg.Remove("d")
			if err := f.reg.Add("d", witness); err != nil {
				t.Fatal(err)
			}
			id := ids[1]
			fetched := 0
			for round := 0; round < 3; round++ {
				touchTask(t, f, id)
				if _, err := f.rt.SwapOut(id); err != nil {
					t.Fatal(err)
				}
				if round > 0 {
					witness.verify(t, fmt.Sprintf("round %d, after the next swap-out", round))
				}
				if _, err := f.rt.SwapIn(id); err != nil {
					t.Fatal(err)
				}
				if n := witness.verify(t, fmt.Sprintf("round %d, after the swap-in", round)); n != fetched+1 {
					t.Fatalf("round %d: the donor served %d Gets in all, want %d", round, n, fetched+1)
				}
				fetched++
				f.rt.Collect()
				witness.verify(t, fmt.Sprintf("round %d, after a collection", round))
			}
		})
	}
}

// TestReloadedClusterHostBytes gates what a reloaded cluster costs the
// host's own memory: 64 clusters of 32 members with 128 B titles are swapped
// out and collected, then reloaded in the binary format and collected again,
// and the Go heap's growth is divided by the clusters. A reloaded cluster of
// titles keeps three allocations (Go 1.24, amd64; an allocation of more than
// 512 B that holds pointers carries an 8 B header):
//   - the frame its donor's Get returned, 4 869 B in a 5 376 B size class:
//     the titles point into its string section, so it stays whole while any
//     of them lives. A copy of the string section alone would take a 4 864 B
//     class;
//   - its members' headers, 32 objects of 64 B in one array (2 304 B);
//   - their field slab, 64 values of 24 B (1 792 B).
//
// When every member also holds a 128 B byte payload, the frame carries a
// blob section, which the heap copies on install: kept whole, the frame
// would hold every payload twice. So the titles are copied out instead, and
// the cluster keeps that copy (4 864 B), the headers (2 304 B), a slab of 96
// values (2 688 B) and the payloads' own copies (32 of 128 B), never the
// frame.
//
// The heap's own accounting (Used) counts the titles' bytes either way, so
// no eviction decision depends on which of the two the host keeps. check.sh
// runs it by name.
func TestReloadedClusterHostBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("host-memory budgets are gated without the race detector")
	}
	// The margin is one small allocation per cluster.
	const margin = 64
	for _, tc := range []struct {
		name      string
		noteBytes int
		kept      []int // the allocations a cluster keeps, by size class
	}{
		// Measured 9 468 B.
		{"titles", 0, []int{5376, 2304, 1792}},
		// Measured 13 948 B.
		{"titles+notes", 128, []int{4864, 2304, 2688, 32 * 128}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const clusters = 64
			f, ids := noteFixture(t, clusters, 32, 128, tc.noteBytes, WithWireFormats(string(wire.FormatBinary)))
			swap := func(out bool) {
				for _, id := range ids {
					var err error
					if out {
						_, err = f.rt.SwapOut(id)
					} else {
						_, err = f.rt.SwapIn(id)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				f.rt.Collect()
			}
			// A first round sizes what is kept across swaps — the flight
			// recorder's ring slots, the metric series — so the measured one
			// adds only clusters.
			swap(true)
			swap(false)
			swap(true)
			before := liveHeapBytes()
			swap(false)
			after := liveHeapBytes()
			per := (float64(after) - float64(before)) / clusters
			t.Logf("a reloaded cluster of 32 x 128 B keeps %.0f B of Go heap", per)
			budget := margin
			for _, b := range tc.kept {
				budget += b
			}
			if per > float64(budget) {
				t.Fatalf("a reloaded cluster keeps %.0f B of host memory, budget is %d B", per, budget)
			}
			checkClean(t, f.rt)
		})
	}
}
