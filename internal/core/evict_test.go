package core

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"testing"

	"objectswap/internal/event"
)

// TestSwapOutVictimsWalksTheRanking: under each strategy, the victim walk
// visits the clusters in exactly the order SelectVictims reports — ascending
// key, ties toward the lower id — and a victim that turns out to be active
// or busy when its turn comes is skipped and never retried, even once it
// could be swapped. Keys are set per cluster, with ties: recency and
// crossings in the ledger, resident bytes by extra members.
func TestSwapOutVictimsWalksTheRanking(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy VictimStrategy
		keys     []uint64 // per cluster: the ledger field, or the extra members for VictimLargest
	}{
		{"coldest", VictimColdest, []uint64{5, 3, 5, 1, 3, 9, 1}},
		{"least-used", VictimLeastUsed, []uint64{2, 2, 0, 7, 0, 2, 4}},
		{"largest", VictimLargest, []uint64{1, 3, 1, 0, 3, 2, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus := event.NewBus()
			f := newFixture(t, 0, WithBus(bus))
			ids, clusters := f.buildList(t, 4*len(tc.keys), 4, 32)
			tab := &f.rt.mgr.table
			for i, c := range clusters {
				switch tc.strategy {
				case VictimLargest:
					for range tc.keys[i] {
						if _, err := f.rt.NewObject(f.node, c); err != nil {
							t.Fatal(err)
						}
					}
				default:
					tab.mu.Lock()
					cs := tab.clusters[c]
					cs.ledger.LastAccess, cs.ledger.Crossings = tc.keys[i], tc.keys[i]
					tab.mu.Unlock()
				}
			}
			want := slices.Clone(clusters)
			slices.SortStableFunc(want, func(a, b ClusterID) int {
				ka, kb := tc.keys[slices.Index(clusters, a)], tc.keys[slices.Index(clusters, b)]
				if tc.strategy == VictimLargest {
					ka, kb = kb, ka // more members, more bytes: the better victim
				}
				return cmp.Compare(ka, kb)
			})
			if got := f.rt.mgr.SelectVictims(tc.strategy); !slices.Equal(got, want) {
				t.Fatalf("SelectVictims = %v, want %v", got, want)
			}

			var mu sync.Mutex
			var visited []ClusterID
			bus.Subscribe(event.TopicSwapOut, func(ev event.Event) {
				mu.Lock()
				visited = append(visited, ev.Payload.(SwapEvent).Cluster)
				mu.Unlock()
			})
			active, busy := want[1], want[3]
			f.rt.stack = append(f.rt.stack, ids[4*slices.Index(clusters, active)])
			move := func(c ClusterID, to residency) {
				tab.mu.Lock()
				defer tab.mu.Unlock()
				tab.move(tab.clusters[c], to)
			}
			calls := 0
			swapped, err := f.rt.SwapOutVictims(tc.strategy, func(int) bool {
				switch calls {
				case 2: // the active victim was skipped: it may go now, and must not
					f.rt.stack = f.rt.stack[:0]
				case 3:
					move(busy, reservedOut) // another goroutine's swap-out owns it
				case 4:
					move(busy, resident)
				}
				calls++
				return false
			})
			if err != nil {
				t.Fatal(err)
			}
			skipped := []ClusterID{active, busy}
			wantSwapped := slices.DeleteFunc(slices.Clone(want), func(c ClusterID) bool { return slices.Contains(skipped, c) })
			if !slices.Equal(visited, wantSwapped) || swapped != len(wantSwapped) || calls != len(want) {
				t.Fatalf("walk swapped %d: %v after %d turns; want %v (%v skipped) after %d", swapped, visited, calls, wantSwapped, skipped, len(want))
			}
			for _, c := range skipped {
				if f.rt.mgr.IsSwapped(c) {
					t.Fatalf("cluster %d was skipped, then retried", c)
				}
			}
			checkClean(t, f.rt)
		})
	}
}

// TestConcurrentVictimWalks runs victim walks on two goroutines against each
// other and against reloads: each walk gathers into the buffer it borrowed
// from the table, or into a fresh one while the other has it, and the
// invariants hold once both are done. check.sh runs it under the race
// detector.
func TestConcurrentVictimWalks(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 64, 4, 16)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			strategy := []VictimStrategy{VictimColdest, VictimLargest}[g]
			for range 20 {
				if _, err := f.rt.SwapOutVictims(strategy, func(n int) bool { return n >= 3 }); err != nil {
					t.Error(err)
					return
				}
				for _, c := range clusters {
					if _, err := f.rt.SwapIn(c); err != nil && !errors.Is(err, ErrClusterLoaded) && !errors.Is(err, ErrClusterBusy) {
						t.Errorf("SwapIn(%d): %v", c, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checkClean(t, f.rt)
}
