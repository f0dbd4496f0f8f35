package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"objectswap/internal/heap"
)

// TestPropOmnibus interleaves every mutating middleware operation — swap-out,
// swap-in, collect, merge, split, checkpoint+restore, eviction pressure and
// graph edits — and checks after every step that (a) the full invariant set
// holds and (b) the application-visible list matches the oracle.
func TestPropOmnibus(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := newFixture(t, 0)
		n := 15 + r.Intn(25)
		per := 4 + r.Intn(6)
		ids, _ := f.buildList(t, n, per, 8)
		oracle := f.snapshotTags(t)

		check := func(step int, op string) bool {
			if errs := f.rt.Manager().CheckInvariants(); len(errs) > 0 {
				for _, e := range errs {
					t.Logf("seed %d step %d after %s: %v", seed, step, op, e)
				}
				return false
			}
			got := f.snapshotTags(t)
			if len(got) != len(oracle) {
				t.Logf("seed %d step %d after %s: length %d != %d", seed, step, op, len(got), len(oracle))
				return false
			}
			for i := range oracle {
				if got[i] != oracle[i] {
					t.Logf("seed %d step %d after %s: tag[%d] %d != %d",
						seed, step, op, i, got[i], oracle[i])
					return false
				}
			}
			return true
		}

		loadedClusters := func() []ClusterID {
			var out []ClusterID
			for _, info := range f.rt.Manager().InfoAll() {
				if info.ID != RootCluster && !info.Swapped && info.Objects > 0 {
					out = append(out, info.ID)
				}
			}
			return out
		}
		anyCluster := func() (ClusterID, bool) {
			var out []ClusterID
			for _, info := range f.rt.Manager().InfoAll() {
				if info.ID != RootCluster && info.Objects > 0 {
					out = append(out, info.ID)
				}
			}
			if len(out) == 0 {
				return 0, false
			}
			return out[r.Intn(len(out))], true
		}

		for step := 0; step < 18; step++ {
			op := "?"
			switch r.Intn(7) {
			case 0:
				op = "swap-out"
				if c, ok := anyCluster(); ok && !f.rt.Manager().IsSwapped(c) {
					if _, err := f.rt.SwapOut(c); err != nil && !errors.Is(err, ErrClusterEmpty) {
						t.Logf("seed %d: swap-out: %v", seed, err)
						return false
					}
				}
			case 1:
				op = "swap-in"
				if c, ok := anyCluster(); ok && f.rt.Manager().IsSwapped(c) {
					if _, err := f.rt.SwapIn(c); err != nil {
						t.Logf("seed %d: swap-in: %v", seed, err)
						return false
					}
				}
			case 2:
				op = "collect"
				f.rt.Collect()
			case 3:
				op = "merge"
				loaded := loadedClusters()
				if len(loaded) >= 2 {
					a, b := loaded[r.Intn(len(loaded))], loaded[r.Intn(len(loaded))]
					if a != b {
						if err := f.rt.MergeClusters(a, b); err != nil {
							t.Logf("seed %d: merge: %v", seed, err)
							return false
						}
					}
				}
			case 4:
				op = "split"
				loaded := loadedClusters()
				if len(loaded) > 0 {
					c := loaded[r.Intn(len(loaded))]
					var members []heap.ObjID
					for _, oid := range ids {
						if f.rt.Manager().ClusterOf(oid) == c {
							members = append(members, oid)
						}
					}
					if len(members) >= 2 {
						k := 1 + r.Intn(len(members)-1)
						if _, err := f.rt.SplitCluster(c, members[:k]); err != nil {
							t.Logf("seed %d: split: %v", seed, err)
							return false
						}
					}
				}
			case 5:
				op = "checkpoint-restore"
				var buf bytes.Buffer
				if err := f.rt.SaveCheckpoint(&buf); err != nil {
					t.Logf("seed %d: save: %v", seed, err)
					return false
				}
				rt2 := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(f.reg))
				rt2.MustRegisterClass(newNodeClass())
				if err := rt2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
					t.Logf("seed %d: restore: %v", seed, err)
					return false
				}
				// The restored runtime becomes the system under test; the old
				// runtime is abandoned (its shipments stay on the shared
				// device, reachable through the restored bookkeeping).
				f.rt = rt2
			case 6:
				op = "touch"
				if _, err := f.rt.Invoke(f.head(t), "fetch", heap.Int(int64(r.Intn(n)))); err != nil {
					t.Logf("seed %d: touch: %v", seed, err)
					return false
				}
			}
			if !check(step, op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropIdentityStableUnderSwap checks the identity invariant with an
// oracle: RefEqual answers for random reference pairs never change across
// swap cycles.
func TestPropIdentityStableUnderSwap(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := newFixture(t, 0)
		n := 20 + r.Intn(20)
		ids, clusters := f.buildList(t, n, 5, 8)

		// Build a pool of reference expressions: direct refs and proxies
		// from assorted clusters.
		type refExpr struct {
			v  heap.Value
			to heap.ObjID
		}
		var pool []refExpr
		for i := 0; i < 12; i++ {
			target := ids[r.Intn(n)]
			if r.Intn(2) == 0 {
				pool = append(pool, refExpr{v: heap.Ref(target), to: target})
				continue
			}
			src := clusters[r.Intn(len(clusters))]
			if f.rt.Manager().ClusterOf(target) == src {
				pool = append(pool, refExpr{v: heap.Ref(target), to: target})
				continue
			}
			pid, err := f.rt.lockedProxyFor(src, target)
			if err != nil {
				return false
			}
			// Pin the proxy: the pool holds it host-side only (a field-held
			// proxy would be anchored by its holding cluster).
			inHold(f.rt, func(h *heap.Heap) { h.Pin(pid) })
			pool = append(pool, refExpr{v: heap.Ref(pid), to: target})
		}

		checkPool := func() bool {
			for i := range pool {
				for j := range pool {
					eq, err := f.rt.RefEqual(pool[i].v, pool[j].v)
					if err != nil {
						t.Logf("seed %d: RefEqual: %v", seed, err)
						return false
					}
					if eq != (pool[i].to == pool[j].to) {
						t.Logf("seed %d: identity flip between @%d and @%d",
							seed, pool[i].to, pool[j].to)
						return false
					}
				}
			}
			return true
		}
		if !checkPool() {
			return false
		}
		for cycle := 0; cycle < 3; cycle++ {
			c := clusters[r.Intn(len(clusters))]
			if f.rt.Manager().IsSwapped(c) {
				if _, err := f.rt.SwapIn(c); err != nil {
					return false
				}
			} else if _, err := f.rt.SwapOut(c); err != nil && !errors.Is(err, ErrClusterEmpty) {
				return false
			}
			f.rt.Collect()
			if !checkPool() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
