package objectswap

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// pressureSystem is a 64 KiB System with one in-memory donor and the default
// swap-on-pressure policy, holding eight rooted clusters of 40 Task objects.
func pressureSystem(t *testing.T) (*System, *store.Mem, *heap.Class) {
	t.Helper()
	sys, err := New(Config{HeapCapacity: 64 << 10, DeviceName: "scope"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	mem := store.NewMem(0)
	if err := sys.AttachDevice("mem", mem); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	for c := 0; c < 8; c++ {
		fillCluster(t, sys, cls, sys.NewCluster(), fmt.Sprintf("c%d", c), 40)
	}
	return sys, mem, cls
}

// fillCluster allocates n linked Task objects titled with 64 bytes into
// cluster id, rooted at root, linking each one in as soon as it exists.
func fillCluster(t *testing.T, sys *System, cls *heap.Class, id ClusterID, root string, n int) {
	t.Helper()
	var prev heap.Value
	for i := 0; i < n; i++ {
		o, err := sys.NewObject(cls, id)
		if err != nil {
			t.Fatalf("%s[%d]: %v", root, i, err)
		}
		ref := o.RefTo()
		title := fmt.Sprintf("%s-%d|", root, i)
		if err := sys.SetField(ref, "title", heap.Str(title+strings.Repeat("x", 64-len(title)))); err != nil {
			t.Fatal(err)
		}
		if prev.IsNil() {
			err = sys.SetRoot(root, ref)
		} else {
			err = sys.SetField(prev, "next", ref)
		}
		if err != nil {
			t.Fatal(err)
		}
		prev = ref
	}
}

// keysOf lists the keys mem holds for cluster id of the System named "scope".
func keysOf(t *testing.T, mem *store.Mem, id ClusterID) []string {
	t.Helper()
	keys, err := mem.Keys(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, k := range keys {
		if strings.HasPrefix(k, fmt.Sprintf("scope-swapcluster-%d-", id)) {
			out = append(out, k)
		}
	}
	return out
}

// TestScopeHoldsAHostReference: an object that only a Go variable holds
// survives every collection and eviction inside its scope — its own
// cluster's swap-out included, after which the reference faults the cluster
// back — and the first full pass after the scope closes sweeps it and drops
// its cluster's copy from the donor. Outside a scope, the next NewObject
// hands out another reference, and the policy's collections sweep the first.
// check.sh runs it ten times under the race detector.
func TestScopeHoldsAHostReference(t *testing.T) {
	t.Run("outside a scope", func(t *testing.T) {
		sys, _, cls := pressureSystem(t)
		own := sys.NewCluster()
		held, err := sys.NewObject(cls, own)
		if err != nil {
			t.Fatal(err)
		}
		start := sys.Heap().StatsSnapshot().Collections
		fillCluster(t, sys, cls, sys.NewCluster(), "filler", 200)
		if n := sys.Heap().StatsSnapshot().Collections - start; n < 3 {
			t.Fatalf("%d policy-triggered collections, want at least 3", n)
		}
		if _, err := sys.Field(held.RefTo(), "title"); err == nil {
			t.Fatal("an object nothing holds survived the policy's collections")
		}
	})

	sys, mem, cls := pressureSystem(t)
	own := sys.NewCluster()
	var id heap.ObjID
	err := sys.Scope(func() error {
		held, err := sys.NewObject(cls, own)
		if err != nil {
			return err
		}
		id = held.ID()
		if err := sys.SetField(held.RefTo(), "title", heap.Str("held")); err != nil {
			return err
		}
		readBack := func(when string) {
			t.Helper()
			v, err := sys.Field(held.RefTo(), "title")
			if s, _ := v.Str(); err != nil || s != "held" {
				t.Fatalf("%s: the held object reads %v, %v", when, v, err)
			}
		}
		start := sys.Heap().StatsSnapshot().Collections
		fillCluster(t, sys, cls, sys.NewCluster(), "filler", 200)
		if n := sys.Heap().StatsSnapshot().Collections - start; n < 3 {
			t.Fatalf("%d policy-triggered collections, want at least 3", n)
		}
		readBack("after the policy's evictions")

		if _, err := sys.SwapOut(own); err != nil {
			return fmt.Errorf("swap out the held object's cluster: %w", err)
		}
		sys.Collect()
		fillCluster(t, sys, cls, sys.NewCluster(), "filler-2", 200)
		if len(keysOf(t, mem, own)) == 0 {
			t.Fatal("the held object's swapped cluster died inside its scope")
		}
		readBack("after its cluster's swap-out")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keysOf(t, mem, own)) != 1 {
		t.Fatalf("donor holds %v for the held object's cluster, want its retained copy", keysOf(t, mem, own))
	}
	sys.Collect()
	if heldResident(sys, id) {
		t.Fatal("the first full pass after the scope closed kept the object")
	}
	if keys := keysOf(t, mem, own); len(keys) != 0 {
		t.Fatalf("donor still holds %v after the held object's cluster died", keys)
	}
	if n := sys.Runtime().Manager().PendingDrops(); n != 0 {
		t.Fatalf("%d drops pending", n)
	}
}

// heldResident reports whether object id is resident in sys's heap.
func heldResident(sys *System, id heap.ObjID) (in bool) {
	sys.Runtime().Locked(func(x *core.Held) { in = x.Heap().Contains(id) })
	return in
}

// TestScopesBuildBesideEvictions: two goroutines each build a list
// backwards (o.next = prev), holding the list's head only in a Go variable
// until they root it, each inside its own scope, on a System with prefetch
// workers, while a third goroutine forces evictions of the clusters of a
// chain beside them, collects, and triggers prefetches along the chain, so
// the workers' swap-ins evict too. Both lists come out whole. Each list is
// built in a cluster of its own, which the evictions may take between two
// nodes and the next node's allocation faults back; a node joins its list in
// one hold of the runtime lock, since the runtime has one dispatcher at a
// time (DESIGN §6) and a list's goroutine must not dispatch into a cluster
// whose swap-in or swap-out lets go of the lock.
// check.sh runs it ten times under the race detector.
func TestScopesBuildBesideEvictions(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 64 << 10, DeviceName: "scope",
		Prefetch: PrefetchConfig{Depth: 2, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("mem", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	chain := make([]ClusterID, 6)
	_ = sys.Scope(func() error {
		var prev heap.Value
		for c := range chain {
			chain[c] = sys.NewCluster()
			fillCluster(t, sys, cls, chain[c], fmt.Sprintf("c%d", c), 40)
			head, err := sys.MustRoot(fmt.Sprintf("c%d", c))
			if err != nil {
				t.Fatal(err)
			}
			if c > 0 {
				// The previous cluster's head leads on to this one.
				if err := sys.SetField(prev, "next", head); err != nil {
					t.Fatal(err)
				}
			}
			prev = head
		}
		return nil
	})

	const lists, n = 2, 80
	errs := make([]error, lists)
	// A list's goroutine waits at its halfway node for the first forced
	// eviction, so the evictions run beside the building even when a loaded
	// host would let both lists finish first.
	firstEviction := make(chan struct{})
	var wg sync.WaitGroup
	for g := range lists {
		own := sys.NewCluster()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = sys.Scope(func() error {
				prev := heap.Nil()
				for i := 0; i < n; {
					if i == n/2 {
						<-firstEviction
					}
					// One hold per node: its cluster, resident when the
					// node joins it, stays so until the node is linked.
					var err error
					sys.Runtime().Locked(func(x *core.Held) {
						var o *heap.Object
						if o, err = x.NewObject(cls, own); err != nil {
							return
						}
						if err = x.SetFieldValue(o.RefTo(), "title", heap.Str(fmt.Sprintf("b%d-%d", g, i))); err == nil {
							err = x.SetFieldValue(o.RefTo(), "next", prev)
						}
						prev = o.RefTo()
					})
					switch {
					case errors.Is(err, ErrClusterBusy) || errors.Is(err, core.ErrClusterSwapped):
						// Taken by an eviction between two nodes: the next
						// allocation faults it back.
					case err != nil:
						return fmt.Errorf("list %d node %d: %w", g, i, err)
					default:
						i++
					}
					runtime.Gosched()
				}
				return sys.SetRoot(fmt.Sprintf("b%d", g), prev)
			})
		}()
	}
	done, evicted := make(chan struct{}), make(chan int)
	go func() {
		rounds := 0
		for i := 0; ; i++ {
			select {
			case <-done:
				evicted <- rounds
				return
			default:
			}
			if sys.Evict(VictimColdest, 8<<10) == nil {
				if rounds++; rounds == 1 {
					close(firstEviction)
				}
			}
			sys.Collect()
			sys.Runtime().Locked(func(*core.Held) {
				sys.Runtime().FaultEngine().TriggerPrefetch(uint32(chain[i%len(chain)]))
			})
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(done)
	if rounds := <-evicted; rounds == 0 {
		t.Fatal("no forced eviction ran beside the lists' goroutines")
	}
	sys.Runtime().FaultEngine().Quiesce()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for g := range lists {
		cur, err := sys.MustRoot(fmt.Sprintf("b%d", g))
		if err != nil {
			t.Fatal(err)
		}
		for i := n - 1; i >= 0; i-- {
			v, err := sys.Field(cur, "title")
			if s, _ := v.Str(); err != nil || s != fmt.Sprintf("b%d-%d", g, i) {
				t.Fatalf("list %d, node %d reads %v, %v", g, i, v, err)
			}
			if cur, err = sys.Field(cur, "next"); err != nil {
				t.Fatalf("list %d, node %d: %v", g, i, err)
			}
		}
		if !cur.IsNil() {
			t.Fatalf("list %d runs past its %d nodes", g, n)
		}
	}
}

// TestWarmScopeAllocatesNothing: a scope round of façade calls on resident
// objects — a root read, a field hop, a field read — allocates nothing once
// the host-root storage has grown to it, and neither does the same round
// outside a scope.
func TestWarmScopeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated without the race detector")
	}
	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cls := sys.MustRegisterClass(taskClass())
	a, err := sys.NewObject(cls, RootCluster)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.NewObject(cls, RootCluster)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetField(a.RefTo(), "next", b.RefTo()); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRoot("a", a.RefTo()); err != nil {
		t.Fatal(err)
	}
	calls := func() error {
		v, err := sys.MustRoot("a")
		if err != nil {
			return err
		}
		if v, err = sys.Field(v, "next"); err != nil {
			return err
		}
		_, err = sys.Field(v, "title")
		return err
	}
	for _, tc := range []struct {
		name  string
		round func() error
	}{
		{"scope", func() error { return sys.Scope(calls) }},
		{"hand-off", calls},
	} {
		if err := tc.round(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := tc.round(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("a warm %s round allocates %v times, want 0", tc.name, allocs)
		}
	}
}
