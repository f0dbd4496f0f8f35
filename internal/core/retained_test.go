package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// hookClock is a wall clock that runs hook, once armed, on its next reading:
// the rows below use it to act between two phases of an operation, which read
// the clock at every boundary.
type hookClock struct{ hook func() bool }

func (c *hookClock) Now() time.Time {
	if h := c.hook; h != nil {
		c.hook = nil
		if !h() {
			c.hook = h
		}
	}
	return time.Now()
}

// refuseOnce is a donor whose next Put answers store.ErrCapacity, as a quota
// that momentarily says no would.
type refuseOnce struct {
	*store.Mem
	refuse bool
}

func (r *refuseOnce) PutEnvelope(c context.Context, key string, data []byte, opts store.PutOpts) error {
	if r.refuse {
		r.refuse = false
		return fmt.Errorf("%w: quota", store.ErrCapacity)
	}
	return r.Mem.PutEnvelope(c, key, data, opts)
}

// retained is one row's world: a three-cluster list (plus whatever before
// added) whose middle cluster id has been shipped and reloaded, so it is
// resident on the retained copy `first` describes.
type retained struct {
	f        *fixture
	clock    *hookClock
	donors   map[string]*store.Flaky
	mems     map[string]*refuseOnce
	ids      []heap.ObjID
	clusters []ClusterID
	id       ClusterID
	first    SwapEvent
	want     []int64 // the tags a walk of the list must read
}

func newRetained(t *testing.T, donors, k int, before func(*testing.T, *retained)) *retained {
	t.Helper()
	e := &retained{clock: &hookClock{}, donors: map[string]*store.Flaky{}, mems: map[string]*refuseOnce{}}
	reg := store.NewRegistry(store.SelectMostFree)
	for i := 0; i < donors; i++ {
		name := "donor-" + string(rune('a'+i))
		e.mems[name] = &refuseOnce{Mem: store.NewMem(0)}
		e.donors[name] = store.NewFlaky(e.mems[name], 1)
		if err := reg.Add(name, e.donors[name]); err != nil {
			t.Fatal(err)
		}
	}
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(reg), WithName("rc"),
		WithDefaultReplicas(k), WithObs(obs.NewRegistry(e.clock)))
	e.f = &fixture{rt: rt, reg: reg, node: newNodeClass()}
	rt.MustRegisterClass(e.f.node)
	e.ids, e.clusters = e.f.buildList(t, 30, 10, 16)
	e.id = e.clusters[1]
	e.want = e.f.snapshotTags(t)
	if before != nil {
		before(t, e)
	}
	var err error
	if e.first, err = rt.SwapOut(e.id); err != nil {
		t.Fatal(err)
	}
	if e.first.Clean {
		t.Fatal("the first swap-out of a cluster shipped nothing")
	}
	if _, err := rt.SwapIn(e.id); err != nil {
		t.Fatal(err)
	}
	return e
}

// calls sums what every donor was asked, by operation.
func (e *retained) calls() (n [4]int) {
	for _, d := range e.donors {
		for i, op := range [...]store.Op{store.OpPut, store.OpGet, store.OpDrop, store.OpStats} {
			n[i] += d.Calls(op)
		}
	}
	return n
}

// member returns the resident member object ids[i].
func (e *retained) member(t *testing.T, i int) *heap.Object {
	t.Helper()
	var o *heap.Object
	var err error
	inHold(e.f.rt, func(h *heap.Heap) { o, err = h.Get(e.ids[i]) })
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRetainedCopy pins the one rule of DESIGN §6d from the outside: what
// happened to a resident cluster between its reload and its next swap-out
// decides whether that swap-out leaves on the retained copy or ships, read
// here as the exact store calls the swap-out and the following reload make
// (everything `between` makes through the donors included), the key the
// replacement-object carries, and the list read back afterwards (invariant 5).
func TestRetainedCopy(t *testing.T) {
	type counts struct{ put, get, drop, stats int }
	without := func(tags []int64, tag int64) []int64 {
		return slices.DeleteFunc(slices.Clone(tags), func(v int64) bool { return v == tag })
	}
	rows := []struct {
		name      string
		donors, k int
		before    func(t *testing.T, e *retained) // ahead of the first shipment
		between   func(t *testing.T, e *retained) // after the reload
		firstErr  error                           // what a first SwapOut attempt must answer, shipping nothing
		clean     bool                            // the swap-out leaves on the retained copy
		calls     counts
		pending   int   // drops queued, not yet sent
		reloadErr error // what the reload must answer
	}{
		{name: "nothing", donors: 1, k: 1,
			clean: true, calls: counts{get: 1}},
		{name: "field write", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				o := e.member(t, 12)
				inHold(e.f.rt, func(*heap.Heap) { o.MustSet("tag", heap.Int(1200)) })
				e.want[12] = 1200
			},
			calls: counts{put: 1, get: 1, drop: 1, stats: 1}},
		{name: "write, then the old value written back", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				o := e.member(t, 12)
				inHold(e.f.rt, func(*heap.Heap) { o.MustSet("tag", heap.Int(1200)).MustSet("tag", heap.Int(12)) })
			},
			calls: counts{put: 1, get: 1, drop: 1, stats: 1}},
		{name: "new member", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				if _, err := e.f.rt.NewObject(e.f.node, e.id); err != nil {
					t.Fatal(err)
				}
			},
			calls: counts{put: 1, get: 1, drop: 1, stats: 1}},
		{name: "member swept", donors: 1, k: 1,
			before: func(t *testing.T, e *retained) {
				// A member nothing references: it ships with its cluster, comes
				// back with it, and the first collection reclaims it.
				if _, err := e.f.rt.NewObject(e.f.node, e.id); err != nil {
					t.Fatal(err)
				}
			},
			between: func(t *testing.T, e *retained) {
				letGo(e.f.rt)
				if st := e.f.rt.Collect(); st.Reclaimed == 0 {
					t.Fatal("the unreferenced member survived the collection")
				}
			},
			calls: counts{put: 1, get: 1, drop: 1, stats: 1}},
		{name: "new member, then swept", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				// The membership ends where it began, but a member joined and
				// left: the record cannot tell, so the cluster ships.
				o, err := e.f.rt.NewObject(e.f.node, e.id)
				if err != nil {
					t.Fatal(err)
				}
				letGo(e.f.rt)
				for i := 0; e.f.rt.lockedContains(o.ID()); i++ {
					if i == 4 {
						t.Fatal("the unreferenced member survived its collections")
					}
					e.f.rt.Collect()
				}
			},
			calls: counts{put: 1, get: 1, drop: 1, stats: 1}},
		{name: "last cluster, no outbound slot", donors: 1, k: 1,
			before: func(t *testing.T, e *retained) { e.id = e.clusters[2] },
			clean:  true, calls: counts{get: 1}},
		{name: "outbound edge re-pointed", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				// The cluster's one outbound proxy (node 19 -> node 20) becomes a
				// cursor and advances to node 21: no member is written, but the
				// edge the retained frame's slot 0 stands for now ends elsewhere.
				edge, err := e.member(t, 19).FieldByName("next")
				if err != nil {
					t.Fatal(err)
				}
				if err := e.f.rt.Assign(edge); err != nil {
					t.Fatal(err)
				}
				if _, err := e.f.rt.Invoke(edge, "next"); err != nil {
					t.Fatal(err)
				}
				e.want = without(e.want, 20)
			},
			calls: counts{put: 1, get: 1, drop: 1, stats: 1}},
		{name: "merge", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				if err := e.f.rt.MergeClusters(e.id, e.clusters[2]); err != nil {
					t.Fatal(err)
				}
			},
			calls: counts{put: 1, get: 1, stats: 1}, pending: 1},
		{name: "split", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				if _, err := e.f.rt.SplitCluster(e.id, e.ids[15:20]); err != nil {
					t.Fatal(err)
				}
			},
			calls: counts{put: 1, get: 1, stats: 1}, pending: 1},
		{name: "checkpoint, restore", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				var stream bytes.Buffer
				if err := e.f.rt.SaveCheckpoint(&stream); err != nil {
					t.Fatal(err)
				}
				rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(e.f.reg))
				rt.MustRegisterClass(e.f.node)
				if err := rt.LoadCheckpoint(&stream); err != nil {
					t.Fatal(err)
				}
				e.f.rt = rt
			},
			calls: counts{put: 1, get: 1, drop: 1, stats: 1}},
		{name: "retained donor removed", donors: 2, k: 1,
			between: func(t *testing.T, e *retained) { e.f.reg.Remove(e.first.Device) },
			calls:   counts{put: 1, get: 1, stats: 1}, pending: 1},
		{name: "breaker opened", donors: 2, k: 1,
			between: func(t *testing.T, e *retained) { e.f.reg.SetAvailable(e.first.Device, false) },
			calls:   counts{put: 1, get: 1, stats: 1}, pending: 1},
		{name: "donor out of room for another cluster", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				// The refused shipment of cluster 0 sheds this cluster's copy
				// (one Drop) and lands on its second try, whose frame the ship
				// phase counts once: its bytes are the event's.
				e.mems[e.first.Device].refuse = true
				ev, err := e.f.rt.SwapOut(e.clusters[0])
				if err != nil {
					t.Fatal(err)
				}
				if i := slices.IndexFunc(ev.Phases, func(ph obs.Phase) bool { return ph.Name == "ship" }); i < 0 ||
					ev.Bytes == 0 || ev.Phases[i].Bytes != int64(ev.Bytes) {
					t.Fatalf("reshipped swap-out: phases %+v, want ship bytes = SwapEvent.Bytes = %d", ev.Phases, ev.Bytes)
				}
				if keys := mustKeys(t, e.donors[e.first.Device]); slices.Contains(keys, e.first.Key) {
					t.Fatalf("donor still holds the shed copy: %v", keys)
				}
			},
			calls: counts{put: 3, get: 1, drop: 1, stats: 3}},
		{name: "K=2, one retained replica dead", donors: 3, k: 2,
			between: func(t *testing.T, e *retained) { e.f.reg.Remove(e.first.Replicas[1]) },
			calls:   counts{put: 2, get: 1, drop: 1, stats: 2}, pending: 1},
		{name: "write between reserve and commit", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) {
				o := e.member(t, 12)
				// The hook runs on the swap-out's goroutine, inside its hold
				// of the runtime lock: it reads the record directly.
				e.clock.hook = func() bool {
					if cs := e.f.rt.mgr.table.clusters.get(e.id); cs == nil || !cs.where.reserved() {
						return false
					}
					o.MustSet("tag", heap.Int(1200))
					return true
				}
				e.want[12] = 1200
			},
			firstErr: ErrClusterBusy,
			calls:    counts{put: 1, get: 1, drop: 1, stats: 1}},
		{name: "K=2, retained primary rotted", donors: 2, k: 2,
			between: func(t *testing.T, e *retained) { corruptPayload(t, e.mems[e.first.Device], e.first.Key) },
			clean:   true, calls: counts{get: 2}},
		{name: "retained copy rotted", donors: 1, k: 1,
			between: func(t *testing.T, e *retained) { corruptPayload(t, e.mems[e.first.Device], e.first.Key) },
			clean:   true, calls: counts{get: 1}, reloadErr: ErrCorruptReplica},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := newRetained(t, row.donors, row.k, row.before)
			base := e.calls()
			if row.between != nil {
				row.between(t, e)
			}
			rt := e.f.rt
			if row.firstErr != nil {
				attempt := e.calls()
				if _, err := rt.SwapOut(e.id); !errors.Is(err, row.firstErr) {
					t.Fatalf("first SwapOut = %v, want %v", err, row.firstErr)
				}
				if at, _ := whereIs(rt, e.id); at != resident || e.calls() != attempt {
					t.Fatalf("refused swap-out left the cluster %s after %v store calls", at, e.calls())
				}
			}
			ev, err := rt.SwapOut(e.id)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Clean != row.clean || (ev.Clean && (ev.Bytes != 0 || ev.Format != e.first.Format ||
				!slices.Equal(ev.Replicas, e.first.Replicas))) {
				t.Fatalf("swap-out event %+v, want clean=%v on %v", ev, row.clean, e.first.Replicas)
			}
			info, err := rt.mgr.Info(e.id)
			if err != nil {
				t.Fatal(err)
			}
			if key := info.Key; key != ev.Key || (key == e.first.Key) != row.clean {
				t.Fatalf("swapped cluster's record names %q (event %q), retained copy was %q, clean=%v",
					key, ev.Key, e.first.Key, row.clean)
			}
			if _, err := rt.SwapIn(e.id); !errors.Is(err, row.reloadErr) {
				t.Fatalf("reload = %v, want %v", err, row.reloadErr)
			}
			got := e.calls()
			for i := range got {
				got[i] -= base[i]
			}
			if want := [4]int{row.calls.put, row.calls.get, row.calls.drop, row.calls.stats}; got != want {
				t.Fatalf("store calls put/get/drop/stats = %v, want %v", got, want)
			}
			if n := rt.mgr.PendingDrops(); n != row.pending {
				t.Fatalf("%d drops pending, want %d", n, row.pending)
			}
			if row.reloadErr == nil {
				if tags := e.f.snapshotTags(t); !reflect.DeepEqual(tags, e.want) {
					t.Fatalf("list reads back\n %v\nwant\n %v", tags, e.want)
				}
			}
			checkClean(t, rt)
		})
	}
}

// TestCleanCyclesLeaveTheFrameAlone is the round-trip property under the
// retained copy: however often a clean cluster leaves and returns, the donor
// holds the one frame it was first sent, byte for byte, and nothing else.
func TestCleanCyclesLeaveTheFrameAlone(t *testing.T) {
	e := newRetained(t, 1, 1, nil)
	mem := e.mems[e.first.Device]
	frame, err := mem.Get(ctx, e.first.Key)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 25; cycle++ {
		ev, err := e.f.rt.SwapOut(e.id)
		if err != nil || !ev.Clean {
			t.Fatalf("cycle %d: swap-out %+v, %v", cycle, ev, err)
		}
		if cycle%2 == 0 {
			e.f.rt.Collect()
		}
		if tags := e.f.snapshotTags(t); !reflect.DeepEqual(tags, e.want) { // faults it back
			t.Fatalf("cycle %d: list reads back %v", cycle, tags)
		}
		checkClean(t, e.f.rt)
	}
	if now, err := mem.Get(ctx, e.first.Key); err != nil || !bytes.Equal(now, frame) {
		t.Fatalf("donor frame changed over clean cycles (%v)", err)
	}
	if keys := mustKeys(t, mem); len(keys) != 1 {
		t.Fatalf("donor holds %v, want the one frame", keys)
	}
	if got := e.calls(); got != [4]int{1, 26, 0, 1} {
		t.Fatalf("store calls put/get/drop/stats = %v, want one shipment and one fetch per reload", got)
	}
}

// TestNoLeakedDonorCopies: a cluster that dies resident takes its retained
// copy with it — emptied by a collection, its record has no other way to tell
// the donors.
func TestNoLeakedDonorCopies(t *testing.T) {
	e := newRetained(t, 2, 2, nil)
	for _, id := range []ClusterID{e.clusters[0], e.clusters[2]} {
		if _, err := e.f.rt.SwapOut(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.f.rt.SwapIn(e.clusters[0]); err != nil { // 0 and 1 resident on copies, 2 swapped
		t.Fatal(err)
	}
	if err := e.f.rt.SetRoot("head", heap.Nil()); err != nil {
		t.Fatal(err)
	}
	letGo(e.f.rt)
	e.f.rt.Collect()
	e.f.rt.Collect() // cluster 2's replacement-object hung off cluster 1's outbound proxy
	for name, d := range e.donors {
		if keys := mustKeys(t, d); len(keys) != 0 {
			t.Fatalf("%s still holds %v after every cluster died", name, keys)
		}
	}
	if n := e.f.rt.mgr.PendingDrops(); n != 0 {
		t.Fatalf("%d drops pending", n)
	}
	checkClean(t, e.f.rt)
}
