package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// whereIs reads a cluster's residency; ok is false once the record is gone.
func whereIs(rt *Runtime, id ClusterID) (residency, bool) {
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cs, ok := ts.clusters[id]
	if !ok {
		return 0, false
	}
	return cs.where, true
}

// checkGauges holds the cluster gauges (fed by the table shards' tallies)
// against a recount of the records: resident and swapped by side, busy for
// the three reserved states.
func checkGauges(t *testing.T, rt *Runtime) {
	t.Helper()
	want := map[string]float64{"resident": 0, "swapped": 0, "busy": 0}
	for _, info := range rt.mgr.InfoAll() {
		if info.Swapped {
			want["swapped"]++
		} else {
			want["resident"]++
		}
		if info.Busy {
			want["busy"]++
		}
	}
	for state, n := range want {
		perShard := 0.0
		for i := range rt.mgr.tabs {
			v, _ := rt.Obs().Value("objectswap_core_shard_clusters", strconv.Itoa(i), state)
			perShard += v
		}
		if perShard != n {
			t.Fatalf("objectswap_core_shard_clusters{state=%q} sums to %v, records say %v", state, perShard, n)
		}
		if v, ok := rt.Obs().Value("objectswap_core_clusters", state); ok && v != n {
			t.Fatalf("objectswap_core_clusters{state=%q} = %v, records say %v", state, v, n)
		}
	}
}

// clusterAt builds a three-cluster list and brings the middle cluster to the
// given residency — the reserved states as an operation in flight elsewhere
// would, through the one reserve.
func clusterAt(t *testing.T, at residency) (f *fixture, id ClusterID, members []heap.ObjID, others []ClusterID) {
	t.Helper()
	f = newFixture(t, 0)
	ids, clusters := f.buildList(t, 30, 10, 16)
	id, members, others = clusters[1], ids[10:20], []ClusterID{clusters[0], clusters[2]}
	if at.out() {
		if _, err := f.rt.SwapOut(id); err != nil {
			t.Fatal(err)
		}
	}
	if at.reserved() {
		if _, err := f.rt.reserve(id, at.settled(), at, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := whereIs(f.rt, id); got != at {
		t.Fatalf("setup left the cluster %s, want %s", got, at)
	}
	return
}

// TestClusterTransitions walks every (residency × operation) pair and pins
// what the one transition site answers: the resulting residency, or the exact
// sentinel and no move at all.
func TestClusterTransitions(t *testing.T) {
	all := []residency{resident, reservedOut, swappedOut, reservedIn, underRepair}
	// outcome: the sentinel an operation reports (nil = it went through) and
	// where the cluster is afterwards; gone marks a record that no longer
	// exists.
	type outcome struct {
		err  error
		then residency
		gone bool
	}
	refused := func(err error) func(residency) outcome {
		return func(at residency) outcome { return outcome{err: err, then: at} }
	}
	busy, swapped, loaded := refused(ErrClusterBusy), refused(ErrClusterSwapped), refused(ErrClusterLoaded)
	stays := refused(nil)

	ops := []struct {
		name string
		run  func(f *fixture, id ClusterID, members []heap.ObjID, others []ClusterID) error
		want [numResidencies]func(residency) outcome
	}{
		{"SwapOut", func(f *fixture, id ClusterID, _ []heap.ObjID, _ []ClusterID) error {
			_, err := f.rt.SwapOut(id)
			return err
		}, [...]func(residency) outcome{
			resident:    func(residency) outcome { return outcome{then: swappedOut} },
			reservedOut: busy, swappedOut: swapped, reservedIn: busy, underRepair: busy,
		}},
		{"SwapIn", func(f *fixture, id ClusterID, _ []heap.ObjID, _ []ClusterID) error {
			_, err := f.rt.SwapIn(id)
			return err
		}, [...]func(residency) outcome{
			resident: loaded, reservedOut: busy,
			swappedOut: func(residency) outcome { return outcome{then: resident} },
			reservedIn: busy, underRepair: busy,
		}},
		{"RepairCluster", func(f *fixture, id ClusterID, _ []heap.ObjID, _ []ClusterID) error {
			_, err := f.rt.RepairCluster(ctx, id, 1)
			return err
		}, [...]func(residency) outcome{
			resident: loaded, reservedOut: busy,
			// Fully replicated and intact: reserved, scrubbed, released.
			swappedOut: refused(ErrNoRepair),
			reservedIn: busy, underRepair: busy,
		}},
		{"NewObject", func(f *fixture, id ClusterID, _ []heap.ObjID, _ []ClusterID) error {
			_, err := f.rt.NewObject(f.node, id)
			return err
		}, [...]func(residency) outcome{
			// Allocating into a swapped cluster faults it back in first.
			resident: stays, reservedOut: busy,
			swappedOut: func(residency) outcome { return outcome{then: resident} },
			reservedIn: busy, underRepair: busy,
		}},
		{"assign", func(f *fixture, id ClusterID, _ []heap.ObjID, _ []ClusterID) error {
			return f.rt.mgr.assign(1<<40, id, f.node.Name)
		}, [...]func(residency) outcome{
			resident: stays, reservedOut: busy, swappedOut: swapped, reservedIn: busy, underRepair: busy,
		}},
		{"Merge as src", func(f *fixture, id ClusterID, _ []heap.ObjID, others []ClusterID) error {
			return f.rt.MergeClusters(others[0], id)
		}, [...]func(residency) outcome{
			resident:    func(residency) outcome { return outcome{gone: true} },
			reservedOut: busy, swappedOut: swapped, reservedIn: busy, underRepair: busy,
		}},
		{"Merge as dst", func(f *fixture, id ClusterID, _ []heap.ObjID, others []ClusterID) error {
			return f.rt.MergeClusters(id, others[0])
		}, [...]func(residency) outcome{
			resident: stays, reservedOut: busy, swappedOut: swapped, reservedIn: busy, underRepair: busy,
		}},
		{"Split", func(f *fixture, id ClusterID, members []heap.ObjID, _ []ClusterID) error {
			_, err := f.rt.SplitCluster(id, members[:3])
			return err
		}, [...]func(residency) outcome{
			resident: stays, reservedOut: busy, swappedOut: swapped, reservedIn: busy, underRepair: busy,
		}},
		{"victim selection", func(f *fixture, id ClusterID, _ []heap.ObjID, _ []ClusterID) error {
			// Offered exactly while resident; reported here as a sentinel so
			// the table reads the same way for every operation.
			offered := false
			for _, v := range f.rt.mgr.SelectVictims(VictimColdest) {
				offered = offered || v == id
			}
			at, _ := whereIs(f.rt, id)
			if offered != (at == resident) {
				return errors.New("victim selection disagrees with residency")
			}
			return nil
		}, [...]func(residency) outcome{
			resident: stays, reservedOut: stays, swappedOut: stays, reservedIn: stays, underRepair: stays,
		}},
		{"sweep", func(f *fixture, _ ClusterID, _ []heap.ObjID, _ []ClusterID) error {
			// Make the whole list garbage, replacement-object included: only a
			// settled swapped cluster's record is the sweep's to reclaim.
			if err := f.rt.SetRoot("head", heap.Nil()); err != nil {
				return err
			}
			f.rt.collect(pressureCycles)
			return nil
		}, [...]func(residency) outcome{
			resident: stays, reservedOut: stays,
			swappedOut: func(residency) outcome { return outcome{gone: true} },
			reservedIn: stays, underRepair: stays,
		}},
	}
	for _, op := range ops {
		for _, at := range all {
			t.Run(op.name+"/"+at.String(), func(t *testing.T) {
				f, id, members, others := clusterAt(t, at)
				want := op.want[at](at)
				err := op.run(f, id, members, others)
				if want.err == nil && err != nil {
					t.Fatalf("err = %v, want success", err)
				}
				if want.err != nil && !errors.Is(err, want.err) {
					t.Fatalf("err = %v, want %v", err, want.err)
				}
				checkGauges(t, f.rt)
				got, ok := whereIs(f.rt, id)
				if ok == want.gone || (ok && got != want.then) {
					t.Fatalf("cluster is %s (record present: %v), want %s (gone: %v)", got, ok, want.then, want.gone)
				}
				// Releasing a foreign reservation restores normal operation.
				if at.reserved() && ok {
					cs, _ := f.rt.mgr.tab(id).state(id)
					f.rt.settle(cs, at.settled(), nil)
					if at == reservedOut && op.name != "sweep" {
						if _, err := f.rt.SwapOut(id); err != nil {
							t.Fatalf("SwapOut after release: %v", err)
						}
					}
				}
			})
		}
	}

	if _, err := newFixture(t, 0).rt.SwapOut(999); !errors.Is(err, ErrUnknownCluster) {
		t.Fatalf("SwapOut of an undeclared cluster: %v, want ErrUnknownCluster", err)
	}
	f := newFixture(t, 0)
	if _, err := f.rt.SwapOut(f.rt.mgr.NewCluster()); !errors.Is(err, ErrClusterEmpty) {
		t.Fatalf("SwapOut of an empty cluster: %v, want ErrClusterEmpty", err)
	}
}

// An illegal move is a bug, not an answer: it panics instead of writing the
// record.
func TestIllegalMovePanics(t *testing.T) {
	f, id, _, _ := clusterAt(t, resident)
	cs, _ := f.rt.mgr.tab(id).state(id)
	defer func() {
		if recover() == nil {
			t.Fatal("resident -> swapped without a reservation did not panic")
		}
		if at, _ := whereIs(f.rt, id); at != resident {
			t.Fatalf("the refused move left the cluster %s", at)
		}
	}()
	f.rt.settle(cs, swappedOut, nil)
}

// TestFailedOperationLeavesClusterWhereItWas drives each operation into a
// failure at a different phase — a rejected ship, a truncated frame at decode,
// a cancelled context — and checks the undo list gave everything back: same
// residency, same Heap.Used, same replacement-object, same keys on the donor.
func TestFailedOperationLeavesClusterWhereItWas(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		at   residency
		fail func(t *testing.T, f *fixture, flaky *store.Flaky, id ClusterID) error
	}{
		{"swap-out: ship rejected", resident, func(t *testing.T, f *fixture, flaky *store.Flaky, id ClusterID) error {
			flaky.FailNext(store.OpPut, -1)
			_, err := f.rt.SwapOut(id)
			return err
		}},
		{"swap-out: context cancelled", resident, func(t *testing.T, f *fixture, _ *store.Flaky, id ClusterID) error {
			_, err := f.rt.SwapOut(id, WithContext(cancelled))
			return err
		}},
		{"swap-in: frame truncated at decode", swappedOut, func(t *testing.T, f *fixture, _ *store.Flaky, id ClusterID) error {
			info, _ := f.rt.mgr.Info(id)
			frame, opts, err := store.GetWith(ctx, f.mem, info.Key)
			if err != nil {
				t.Fatal(err)
			}
			forgetChecksum(t, f.rt, id)
			if err := store.PutWith(ctx, f.mem, info.Key, frame[:len(frame)/2], opts); err != nil {
				t.Fatal(err)
			}
			_, err = f.rt.SwapIn(id)
			return err
		}},
		{"swap-in: context cancelled", swappedOut, func(t *testing.T, f *fixture, _ *store.Flaky, id ClusterID) error {
			_, err := f.rt.SwapIn(id, WithContext(cancelled))
			return err
		}},
		{"repair: context cancelled", swappedOut, func(t *testing.T, f *fixture, _ *store.Flaky, id ClusterID) error {
			_, err := f.rt.RepairCluster(cancelled, id, 1)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 0)
			flaky := store.NewFlaky(f.mem, 1)
			f.reg.Remove("pda-neighbor")
			if err := f.reg.Add("pda-neighbor", flaky); err != nil {
				t.Fatal(err)
			}
			_, clusters := f.buildList(t, 30, 10, 16)
			id := clusters[1]
			if tc.at == swappedOut {
				if _, err := f.rt.SwapOut(id); err != nil {
					t.Fatal(err)
				}
			}
			keys := func() []string {
				ks, err := f.mem.Keys(ctx)
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(ks)
				return ks
			}
			h := f.rt.Heap()
			used, objects, donor := h.Used(), h.Len(), keys()
			before, _ := f.rt.mgr.Info(id)
			replacement, _ := f.rt.mgr.replacementIfSwapped(id)

			if err := tc.fail(t, f, flaky, id); err == nil {
				t.Fatal("the operation succeeded; the case no longer fails where it should")
			}

			if at, _ := whereIs(f.rt, id); at != tc.at {
				t.Fatalf("cluster is %s after the failure, was %s", at, tc.at)
			}
			if h.Used() != used || h.Len() != objects {
				t.Fatalf("heap holds %d bytes / %d objects after the failure, held %d / %d",
					h.Used(), h.Len(), used, objects)
			}
			if got, _ := f.rt.mgr.replacementIfSwapped(id); got != replacement || (replacement != heap.NilID && !h.Contains(replacement)) {
				t.Fatalf("replacement-object @%d after the failure, was @%d", got, replacement)
			}
			if got := keys(); !reflect.DeepEqual(got, donor) {
				t.Fatalf("donor holds %v after the failure, held %v", got, donor)
			}
			after, _ := f.rt.mgr.Info(id)
			after.LastAccess, after.Crossings = before.LastAccess, before.Crossings
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("record after the failure:\n %+v\nwas:\n %+v", after, before)
			}
			if errs := f.rt.mgr.CheckInvariants(); len(errs) > 0 {
				t.Fatalf("invariants after the failure: %v", errs)
			}
		})
	}
}
