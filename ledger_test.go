package objectswap

// Facade-level tests of the access ledger: ClusterInfo, /debug/heat and the
// victim ranking read one record, and a cluster that goes takes it along.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/store"
	"objectswap/internal/telemetry"
)

// heatRows fetches /debug/heat and returns its rows, hottest first.
func heatRows(t *testing.T, sys *System) []telemetry.ClusterHeat {
	t.Helper()
	rec := httptest.NewRecorder()
	sys.OpsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/heat", nil))
	var body struct {
		Clusters []telemetry.ClusterHeat `json:"clusters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("/debug/heat: status %d, %v", rec.Code, err)
	}
	return body.Clusters
}

// checkLedger asserts what must hold after every step: each tracked cluster's
// /debug/heat row carries the counters ClusterInfo reports, nothing is tracked
// that does not exist, and the hot-first order is the coldest-first victim
// order reversed wherever both rank a pair apart.
func checkLedger(t *testing.T, sys *System) {
	t.Helper()
	infos := make(map[ClusterID]ClusterInfo)
	for _, info := range sys.Clusters() {
		infos[info.ID] = info
	}
	heatPos := make(map[ClusterID]int)
	for pos, row := range heatRows(t, sys) {
		info, ok := infos[ClusterID(row.Cluster)]
		if !ok {
			t.Fatalf("/debug/heat lists cluster %d, which does not exist", row.Cluster)
		}
		if row.Crossings != info.Crossings || row.SwapOuts != info.SwapOuts || row.SwapIns != info.SwapIns {
			t.Fatalf("cluster %d: heat row %d/%d/%d, ClusterInfo %d/%d/%d (crossings/outs/ins)", row.Cluster,
				row.Crossings, row.SwapOuts, row.SwapIns, info.Crossings, info.SwapOuts, info.SwapIns)
		}
		if row.Touches < row.Crossings {
			t.Fatalf("cluster %d: %d touches < %d crossings", row.Cluster, row.Touches, row.Crossings)
		}
		heatPos[ClusterID(row.Cluster)] = pos
	}
	victims := sys.Runtime().Manager().SelectVictims(core.VictimColdest)
	for i, colder := range victims {
		for _, warmer := range victims[i+1:] {
			cp, cok := heatPos[colder]
			wp, wok := heatPos[warmer]
			if cok && wok && infos[colder].LastAccess != infos[warmer].LastAccess && cp < wp {
				t.Fatalf("cluster %d is evicted before %d but ranked hotter; victims %v", colder, warmer, victims)
			}
		}
	}
}

func TestAccessLedger(t *testing.T) {
	clock := obs.NewVirtualClock(time.Unix(0, 0))
	sys, err := New(Config{HeapCapacity: 1 << 20, Clock: clock, Prefetch: PrefetchConfig{Depth: 1, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("mem", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Ten heat half-lives pass before every step, so the cluster a step uses
	// is both the most recent and the hottest.
	settle := func() { clock.Advance(5 * time.Minute) }

	// A chain a -> b -> c, one rooted object per cluster, built tail first so
	// each link is written into the cluster being built.
	var ids [3]ClusterID
	var objs [3]*heap.Object
	for i := 2; i >= 0; i-- {
		settle()
		ids[i] = sys.NewCluster()
		o, err := sys.NewObject(cls, ids[i])
		must(err)
		if i < 2 {
			must(sys.SetField(o.RefTo(), "next", objs[i+1].RefTo()))
		}
		must(sys.SetRoot(string(rune('a'+i)), o.RefTo()))
		objs[i] = o
	}
	a, b, c := ids[0], ids[1], ids[2]
	cross := func(name string) {
		t.Helper()
		root, err := sys.MustRoot(name)
		must(err)
		_, err = sys.Invoke(root, "title")
		must(err)
	}
	swapOut := func(id ClusterID) {
		t.Helper()
		_, err := sys.SwapOut(id)
		must(err)
	}
	hits := func() uint64 {
		hs, _ := sys.Metrics().HistogramSnapshotOf("objectswap_fault_seconds", "swap_in", "reload", telemetry.KindPrefetchHit)
		return hs.Count
	}
	row := func(id ClusterID) (telemetry.ClusterHeat, bool) {
		for _, r := range heatRows(t, sys) {
			if ClusterID(r.Cluster) == id {
				return r, true
			}
		}
		return telemetry.ClusterHeat{}, false
	}

	// Each step names the cluster it is about and what its ledger gains; a
	// step that names none checks what it did itself. touches, when set, is
	// the exact number of touches the step adds.
	steps := []struct {
		name                 string
		do                   func()
		on                   *ClusterID
		crossings, outs, ins uint64
		touched              bool
		touches              uint64
		pingPongs, hits      uint64
	}{
		{name: "crossing", do: func() { cross("a") }, on: &a, crossings: 1, touched: true},
		{name: "intra-cluster read", do: func() {
			_, err := sys.Field(objs[0].RefTo(), "title")
			must(err)
		}, on: &a, touched: true, touches: 1},
		{name: "field write", do: func() {
			must(sys.SetField(objs[0].RefTo(), "title", heap.Str("x")))
		}, on: &a, touched: true, touches: 1},
		{name: "allocation into a cluster", do: func() {
			o, err := sys.NewObject(cls, a)
			must(err)
			must(sys.SetRoot("a2", o.RefTo()))
		}, on: &a, touched: true},
		{name: "swap-out", do: func() { swapOut(b) }, on: &b, outs: 1},
		{name: "demand reload outside the ping-pong window", do: func() { cross("b") },
			on: &b, crossings: 1, ins: 1, touched: true},
		{name: "demand reload within the ping-pong window", do: func() {
			swapOut(b)
			cross("b")
		}, on: &b, crossings: 1, outs: 1, ins: 1, touched: true, pingPongs: 1},
		{name: "prefetch hit", do: func() {
			swapOut(c)
			swapOut(b)
			clock.Advance(time.Minute) // past the ping-pong window
			root, err := sys.MustRoot("b")
			must(err)
			next, err := sys.Field(root, "next") // demand fault on b; the prefetcher follows its edge to c
			must(err)
			sys.Runtime().FaultEngine().Quiesce()
			settle()
			_, err = sys.Invoke(next, "title")
			must(err)
		}, on: &c, crossings: 1, outs: 1, ins: 1, touched: true, hits: 1},
		{name: "merge", do: func() {
			before := sys.Clusters()
			must(sys.MergeClusters(a, b))
			// The survivor inherits the sum; the merged-away record is gone.
			var want, got ClusterInfo
			for _, info := range before {
				if info.ID == a || info.ID == b {
					want.Crossings += info.Crossings
					want.SwapOuts += info.SwapOuts
					want.SwapIns += info.SwapIns
					want.LastAccess = max(want.LastAccess, info.LastAccess)
				}
			}
			for _, info := range sys.Clusters() {
				if info.ID == b {
					t.Fatalf("merged-away cluster %d still has a record", b)
				}
				if info.ID == a {
					got = info
				}
			}
			if got.Crossings != want.Crossings || got.SwapOuts != want.SwapOuts ||
				got.SwapIns != want.SwapIns || got.LastAccess != want.LastAccess {
				t.Fatalf("survivor = %+v, want the merged sums %+v", got, want)
			}
		}},
		{name: "split", do: func() {
			fresh, err := sys.SplitCluster(a, []heap.ObjID{objs[1].ID()})
			must(err)
			// Cut from a, never itself used: recency inherited, no history.
			info, err := sys.Runtime().Manager().Info(fresh)
			must(err)
			from, err := sys.Runtime().Manager().Info(a)
			must(err)
			if _, tracked := row(fresh); tracked || info.Crossings != 0 || info.LastAccess != from.LastAccess {
				t.Fatalf("fresh cluster %+v (tracked %v), want an empty ledger as recent as %+v", info, tracked, from)
			}
		}},
	}
	checkLedger(t, sys)
	for _, step := range steps {
		// Every step starts with no prefetch task in flight. A demand reload
		// triggers the prefetch of its neighbors, so a task for c that one
		// step's reload left queued or running could reload c in the middle of
		// the next step, after that step swapped it out and before it expects
		// c back, which the step's counts do not allow for.
		sys.Runtime().FaultEngine().Quiesce()
		settle()
		var before telemetry.ClusterHeat
		if step.on != nil {
			before, _ = row(*step.on)
		}
		hitsBefore := hits()
		step.do()
		checkLedger(t, sys)
		if step.on == nil {
			continue
		}
		after, _ := row(*step.on)
		if got := after.Crossings - before.Crossings; got != step.crossings {
			t.Errorf("%s: crossings +%d, want +%d", step.name, got, step.crossings)
		}
		if got := after.SwapOuts - before.SwapOuts; got != step.outs {
			t.Errorf("%s: swap-outs +%d, want +%d", step.name, got, step.outs)
		}
		if got := after.SwapIns - before.SwapIns; got != step.ins {
			t.Errorf("%s: swap-ins +%d, want +%d", step.name, got, step.ins)
		}
		if got := after.Touches > before.Touches; got != step.touched {
			t.Errorf("%s: touches %d -> %d, want touched = %v", step.name, before.Touches, after.Touches, step.touched)
		}
		if got := after.Touches - before.Touches; step.touches != 0 && got != step.touches {
			t.Errorf("%s: touches +%d, want +%d", step.name, got, step.touches)
		}
		if got := after.PingPongs - before.PingPongs; got != step.pingPongs {
			t.Errorf("%s: ping-pongs +%d, want +%d", step.name, got, step.pingPongs)
		}
		if got := hits() - hitsBefore; got != step.hits {
			t.Errorf("%s: prefetch hits +%d, want +%d", step.name, got, step.hits)
		}
	}
}

// guardClock fails the test when read while armed.
type guardClock struct {
	t     *testing.T
	armed atomic.Bool
}

func (c *guardClock) Now() time.Time {
	if c.armed.Load() {
		c.t.Error("clock read between two swaps on a runtime with no tracker")
	}
	return time.Unix(0, 0)
}

// Without a tracker the ledger is its counters: they are kept all the same,
// and a resident crossing or a direct access dates nothing, so reads no clock.
func TestAccessLedgerWithoutTracker(t *testing.T) {
	clock := &guardClock{t: t}
	devices := store.NewRegistry(store.SelectMostFree)
	if err := devices.Add("mem", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(heap.New(1<<20), heap.NewRegistry(),
		core.WithStores(devices), core.WithObs(obs.NewRegistry(clock)))
	cls := rt.MustRegisterClass(taskClass())
	cluster := rt.Manager().NewCluster()
	o, err := rt.NewObject(cls, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRoot("a", o.RefTo()); err != nil {
		t.Fatal(err)
	}
	root, _ := rt.Root("a")
	roundTrip := func() {
		t.Helper()
		if _, err := rt.SwapOut(cluster); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.SwapIn(cluster); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	before, _ := rt.Manager().Info(cluster)

	clock.armed.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := rt.Invoke(root, "title"); err != nil { // a resident crossing
			t.Fatal(err)
		}
	}
	held := o.RefTo()                                  // host code holding a member directly
	if _, err := rt.Field(held, "title"); err != nil { // direct accesses
		t.Fatal(err)
	}
	if err := rt.SetFieldValue(held, "title", heap.Str("x")); err != nil {
		t.Fatal(err)
	}
	clock.armed.Store(false)
	roundTrip()

	after, _ := rt.Manager().Info(cluster)
	if after.Crossings != before.Crossings+3 || after.LastAccess <= before.LastAccess ||
		after.SwapOuts != 2 || after.SwapIns != 2 {
		t.Fatalf("ledger %+v -> %+v, want +3 crossings, later recency, 2 swaps each way", before, after)
	}
}

// A cluster that stops existing — merged away, or swapped out, unrooted and
// collected — leaves every telemetry surface in the same step, and a cluster
// declared but never used was never tracked.
func TestTelemetryForgetsDroppedClusters(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("mem", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 4)
	unused := sys.NewCluster()

	check := func(when string) {
		t.Helper()
		want := make(map[ClusterID]bool)
		for _, info := range sys.Clusters() {
			if info.ID != unused && info.ID != RootCluster {
				want[info.ID] = true
			}
		}
		rows := sys.Telemetry().HeatSnapshot()
		for _, row := range rows {
			if id := ClusterID(row.Cluster); id != RootCluster && !want[id] {
				t.Fatalf("%s: cluster %d is tracked but does not exist (live: %v)", when, id, want)
			}
			delete(want, ClusterID(row.Cluster))
		}
		if len(want) != 0 {
			t.Fatalf("%s: live clusters %v are not tracked", when, want)
		}
		hot, warm, cold := sys.Telemetry().Counts()
		wss, _ := sys.Telemetry().WSS(0)
		snap := sys.context.Snapshot()
		if hot+warm+cold != len(rows) || wss != len(rows) || int(snap["wss.clusters"]) != len(rows) ||
			int(snap["heat.hot"]+snap["heat.warm"]+snap["heat.cold"]) != len(rows) {
			t.Fatalf("%s: %d tracked clusters, but heat classes count %d, WSS %d, policy metrics wss.clusters %v",
				when, len(rows), hot+warm+cold, wss, snap["wss.clusters"])
		}
	}
	check("built")

	if err := sys.MergeClusters(clusters[0], clusters[1]); err != nil {
		t.Fatal(err)
	}
	check("after the merge")

	if _, err := sys.SwapOut(clusters[3]); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRoot("d", heap.Nil()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && len(sys.Clusters()) > 4; i++ {
		sys.Collect() // the replacement-object outlives its nursery grace first
	}
	if n := len(sys.Clusters()); n != 4 { // root, the survivor, one more, the unused one
		t.Fatalf("%d clusters after collecting the dead swapped one, want 4", n)
	}
	check("after the collection")
}
