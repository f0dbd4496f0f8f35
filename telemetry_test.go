package objectswap

// Facade-level tests of the telemetry plane: cluster heat agreeing with the
// evictor's victim ordering, fault attribution distinguishing
// evictor-pressure from explicit and reload swaps, the thrash health check
// flipping degraded and back, and the /debug endpoints staying consistent
// under a concurrent swap storm (run with -race).

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/store"
	"objectswap/internal/telemetry"
)

// TestHeatRankingMatchesEvictionOrder drives four clusters through proxy
// crossings under a virtual clock. Heat class and victim order are two
// readings of the one ledger each crossing feeds, so what it pins is the
// arithmetic on top: hammered clusters read hot and idle ones cold after the
// decay, and no hot cluster is selected for eviction before a cold one.
func TestHeatRankingMatchesEvictionOrder(t *testing.T) {
	clock := obs.NewVirtualClock(time.Unix(0, 0))
	sys, err := New(Config{HeapCapacity: 1 << 20, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("mem", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 4)

	// Swap every cluster out and fault it back through its root: from here
	// on, each root invocation is a boundary crossing that dates the
	// cluster's ledger on both clocks, the recency tick and the heat time.
	invoke := func(i int) {
		t.Helper()
		root, err := sys.MustRoot(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Invoke(root, "title"); err != nil {
			t.Fatalf("invoke cluster %d: %v", clusters[i], err)
		}
	}
	for i := range clusters {
		if _, err := sys.SwapOut(clusters[i]); err != nil {
			t.Fatal(err)
		}
		invoke(i)
	}

	// Let the build/reload heat decay to nothing (default half-life 30s),
	// then hammer only the last two clusters.
	clock.Advance(30 * time.Minute)
	for n := 0; n < 6; n++ {
		invoke(2)
		invoke(3)
	}

	tr := sys.Telemetry()
	for _, i := range []int{2, 3} {
		if got := tr.HeatClassOf(uint32(clusters[i])); got != telemetry.ClassHot {
			t.Fatalf("hammered cluster %d class = %q, want hot", clusters[i], got)
		}
	}
	for _, i := range []int{0, 1} {
		if got := tr.HeatClassOf(uint32(clusters[i])); got != telemetry.ClassCold {
			t.Fatalf("idle cluster %d class = %q, want cold", clusters[i], got)
		}
	}
	snap := tr.HeatSnapshot()
	if len(snap) < 4 || snap[0].Class != telemetry.ClassHot {
		t.Fatalf("heat snapshot not ranked hot-first: %+v", snap)
	}

	// Victim order must agree: every cold cluster precedes every hot one.
	victims := sys.Runtime().Manager().SelectVictims(core.VictimColdest)
	rank := make(map[ClusterID]int, len(victims))
	for pos, id := range victims {
		rank[id] = pos
	}
	for _, cold := range []int{0, 1} {
		for _, hot := range []int{2, 3} {
			cp, cok := rank[clusters[cold]]
			hp, hok := rank[clusters[hot]]
			if !cok || !hok {
				t.Fatalf("victim list %v missing clusters %v", victims, clusters)
			}
			if hp < cp {
				t.Fatalf("hot cluster %d selected before cold %d: victims %v",
					clusters[hot], clusters[cold], victims)
			}
		}
	}
}

// TestFaultCauseAttribution separates the three demand-fault causes: an
// explicit SwapOut, evictor-pressure swap-outs under allocation pressure,
// and the reload swap-in when a swapped root is touched again.
func TestFaultCauseAttribution(t *testing.T) {
	sys, err := New(Config{
		HeapCapacity: 32 << 10,
		// Keep the policy engine quiet so pressure swaps are attributable
		// to the allocation-failure evictor alone.
		MemoryThreshold: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("mem", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())

	// One small cluster swapped out by hand: the explicit cause.
	first := buildClusters(t, sys, cls, 1)
	if _, err := sys.SwapOut(first[0]); err != nil {
		t.Fatal(err)
	}

	// Fill the heap with fat rooted clusters until the evictor runs at
	// least once, leaving it headroom to do its work.
	reg := sys.Metrics()
	evictorFired := func() bool {
		hs, ok := reg.HistogramSnapshotOf("objectswap_fault_seconds",
			"swap_out", core.CauseEvictor, telemetry.KindDemand)
		return ok && hs.Count > 0
	}
	payload := heap.Str(strings.Repeat("x", 1024))
	for i := 0; i < 64 && !evictorFired(); i++ {
		cluster := sys.NewCluster()
		o, err := sys.NewObject(cls, cluster)
		if err != nil {
			t.Fatalf("pressure cluster %d: %v", i, err)
		}
		if err := sys.SetField(o.RefTo(), "title", payload); err != nil {
			t.Fatalf("pressure payload %d: %v", i, err)
		}
		if err := sys.SetRoot(string(rune('A'+i)), o.RefTo()); err != nil {
			t.Fatal(err)
		}
	}
	if !evictorFired() {
		t.Fatal("allocation pressure never triggered the evictor")
	}

	// Touch the explicitly swapped cluster: a reload swap-in.
	root, err := sys.MustRoot("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Invoke(root, "title"); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ op, cause string }{
		{"swap_out", core.CauseExplicit},
		{"swap_out", core.CauseEvictor},
		{"swap_in", core.CauseReload},
	} {
		hs, ok := reg.HistogramSnapshotOf("objectswap_fault_seconds",
			c.op, c.cause, telemetry.KindDemand)
		if !ok || hs.Count == 0 {
			t.Fatalf("fault_seconds{%s,%s}: ok=%v count=%d, want >= 1",
				c.op, c.cause, ok, hs.Count)
		}
	}
}

// TestThrashHealthFlips forces a swap-out/swap-in ping-pong on one cluster
// until the thrash check degrades /healthz, then recovers it by letting the
// score decay under the virtual clock.
func TestThrashHealthFlips(t *testing.T) {
	clock := obs.NewVirtualClock(time.Unix(0, 0))
	sys, err := New(Config{HeapCapacity: 1 << 20, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("mem", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 1)

	if code, hr := getHealth(t, sys); code != http.StatusOK || !checkNamed(t, hr, "thrash").OK {
		t.Fatalf("fresh system unhealthy: code %d, %+v", code, hr)
	}

	// Four instantaneous out/in round-trips: score 4 > ThrashHigh (3).
	for i := 0; i < 4; i++ {
		if _, err := sys.SwapOut(clusters[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.SwapIn(clusters[0]); err != nil {
			t.Fatal(err)
		}
	}
	code, hr := getHealth(t, sys)
	if code != http.StatusServiceUnavailable || hr.Status != "degraded" {
		t.Fatalf("ping-pong storm: code %d, %+v, want degraded", code, hr)
	}
	if c := checkNamed(t, hr, "thrash"); c.OK || c.Error == "" {
		t.Fatalf("thrash check did not fail: %+v", c)
	}

	// Ten minutes of silence decays the score far below ThrashLow.
	clock.Advance(10 * time.Minute)
	if code, hr := getHealth(t, sys); code != http.StatusOK || !checkNamed(t, hr, "thrash").OK {
		t.Fatalf("after decay: code %d, %+v, want recovered", code, hr)
	}
}

// TestTelemetryEndpointsUnderSwapStorm scrapes /debug/heat, /debug/wss and
// /metrics while a storm of swap-outs (one goroutine per cluster) and
// swap-ins churns the clusters — the -race gate for the telemetry read paths
// against the swap hot path.
func TestTelemetryEndpointsUnderSwapStorm(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("mem", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 8)
	h := sys.OpsHandler()

	stop := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Busy clusters and re-swaps are expected mid-storm; only the
			// churn matters here.
			var out sync.WaitGroup
			for _, c := range clusters {
				out.Add(1)
				go func(c ClusterID) {
					defer out.Done()
					sys.SwapOut(c)
				}(c)
			}
			out.Wait()
			for _, c := range clusters {
				sys.SwapIn(c)
			}
		}
	}()

	var scrapers sync.WaitGroup
	for _, path := range []string{"/debug/heat", "/debug/wss?window=5s", "/metrics"} {
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for i := 0; i < 40; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: status %d body %s", path, rec.Code, rec.Body.String())
					return
				}
			}
		}(path)
	}
	// /healthz may legitimately report degraded while the storm ping-pongs;
	// it only has to answer coherently.
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for i := 0; i < 40; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
				t.Errorf("GET /healthz: status %d", rec.Code)
				return
			}
		}
	}()

	scrapers.Wait()
	close(stop)
	storm.Wait()
}
