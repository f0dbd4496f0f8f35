package objectswap

// Facade-level tests of the telemetry plane: hammered clusters ranking above
// idle ones both in heat and in the evictor's victim order, fault attribution
// distinguishing evictor-pressure from explicit and reload swaps, the thrash
// health check degrading and staying degraded while the system idles, the
// plane aging with accesses and never with wall time, and the /debug
// endpoints staying consistent under a concurrent swap storm (run with
// -race).

import (
	"bytes"
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
// crossings. Heat class and victim order are two readings of the one ledger
// each crossing feeds, dated on one clock, so what it pins is the arithmetic
// on top: hammered clusters read hot and idle ones below hot and ranked
// after them, and no hot cluster is selected for eviction before an idle
// one. (Heat decays over 2^26 accesses, more than a test drives, so decay to
// cold is pinned in internal/telemetry, TestHeatEWMADecay, and when the heat
// order matches the victim order in TestHeatRankingFollowsRecency.)
func TestHeatRankingMatchesEvictionOrder(t *testing.T) {
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

	// Swap every cluster out and fault it back through its root: from here
	// on, each root invocation is a boundary crossing that dates the
	// cluster's ledger, recency and heat, with one tick.
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

	// Hammer only the last two clusters.
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
		if got := tr.HeatClassOf(uint32(clusters[i])); got == telemetry.ClassHot {
			t.Fatalf("idle cluster %d class = %q, want below hot", clusters[i], got)
		}
	}
	snap := tr.HeatSnapshot()
	if len(snap) < 4 || snap[0].Class != telemetry.ClassHot {
		t.Fatalf("heat snapshot not ranked hot-first: %+v", snap)
	}
	heatRank := make(map[ClusterID]int, len(snap))
	for pos, h := range snap {
		heatRank[ClusterID(h.Cluster)] = pos
	}
	for _, idle := range []int{0, 1} {
		for _, hot := range []int{2, 3} {
			if heatRank[clusters[idle]] < heatRank[clusters[hot]] {
				t.Fatalf("idle cluster %d ranked hotter than hammered %d: %+v", clusters[idle], clusters[hot], snap)
			}
		}
	}

	// Victim order must agree: every idle cluster precedes every hot one.
	victims := sys.Runtime().Manager().SelectVictims(core.VictimColdest)
	rank := make(map[ClusterID]int, len(victims))
	for pos, id := range victims {
		rank[id] = pos
	}
	for _, idle := range []int{0, 1} {
		for _, hot := range []int{2, 3} {
			ip, iok := rank[clusters[idle]]
			hp, hok := rank[clusters[hot]]
			if !iok || !hok {
				t.Fatalf("victim list %v missing clusters %v", victims, clusters)
			}
			if hp < ip {
				t.Fatalf("hot cluster %d selected before idle %d: victims %v",
					clusters[hot], clusters[idle], victims)
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
// until the thrash check degrades /healthz. Thrash is dated in accesses, not
// seconds: ten minutes of an idle system change nothing, and accesses with no
// ping-pong decay the score.
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

	// Ten minutes of an idle system: nothing has happened, nothing decays.
	tr := sys.Telemetry()
	score := tr.ThrashScore()
	clock.Advance(10 * time.Minute)
	if code, hr := getHealth(t, sys); code != http.StatusServiceUnavailable || checkNamed(t, hr, "thrash").OK {
		t.Fatalf("after ten idle minutes: code %d, %+v, want still degraded", code, hr)
	}
	if idle := tr.ThrashScore(); idle != score {
		t.Fatalf("thrash score %v after ten idle minutes, want %v unchanged", idle, score)
	}

	// Crossings into the cluster, no ping-pong among them: each one ages the
	// score. Recovery takes a few thrash half-lives (2^26 accesses) and is
	// pinned in internal/telemetry, TestThrashHysteresis.
	root, err := sys.MustRoot("a")
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 100; n++ {
		if _, err := sys.Invoke(root, "title"); err != nil {
			t.Fatal(err)
		}
	}
	if aged := tr.ThrashScore(); aged >= score {
		t.Fatalf("thrash score %v after 100 accesses, want below %v", aged, score)
	}
}

// TestAccessPlaneIgnoresWallTime runs one script of crossings, in-place
// touches, an allocation, swaps and ping-pongs on two systems on the real
// clock, one straight through and one with sleeps between the steps. The
// plane dates every event on the recency clock, so /debug/heat (scores,
// classes, thrash, ping-pongs, last touches) and /debug/wss read the same on
// both.
func TestAccessPlaneIgnoresWallTime(t *testing.T) {
	run := func(pause func()) (heat, wss []byte) {
		t.Helper()
		sys, err := New(Config{HeapCapacity: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if err := sys.AttachDevice("mem", store.NewMem(0)); err != nil {
			t.Fatal(err)
		}
		cls := sys.MustRegisterClass(taskClass())
		clusters := buildClusters(t, sys, cls, 3)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		cross := func(name string) {
			t.Helper()
			root, err := sys.MustRoot(name)
			must(err)
			_, err = sys.Invoke(root, "title")
			must(err)
		}
		steps := []func(){
			func() { cross("a"); cross("b"); cross("a") },
			func() { // in-place touches through the value a crossing handed out
				root, err := sys.MustRoot("c")
				must(err)
				must(sys.SetField(root, "title", heap.Str("y")))
				_, err = sys.Field(root, "title")
				must(err)
			},
			func() { _, err := sys.NewObject(cls, clusters[0]); must(err) },
			func() { _, err := sys.SwapOut(clusters[1]); must(err) },
			func() { cross("b") }, // a reload within the ping-pong window
			func() { _, err := sys.SwapOut(clusters[1]); must(err) },
			func() { _, err := sys.SwapIn(clusters[1]); must(err) }, // and another
			func() { cross("c"); cross("a") },
		}
		for _, step := range steps {
			pause()
			step()
		}
		pause()
		get := func(path string) []byte {
			rec := httptest.NewRecorder()
			sys.OpsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, rec.Code)
			}
			return rec.Body.Bytes()
		}
		return get("/debug/heat"), get("/debug/wss")
	}
	heat, wss := run(func() {})
	slowHeat, slowWSS := run(func() { time.Sleep(20 * time.Millisecond) })
	if !bytes.Equal(heat, slowHeat) {
		t.Fatalf("/debug/heat read differently after sleeps:\n%s\nstraight through:\n%s", slowHeat, heat)
	}
	if !bytes.Equal(wss, slowWSS) {
		t.Fatalf("/debug/wss read differently after sleeps:\n%s\nstraight through:\n%s", slowWSS, wss)
	}
	if !bytes.Contains(heat, []byte(`"ping_pongs": 2`)) {
		t.Fatalf("/debug/heat shows not the script's two ping-pongs:\n%s", heat)
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
	for _, path := range []string{"/debug/heat", "/debug/wss?window=5000", "/metrics"} {
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
