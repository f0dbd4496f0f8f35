package objectswap

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"objectswap/internal/core"
	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// newReportSystem assembles a small instrumented system with a deterministic
// clock, performs one swap-out/swap-in round trip, and returns it.
func newReportSystem(t *testing.T) (*System, *obs.VirtualClock) {
	t.Helper()
	clock := obs.NewVirtualClock(time.Unix(1000, 0))
	sys, err := New(Config{
		HeapCapacity: 1 << 20,
		DeviceName:   "pda-report",
		Clock:        clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice("neighbor", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	cluster := buildChains(t, sys, cls, 1, 5)[0]
	if _, err := sys.SwapOut(cluster); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SwapIn(cluster); err != nil {
		t.Fatal(err)
	}
	return sys, clock
}

func TestReportRendersObservabilityDigest(t *testing.T) {
	sys, _ := newReportSystem(t)
	report := sys.Report()

	// Structural sections survive the rebuild.
	for _, want := range []string{
		`device "pda-report"`,
		"heap: ",
		"swap-clusters (",
		"devices (1):",
		"  neighbor",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// The registry-derived digest covers the swap pipeline and the spine.
	for _, want := range []string{
		"swap pipeline:",
		"swap_out  1 ops",
		"swap_in   1 ops",
		"encode", "ship", "fetch", "install",
		"bus: ",
		"policy: ",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// 6 objects allocated (5 tasks + replacement bookkeeping is internal):
	// the heap line reads live callback gauges, not a cached snapshot.
	var objects int
	sys.Runtime().Locked(func(x *core.Held) { objects = x.Heap().Len() })
	if !strings.Contains(report, fmt.Sprintf("%d objects", objects)) {
		t.Errorf("report heap line disagrees with live heap:\n%s", report)
	}
}

func TestWriteMetricsCoversEveryLayer(t *testing.T) {
	sys, _ := newReportSystem(t)
	sys.Monitor().Check()

	var b strings.Builder
	if err := sys.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()

	// At least one family from each layer of the spine.
	for _, want := range []string{
		// heap
		`objectswap_heap_used_bytes{device="pda-report"}`,
		`objectswap_heap_gc_cycles_total{device="pda-report"}`,
		// core swap pipeline (counter, histogram with phases)
		`objectswap_swap_spans_total{op="swap_out"} 1`,
		`objectswap_swap_spans_total{op="swap_in"} 1`,
		`objectswap_swap_phase_seconds_bucket{op="swap_out",phase="ship",le=`,
		`objectswap_swap_phase_bytes_total{op="swap_in",phase="fetch"}`,
		// transport
		`objectswap_transport_attempts_total{device="neighbor"}`,
		`objectswap_transport_op_seconds_bucket{device="neighbor",le=`,
		// policy
		`objectswap_policy_evaluations_total`,
		// devctx
		`objectswap_devctx_memory_fraction`,
		`objectswap_devctx_link_up{device="neighbor"} 1`,
		// bus
		`objectswap_bus_published_total{topic="swap.out"} 1`,
		// exposition format markers
		"# TYPE objectswap_swap_seconds histogram",
		"# HELP objectswap_heap_used_bytes",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestScrapeDuringConcurrentSwaps races metric scrapes against live swap
// traffic: the registry's instruments must be safe to read mid-operation.
// Run under -race (check.sh does).
func TestScrapeDuringConcurrentSwaps(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20, DeviceName: "pda-race"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice("neighbor", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	const chains = 4
	clusters := buildChains(t, sys, cls, chains, 5)

	stop := make(chan struct{})
	var scrapeErr error
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := sys.WriteMetrics(&b); err != nil {
				scrapeErr = err
				return
			}
			_ = sys.Report()
		}
	}()

	var wg sync.WaitGroup
	for i, cluster := range clusters {
		wg.Add(1)
		go func(i int, c ClusterID) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				if _, err := sys.SwapOut(c); err != nil {
					t.Errorf("chain %d round %d swap-out: %v", i, round, err)
					return
				}
				if _, err := sys.SwapIn(c); err != nil {
					t.Errorf("chain %d round %d swap-in: %v", i, round, err)
					return
				}
			}
		}(i, cluster)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}

	if v, _ := sys.Metrics().Value("objectswap_swap_spans_total", "swap_out"); v != chains*10 {
		t.Fatalf("swap_out spans = %v, want %d", v, chains*10)
	}
	if v, _ := sys.Metrics().Value("objectswap_swap_spans_total", "swap_in"); v != chains*10 {
		t.Fatalf("swap_in spans = %v, want %d", v, chains*10)
	}
}
