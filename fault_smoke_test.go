package objectswap

// Pointer-chase smoke gate for the asynchronous fault engine: a list of
// objects spread across a chain of swap-clusters is walked end to end after
// everything was swapped out. Without prefetch every cluster boundary is a
// demand fault (device round trip + decode + install); with the
// graph-driven prefetcher the next cluster is speculatively resident by the
// time the walker arrives, and the crossing costs an inventory map lookup.
// TestFaultBenchSmoke asserts, by count, that the prefetcher serves the
// boundaries; what a fault and a hit cost is the ledger's to report
// (fault_p50_us @ chase-mem, fault.prefetch_hit_ratio @ chase-lan in
// go run ./benchmark).

import (
	"strings"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

const (
	chaseClusters   = 16
	chasePerCluster = 32
	chasePayload    = 128
)

// buildChaseChain allocates chaseClusters clusters of chasePerCluster nodes
// each, linked into one list crossing every cluster boundary, and roots the
// head. Returns the cluster ids in chain order.
func buildChaseChain(t *testing.T, sys *System) []ClusterID {
	t.Helper()
	cls, err := sys.Runtime().Registry().Lookup("Task")
	if err != nil {
		cls = sys.MustRegisterClass(taskClass())
	}
	payload := strings.Repeat("x", chasePayload)
	var clusters []ClusterID
	var prev *heap.Object
	var head *heap.Object
	for c := 0; c < chaseClusters; c++ {
		cluster := sys.NewCluster()
		clusters = append(clusters, cluster)
		for i := 0; i < chasePerCluster; i++ {
			o, err := sys.NewObject(cls, cluster)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.SetField(o.RefTo(), "title", heap.Str(payload)); err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				if err := sys.SetField(prev.RefTo(), "next", o.RefTo()); err != nil {
					t.Fatal(err)
				}
			} else {
				head = o
			}
			prev = o
		}
	}
	if err := sys.SetRoot("chase-head", head.RefTo()); err != nil {
		t.Fatal(err)
	}
	return clusters
}

// swapOutChase detaches the whole chain, tail first.
func swapOutChase(t *testing.T, sys *System, clusters []ClusterID) {
	t.Helper()
	for i := len(clusters) - 1; i >= 0; i-- {
		if _, err := sys.SwapOut(clusters[i]); err != nil {
			t.Fatalf("swap-out %d: %v", clusters[i], err)
		}
	}
	sys.Collect()
}

// walkChase follows next links across the whole chain, quiescing the
// prefetcher at each cluster boundary so speculation (when enabled) has
// landed before the walker crosses — the steady-state shape where the
// fetcher runs ahead of the chaser.
func walkChase(t *testing.T, sys *System) {
	t.Helper()
	cur, err := sys.MustRoot("chase-head")
	if err != nil {
		t.Fatal(err)
	}
	total := chaseClusters * chasePerCluster
	for i := 0; i < total; i++ {
		v, err := sys.Field(cur, "next")
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if v.IsNil() {
			break
		}
		cur = v
		if i%chasePerCluster == chasePerCluster-2 {
			sys.Runtime().FaultEngine().Quiesce()
		}
	}
}

// TestFaultBenchSmoke is the prefetch gate: after one full pointer
// chase with the prefetcher on, at least one boundary was a demand fault and
// at least half were prefetch hits. Both are counts, the same on any host;
// how much cheaper a hit is than a fault is a wall-clock ratio this host's
// clock does not resolve from one demand sample, so it is not gated here.
func TestFaultBenchSmoke(t *testing.T) {
	sys, err := New(Config{
		HeapCapacity: 16 << 20, // roomy: the admission guard must never trip here
		Prefetch:     PrefetchConfig{Depth: 2, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("desktop", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}

	clusters := buildChaseChain(t, sys)
	swapOutChase(t, sys, clusters)
	walkChase(t, sys)
	sys.Runtime().FaultEngine().Quiesce()

	reg := sys.Metrics()
	demand, ok := reg.HistogramSnapshotOf("objectswap_fault_seconds",
		"swap_in", "reload", "demand")
	if !ok || demand.Count == 0 {
		t.Fatal("no demand faults recorded — the walk never missed?")
	}
	hits, ok := reg.HistogramSnapshotOf("objectswap_fault_seconds",
		"swap_in", "reload", "prefetch-hit")
	if !ok || hits.Count == 0 {
		t.Fatalf("no prefetch hits recorded; engine: %+v",
			sys.Runtime().FaultEngine().Snapshot())
	}
	if hits.Count < chaseClusters/2 {
		t.Fatalf("prefetch hits = %d, want at least %d of %d boundaries; engine: %+v",
			hits.Count, chaseClusters/2, chaseClusters,
			sys.Runtime().FaultEngine().Snapshot())
	}
}
