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
	"context"
	"strings"
	"sync"
	"testing"
	"time"

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

// gateStore holds every donor read until the test releases its key, and
// records the largest number of reads it held at once.
type gateStore struct {
	*store.Mem

	mu       sync.Mutex
	gates    map[string]*gate
	opened   bool // every read passes: the test is over
	inFlight int
	most     int
}

// gate is one key's pair of events: its read arrived, its read may go on.
type gate struct{ arrived, release chan struct{} }

func newGateStore() *gateStore {
	return &gateStore{Mem: store.NewMem(0), gates: make(map[string]*gate)}
}

func (g *gateStore) Get(ctx context.Context, key string) ([]byte, error) {
	g.hold(key)
	return g.Mem.Get(ctx, key)
}

func (g *gateStore) GetEnvelope(ctx context.Context, key string) ([]byte, store.PutOpts, error) {
	g.hold(key)
	return g.Mem.GetEnvelope(ctx, key)
}

func (g *gateStore) hold(key string) {
	g.mu.Lock()
	k := g.gate(key)
	g.inFlight++
	g.most = max(g.most, g.inFlight)
	closeOnce(k.arrived)
	g.mu.Unlock()
	<-k.release
	g.mu.Lock()
	g.inFlight--
	g.mu.Unlock()
}

// gate is key's pair, made on first use. The caller holds g.mu.
func (g *gateStore) gate(key string) *gate {
	k := g.gates[key]
	if k == nil {
		k = &gate{arrived: make(chan struct{}), release: make(chan struct{})}
		if g.opened {
			close(k.arrived)
			close(k.release)
		}
		g.gates[key] = k
	}
	return k
}

func closeOnce(ch chan struct{}) {
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// arrival is closed once key's read is waiting at the gate.
func (g *gateStore) arrival(key string) <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gate(key).arrived
}

func (g *gateStore) open(key string) {
	g.mu.Lock()
	closeOnce(g.gate(key).release)
	g.mu.Unlock()
}

// peak is the largest number of reads held at once so far.
func (g *gateStore) peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.most
}

// openAll lets every read and every wait for one through, so a failed test
// can shut its system down.
func (g *gateStore) openAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.opened = true
	for _, k := range g.gates {
		closeOnce(k.arrived)
		closeOnce(k.release)
	}
}

// TestPrefetchWindowOverlap walks the chase chain with Depth 2 and Workers 2
// behind a gate that holds every donor read. The window slides when the
// walker arrives, so the head's demand fault puts the reads of clusters 1 and
// 2 out beside its own: the test holds the head's read until both have come.
// After that it releases the reads one at a time, in chain order, each only
// once the read after it is waiting too; the walker crosses into a cluster
// only once its read is out. So exactly three reads are in flight at the
// gate's fullest (the demand read and the two ahead of it), the head is the
// one demand fault, every other boundary is a prefetch hit, and nothing
// prefetched goes to waste.
func TestPrefetchWindowOverlap(t *testing.T) {
	sys, err := New(Config{
		HeapCapacity: 16 << 20,
		Prefetch:     PrefetchConfig{Depth: 2, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	gs := newGateStore()
	defer gs.openAll() // before Close, which waits for the prefetch workers
	if err := sys.AttachDevice("desktop", gs); err != nil {
		t.Fatal(err)
	}
	clusters := buildChaseChain(t, sys)
	swapOutChase(t, sys, clusters)
	keys := chaseKeys(t, sys, clusters)

	walked := make(chan error, 1)
	go func() {
		cur, err := sys.MustRoot("chase-head")
		for i := 0; err == nil && !cur.IsNil(); i++ {
			if next := i/chasePerCluster + 1; i%chasePerCluster == chasePerCluster-1 && next < len(keys) {
				<-gs.arrival(keys[next]) // the crossing below is into cluster next
			}
			cur, err = sys.Field(cur, "next")
		}
		walked <- err
	}()
	await := awaitRead(t, gs, walked)
	for i, key := range keys {
		await(key)
		ahead := 1 // the window holds the next one too
		if i == 0 {
			ahead = 2 // the demand fault's whole window is out beside its read
		}
		for _, next := range keys[i+1 : min(i+1+ahead, len(keys))] {
			await(next)
		}
		gs.open(key)
	}
	if err := <-walked; err != nil {
		t.Fatal(err)
	}
	swapOutChase(t, sys, clusters) // an untouched prefetch would count as wasted here

	if most := gs.peak(); most != 3 {
		t.Fatalf("at most %d donor reads in flight, want 3", most)
	}
	reg := sys.Metrics()
	demand, _ := reg.HistogramSnapshotOf("objectswap_fault_seconds", "swap_in", "reload", "demand")
	hits, _ := reg.HistogramSnapshotOf("objectswap_fault_seconds", "swap_in", "reload", "prefetch-hit")
	snap := sys.Runtime().FaultEngine().Snapshot()
	if demand.Count != 1 || hits.Count != chaseClusters-1 || snap.Hits != chaseClusters-1 || snap.Wasted != 0 {
		t.Fatalf("demand faults %d, hits %d (engine %d), wasted %d; want 1, %d, %d, 0",
			demand.Count, hits.Count, snap.Hits, snap.Wasted, chaseClusters-1, chaseClusters-1)
	}
	if errs := sys.Runtime().Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestWindowSlidesOnArrival: a walker that joins a prefetch's flight slides
// the window as it arrives, not when the flight lands. With Depth 2 and
// Workers 2 behind the gate, the head's demand read goes through while the
// reads of clusters 1 and 2 are held; the walker crosses into cluster 1 and
// parks on its flight, and by then cluster 3 is queued too, beside 1 and 2.
// Once every gate opens the walk ends with each cluster past the head
// enqueued once, none dropped and none wasted.
func TestWindowSlidesOnArrival(t *testing.T) {
	sys, err := New(Config{
		HeapCapacity: 16 << 20,
		Prefetch:     PrefetchConfig{Depth: 2, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	gs := newGateStore()
	defer gs.openAll() // before Close, which waits for the prefetch workers
	if err := sys.AttachDevice("desktop", gs); err != nil {
		t.Fatal(err)
	}
	clusters := buildChaseChain(t, sys)
	swapOutChase(t, sys, clusters)
	keys := chaseKeys(t, sys, clusters)

	walked := make(chan error, 1)
	go func() {
		cur, err := sys.MustRoot("chase-head")
		for err == nil && !cur.IsNil() {
			cur, err = sys.Field(cur, "next")
		}
		walked <- err
	}()
	await := awaitRead(t, gs, walked)
	await(keys[0])
	gs.open(keys[0])
	await(keys[1])
	await(keys[2])
	engine := sys.Runtime().FaultEngine()
	for deadline := time.Now().Add(5 * time.Second); engine.Snapshot().CoalescedWaiters < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("the walker never joined cluster 1's flight; engine: %+v", engine.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if snap := engine.Snapshot(); snap.CoalescedWaiters != 1 || snap.Enqueued != 3 {
		t.Fatalf("walker parked on cluster 1: %d waiters, %d enqueued; want 1 and 3 (clusters 1, 2 and 3)",
			snap.CoalescedWaiters, snap.Enqueued)
	}

	gs.openAll()
	if err := <-walked; err != nil {
		t.Fatal(err)
	}
	engine.Quiesce()
	swapOutChase(t, sys, clusters) // an untouched prefetch would count as wasted here
	if snap := engine.Snapshot(); snap.Enqueued != uint64(len(clusters)-1) || snap.Wasted != 0 || snap.Dropped != 0 {
		t.Fatalf("enqueued %d, wasted %d, dropped %d; want %d, 0, 0",
			snap.Enqueued, snap.Wasted, snap.Dropped, len(clusters)-1)
	}
}

// chaseKeys returns the donor key of each swapped-out cluster of the chain.
func chaseKeys(t *testing.T, sys *System, clusters []ClusterID) []string {
	t.Helper()
	keys := make([]string, len(clusters))
	for i, c := range clusters {
		info, err := sys.Runtime().Manager().Info(c)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = info.Key
	}
	return keys
}

// awaitRead returns a wait for key's read to arrive at the gate, which fails
// the test if the walk reports on walked first or the read takes 5 s.
func awaitRead(t *testing.T, gs *gateStore, walked <-chan error) func(key string) {
	return func(key string) {
		t.Helper()
		select {
		case <-gs.arrival(key):
		case err := <-walked:
			t.Fatalf("walk ended before read %s: %v", key, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("read %s never came (most reads at once: %d)", key, gs.peak())
		}
	}
}
