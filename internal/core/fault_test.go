package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/store"
	"objectswap/internal/telemetry"
)

// probeStore wraps Mem with per-key Get accounting, an optional gate that
// blocks Gets, and an injectable failure.
type probeStore struct {
	*store.Mem
	mu   sync.Mutex
	gets map[string]int
	gate chan struct{}
	err  error
}

func newProbeStore() *probeStore {
	return &probeStore{Mem: store.NewMem(0), gets: make(map[string]int)}
}

func (p *probeStore) Get(ctx context.Context, key string) ([]byte, error) {
	p.mu.Lock()
	p.gets[key]++
	gate, fail := p.gate, p.err
	p.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if fail != nil {
		return nil, fail
	}
	return p.Mem.Get(ctx, key)
}

func (p *probeStore) totalGets() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.gets {
		n += c
	}
	return n
}

func (p *probeStore) distinctKeys() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.gets)
}

// setGate installs (or clears, with nil) a channel every Get blocks on.
func (p *probeStore) setGate(gate chan struct{}) {
	p.mu.Lock()
	p.gate = gate
	p.mu.Unlock()
}

func (p *probeStore) setErr(err error) {
	p.mu.Lock()
	p.err = err
	p.mu.Unlock()
}

// newFaultFixture builds a runtime on a probeStore.
func newFaultFixture(t testing.TB, opts ...Option) (*Runtime, *probeStore) {
	t.Helper()
	devices := store.NewRegistry(store.SelectMostFree)
	ps := newProbeStore()
	if err := devices.Add("pda-neighbor", ps); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(heap.New(0), heap.NewRegistry(),
		append([]Option{WithStores(devices)}, opts...)...)
	rt.MustRegisterClass(newNodeClass())
	return rt, ps
}

// buildChain allocates clusters of size perCluster with the nodes linked in
// one list (cross-cluster next edges), roots the head, and returns the
// cluster ids.
func buildChain(t testing.TB, rt *Runtime, clusters, perCluster int) []ClusterID {
	t.Helper()
	node, err := rt.Registry().Lookup("Node")
	if err != nil {
		t.Fatal(err)
	}
	var ids []ClusterID
	var objs []*heap.Object
	for c := 0; c < clusters; c++ {
		id := rt.Manager().NewCluster()
		ids = append(ids, id)
		for i := 0; i < perCluster; i++ {
			o, err := rt.NewObject(node, id)
			if err != nil {
				t.Fatal(err)
			}
			rt.Locked(func(*Held) { o.MustSet("tag", heap.Int(int64(len(objs)))) })
			objs = append(objs, o)
		}
	}
	for i := 0; i < len(objs)-1; i++ {
		if err := rt.SetFieldValue(objs[i].RefTo(), "next", objs[i+1].RefTo()); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.SetRoot("head", objs[0].RefTo()); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestFaultStormCoalesces is the tentpole's proof: 64 goroutines faulting 8
// swapped clusters produce exactly 8 donor fetches — one per cluster — with
// every other caller either parked on the in-flight fetch or bounced with
// ErrClusterLoaded after it landed. Run under -race (check.sh does).
func TestFaultStormCoalesces(t *testing.T) {
	rt, ps := newFaultFixture(t)
	defer rt.FaultEngine().Stop()
	clusters := buildChain(t, rt, 8, 4)
	for _, c := range clusters {
		if _, err := rt.SwapOut(c); err != nil {
			t.Fatalf("swap-out %d: %v", c, err)
		}
	}
	rt.Collect()
	if got := ps.totalGets(); got != 0 {
		t.Fatalf("setup already issued %d donor fetches", got)
	}

	const goroutines = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		c := clusters[i%len(clusters)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := rt.SwapIn(c); err != nil && !errors.Is(err, ErrClusterLoaded) {
				t.Errorf("swap-in %d: %v", c, err)
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := ps.totalGets(); got != len(clusters) {
		t.Fatalf("donor fetches = %d, want exactly %d (one per cluster)", got, len(clusters))
	}
	if got := ps.distinctKeys(); got != len(clusters) {
		t.Fatalf("distinct keys fetched = %d, want %d", got, len(clusters))
	}
	for _, c := range clusters {
		info, err := rt.Manager().Info(c)
		if err != nil || info.Swapped {
			t.Fatalf("cluster %d not resident after storm (err %v)", c, err)
		}
	}
	if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestCoalescedFaultErrorPropagation wedges a flight on a flaky donor, parks
// seven more faulters on it, and proves (a) every waiter receives the
// leader's error, (b) the donor was asked exactly once, and (c) the failed
// flight is cleared so a retry against the healed donor succeeds.
func TestCoalescedFaultErrorPropagation(t *testing.T) {
	rt, ps := newFaultFixture(t)
	defer rt.FaultEngine().Stop()
	c := buildChain(t, rt, 1, 4)[0]
	if _, err := rt.SwapOut(c); err != nil {
		t.Fatal(err)
	}

	sentinel := errors.New("donor dropped the shipment")
	gate := make(chan struct{})
	ps.setGate(gate)
	ps.setErr(sentinel)

	errs := make(chan error, 8)
	go func() {
		_, err := rt.SwapIn(c)
		errs <- err
	}()
	waitUntil(t, func() bool { return ps.totalGets() == 1 })
	base := rt.FaultEngine().Snapshot().CoalescedWaiters
	for i := 0; i < 7; i++ {
		go func() {
			_, err := rt.SwapIn(c)
			errs <- err
		}()
	}
	waitUntil(t, func() bool {
		return rt.FaultEngine().Snapshot().CoalescedWaiters == base+7
	})
	close(gate)

	for i := 0; i < 8; i++ {
		if err := <-errs; !errors.Is(err, sentinel) {
			t.Fatalf("waiter %d got %v, want the donor's error", i, err)
		}
	}
	if got := ps.totalGets(); got != 1 {
		t.Fatalf("failed storm issued %d donor fetches, want 1", got)
	}

	// Heal the donor: the flight table is clear, the retry leads fresh.
	ps.setGate(nil)
	ps.setErr(nil)
	if _, err := rt.SwapIn(c); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	if info, _ := rt.Manager().Info(c); info.Swapped {
		t.Fatal("cluster still swapped after healed retry")
	}
}

// TestSwapInJoinsPrefetchFlight is the satellite bug fix: a demand SwapIn
// arriving while a prefetch of the same cluster is mid-flight must join that
// flight and resume with its result — not bounce off ErrClusterBusy.
func TestSwapInJoinsPrefetchFlight(t *testing.T) {
	rt, ps := newFaultFixture(t)
	defer rt.FaultEngine().Stop()
	c := buildChain(t, rt, 1, 4)[0]
	if _, err := rt.SwapOut(c); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	ps.setGate(gate)
	prefErr := make(chan error, 1)
	go func() {
		// A prefetch worker's reload: same public SwapIn, prefetch cause.
		_, err := rt.SwapIn(c, WithCause(CausePrefetch))
		prefErr <- err
	}()
	waitUntil(t, func() bool { return ps.totalGets() == 1 })

	base := rt.FaultEngine().Snapshot().CoalescedWaiters
	demand := make(chan error, 1)
	var ev SwapEvent
	go func() {
		var err error
		ev, err = rt.SwapIn(c)
		demand <- err
	}()
	waitUntil(t, func() bool {
		return rt.FaultEngine().Snapshot().CoalescedWaiters == base+1
	})
	close(gate)

	if err := <-demand; err != nil {
		t.Fatalf("demand fault during prefetch flight: %v (must join, not ErrClusterBusy)", err)
	}
	if err := <-prefErr; err != nil {
		t.Fatalf("prefetch flight: %v", err)
	}
	if ev.Cause != CausePrefetch {
		t.Fatalf("joined demand fault reports cause %q, want the flight's %q",
			ev.Cause, CausePrefetch)
	}
	if got := ps.totalGets(); got != 1 {
		t.Fatalf("join issued %d donor fetches, want 1", got)
	}
}

// TestPrefetchHitRecordsParkedTime pins what a prefetch hit's latency is:
// how long the walker parked for the cluster. A demand fault that joins a
// running prefetch records the rest of that flight; a crossing that finds a
// prefetched cluster resident records zero.
func TestPrefetchHitRecordsParkedTime(t *testing.T) {
	clock := obs.NewVirtualClock(time.Unix(0, 0))
	reg := obs.NewRegistry(clock)
	rt, ps := newFaultFixture(t, WithObs(reg),
		WithTelemetry(telemetry.New(reg)), WithPrefetch(1, 1))
	defer rt.FaultEngine().Stop()
	chain := buildChain(t, rt, 2, 4)
	for _, c := range chain {
		if _, err := rt.SwapOut(c); err != nil {
			t.Fatal(err)
		}
	}

	gate := make(chan struct{})
	ps.setGate(gate)
	prefErr := make(chan error, 1)
	go func() {
		_, err := rt.SwapIn(chain[1], WithCause(CausePrefetch))
		prefErr <- err
	}()
	waitUntil(t, func() bool { return ps.totalGets() == 1 })
	demand := make(chan error, 1)
	go func() {
		_, err := rt.SwapIn(chain[1])
		demand <- err
	}()
	waitUntil(t, func() bool { return rt.FaultEngine().Snapshot().CoalescedWaiters == 1 })
	const parked = 3 * time.Millisecond
	clock.Advance(parked)
	ps.setGate(nil)
	close(gate)
	if err := <-prefErr; err != nil {
		t.Fatal(err)
	}
	if err := <-demand; err != nil {
		t.Fatal(err)
	}

	if _, err := rt.SwapIn(chain[0], WithCause(CausePrefetch)); err != nil {
		t.Fatal(err)
	}
	rt.lock()
	rt.notePrefetchHit(chain[0])
	rt.unlock()
	rt.FaultEngine().Quiesce()

	hs, _ := reg.HistogramSnapshotOf("objectswap_fault_seconds", "swap_in", "reload", telemetry.KindPrefetchHit)
	if hs.Count != 2 || hs.Sum != parked.Seconds() {
		t.Fatalf("prefetch hits: %d totalling %gs, want 2 totalling %gs (the join's wait; the resident crossing's 0)",
			hs.Count, hs.Sum, parked.Seconds())
	}
}

// TestReloadFindsClusterResident is the crossing that saw its cluster
// swapped and faulted after a flight had already brought it back: the fault
// finds it resident, and the reference is served rather than failed.
func TestReloadFindsClusterResident(t *testing.T) {
	rt, ps := newFaultFixture(t)
	defer rt.FaultEngine().Stop()
	c := buildChain(t, rt, 1, 4)[0]
	rt.lock()
	err := rt.reload(c)
	rt.unlock()
	if err != nil {
		t.Fatalf("reload of a resident cluster: %v", err)
	}
	if got := ps.totalGets(); got != 0 {
		t.Fatalf("reload of a resident cluster fetched %d times", got)
	}
}

// TestPrefetchInstallsGraphNeighbors wires the full speculative path through
// a real runtime: a demand fault on the chain's first cluster pulls its
// graph neighbor in behind it, the next crossing is a hit, and an eviction
// of an untouched speculation counts as wasted.
func TestPrefetchInstallsGraphNeighbors(t *testing.T) {
	rt, _ := newFaultFixture(t, WithPrefetch(2, 2))
	defer rt.FaultEngine().Stop()
	clusters := buildChain(t, rt, 3, 4)
	for i := len(clusters) - 1; i >= 0; i-- {
		if _, err := rt.SwapOut(clusters[i]); err != nil {
			t.Fatal(err)
		}
	}
	rt.Collect()

	if _, err := rt.SwapIn(clusters[0]); err != nil {
		t.Fatal(err)
	}
	rt.FaultEngine().Quiesce()

	// The chain is c0 -> c1 -> c2: c1 is c0's neighbor and must be resident.
	info, err := rt.Manager().Info(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	if info.Swapped {
		t.Fatal("neighbor cluster not prefetched")
	}
	snap := rt.FaultEngine().Snapshot()
	if snap.Installed == 0 {
		t.Fatalf("prefetcher installed nothing: %+v", snap)
	}

	// Walking across the c0/c1 boundary consumes the inventory as a hit and
	// chains the speculation one hop further (c2).
	head, ok := rt.Root("head")
	if !ok {
		t.Fatal("missing head")
	}
	// Five steps: four to reach the boundary proxy, one through it (the
	// crossing is the field read ON the proxy, not the read that yields it).
	cur := head
	for i := 0; i < 5; i++ {
		v, err := rt.Field(cur, "next")
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		cur = v
	}
	rt.FaultEngine().Quiesce()
	snap = rt.FaultEngine().Snapshot()
	if snap.Hits == 0 {
		t.Fatalf("boundary crossing into prefetched cluster recorded no hit: %+v", snap)
	}

	// Swap an untouched speculation back out: wasted bytes.
	rt.FaultEngine().Quiesce()
	if inf, _ := rt.Manager().Info(clusters[2]); !inf.Swapped {
		if _, err := rt.SwapOut(clusters[2]); err != nil && !errors.Is(err, ErrClusterBusy) {
			t.Fatal(err)
		}
		if snap = rt.FaultEngine().Snapshot(); snap.Wasted == 0 {
			t.Fatalf("evicting an untouched prefetch recorded no waste: %+v", snap)
		}
	}
}

// TestNeighborClustersRanking checks the replacement-object-graph ranking:
// neighbors ordered by proxy-edge count descending, ties by id, self and the
// root cluster excluded.
func TestNeighborClustersRanking(t *testing.T) {
	f := newFixture(t, 0)
	node, err := f.rt.Registry().Lookup("Node")
	if err != nil {
		t.Fatal(err)
	}
	a := f.rt.Manager().NewCluster()
	b := f.rt.Manager().NewCluster()
	c := f.rt.Manager().NewCluster()
	mk := func(cl ClusterID) *heap.Object {
		o, err := f.rt.NewObject(node, cl)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	oa1, oa2, oa3 := mk(a), mk(a), mk(a)
	ob1, ob2 := mk(b), mk(b)
	oc1, oc2 := mk(c), mk(c)
	// Two a->c proxies (distinct targets — same-target links share one
	// proxy), one a->b proxy: c outranks b from a.
	link := func(from, to *heap.Object) {
		if err := f.rt.SetFieldValue(from.RefTo(), "next", to.RefTo()); err != nil {
			t.Fatal(err)
		}
	}
	link(oa1, oc1)
	link(oa2, ob1)
	link(oa3, oc2)
	_ = ob2

	got := f.rt.PrefetchWindow(uint32(a), 4)
	want := []uint32{uint32(c), uint32(b)}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Rank(a) = %v, want %v", got, want)
	}
	if got := f.rt.PrefetchWindow(uint32(a), 1); len(got) != 1 || got[0] != uint32(c) {
		t.Fatalf("Rank(a, 1) = %v, want [%d]", got, c)
	}
	if got := f.rt.PrefetchWindow(uint32(c), 4); len(got) != 0 {
		t.Fatalf("Rank(c) = %v, want none (no outgoing proxies)", got)
	}

	// On a chain hop 1 has one neighbor, so the window walks on: from the
	// best-ranked cluster taken so far, link by link, until it holds k.
	rt, _ := newFaultFixture(t)
	chain := buildChain(t, rt, 5, 2)
	ids := func(cs ...ClusterID) []uint32 {
		out := make([]uint32, len(cs))
		for i, c := range cs {
			out[i] = uint32(c)
		}
		return out
	}
	for _, tc := range []struct {
		from ClusterID
		k    int
		want []uint32
	}{
		{chain[0], 3, ids(chain[1], chain[2], chain[3])},
		{chain[2], 4, ids(chain[3], chain[4])},
		{chain[4], 2, nil},
	} {
		got := rt.PrefetchWindow(uint32(tc.from), tc.k)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("window(%d, %d) = %v, want %v", tc.from, tc.k, got, tc.want)
		}
	}
}

// TestTriggerPrefetchAllocatesNothing pins a trigger — the window walk over
// the clusters' edge counts, the enqueue, and a worker's task through its end — at
// zero allocations. The admission guard refuses every task, so no swap-in
// runs.
func TestTriggerPrefetchAllocatesNothing(t *testing.T) {
	rt, _ := newFaultFixture(t, WithPrefetch(2, 2))
	eng := rt.FaultEngine()
	defer eng.Stop()
	head := uint32(buildChain(t, rt, 4, 4)[0])
	eng.SetAdmit(func() bool { return false })
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		eng.TriggerPrefetch(head)
		eng.Quiesce()
	})
	if allocs != 0 {
		t.Fatalf("a trigger allocates %.1f times, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up run; every run queued the two-cluster window.
	if got := eng.Snapshot().SkippedPressure; got != 2*(runs+1) {
		t.Fatalf("tasks run = %d, want %d", got, 2*(runs+1))
	}
}

// TestConcurrentFaultsDuringCollectAndEvict extends the swap storm with the
// fault engine in play: dense same-cluster demand faults race Collect and a
// pressure evictor. End-state invariants and the surviving graph are the
// assertion; every error must be one of the benign storm outcomes.
func TestConcurrentFaultsDuringCollectAndEvict(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 128, 4, 16)
	want := f.snapshotTags(t)

	skippable := func(err error) bool {
		return errors.Is(err, ErrClusterBusy) || errors.Is(err, ErrClusterLoaded) ||
			errors.Is(err, ErrClusterSwapped) || errors.Is(err, ErrClusterEmpty) ||
			errors.Is(err, ErrClusterActive)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var coalesceTarget atomic.Int32
	coalesceTarget.Store(int32(clusters[0]))

	// Swap-out churn keeps clusters leaving so the faulters have misses.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			swapOutAll(t, f.rt, clusters)
		}
		close(stop)
	}()
	// Dense same-cluster faulters: 8 goroutines hammer one cluster so the
	// single-flight table coalesces under real Collect/Evict interference.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := ClusterID(coalesceTarget.Load())
				if _, err := f.rt.SwapIn(c); err != nil && !skippable(err) {
					t.Errorf("coalesced fault %d: %v", c, err)
					return
				}
			}
		}()
	}
	// A roaming faulter shifts the hot cluster.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			coalesceTarget.Store(int32(clusters[i%len(clusters)]))
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			f.rt.Collect()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			// Eviction errors are expected mid-storm (busy victims, nothing
			// swappable); the end-state checks below are the assertion.
			_ = f.rt.EvictWith(VictimColdest, 1<<10)
		}
	}()
	wg.Wait()

	for _, c := range clusters {
		if _, err := f.rt.SwapIn(c); err != nil && !skippable(err) {
			t.Fatalf("final swap-in %d: %v", c, err)
		}
	}
	if errs := f.rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants after storm: %v", errs)
	}
	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("list length after storm = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func waitUntil(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
