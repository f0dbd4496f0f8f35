package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// barge is how long a window test gives a second goroutine to act inside the
// window before the holder moves on.
const barge = 50 * time.Millisecond

// TestMintWindowIsClosed drives a collection from a second goroutine, through
// the exported Collect, inside the mint window: between a proxy's allocation
// and its enlist, where nothing roots the proxy yet. The mint holds the
// runtime lock across the window, so the collection waits for it: the proxy
// allocated in the window is the one the mint hands out, and it survives the
// collection once its root holds it.
func TestMintWindowIsClosed(t *testing.T) {
	f := newFixture(t, 0)
	ids, _ := f.buildList(t, 20, 10, 8)
	var fresh heap.ObjID
	var once sync.Once
	collected := make(chan heap.CollectStats, 1)
	inWindow := false
	f.rt.yield = func(at string) {
		if at != "mint" {
			return
		}
		once.Do(func() {
			resident := f.rt.h.IDs()
			fresh = resident[len(resident)-1]
			go func() { collected <- f.rt.Collect() }()
			select {
			case <-collected:
				inWindow = true
			case <-time.After(barge):
			}
		})
	}
	err := f.rt.SetRoot("minted", heap.Ref(ids[15]))
	f.rt.yield = nil
	if err != nil {
		t.Fatal(err)
	}
	if inWindow {
		t.Error("a collection ran inside the mint window")
	} else {
		<-collected
	}
	minted, _ := f.rt.Root("minted")
	if got := minted.MustRef(); got != fresh {
		t.Fatalf("the mint handed out @%d, not the proxy @%d it allocated in the window: a collection swept that one", got, fresh)
	}
	if !f.rt.lockedContains(fresh) {
		t.Fatalf("the minted proxy @%d did not survive the collection", fresh)
	}
	wantTag(t, f, minted, 15)
	checkClean(t, f.rt)
}

// TestCommitWindowIsClosed drives a mint and then a full collection from a
// second goroutine, through the exported entries, inside a swap-in's commit
// window: its members are installed but not yet reachable, every inbound
// proxy still points at the replacement-object, and the record is still
// reserved. Both wait for the swap's hold of the runtime lock, so nothing
// lands in the window: the reserved cluster comes back whole, and the mint
// points at its member.
func TestCommitWindowIsClosed(t *testing.T) {
	f, ids, id, cursor := windowFixture(t)
	if _, err := f.rt.SwapOut(id); err != nil {
		t.Fatal(err)
	}
	minted, done := make(chan struct{}), make(chan error, 1)
	var once sync.Once
	inWindow := false
	f.rt.yield = func(at string) {
		if at != "commit" {
			return
		}
		once.Do(func() {
			go func() {
				err := f.rt.SetRoot("minted", heap.Ref(ids[15]))
				close(minted)
				if err == nil {
					f.rt.Collect()
				}
				done <- err
			}()
			select {
			case <-minted:
				inWindow = true
			case <-time.After(barge):
			}
		})
	}
	_, err := f.rt.SwapIn(id)
	derr := <-done
	f.rt.yield = nil
	if err != nil {
		t.Fatal(err)
	}
	if derr != nil {
		t.Fatal(derr)
	}
	if inWindow {
		t.Error("a mint landed inside the commit window")
	}
	for _, oid := range ids[10:20] {
		if !f.rt.lockedContains(oid) {
			t.Fatalf("member @%d of the reserved cluster did not survive", oid)
		}
	}
	v, _ := f.rt.Root("minted")
	wantTag(t, f, v, 15)
	wantTag(t, f, cursor, 9)
	checkClean(t, f.rt)
}

// TestWalkerAgainstEvictingPrefetch runs a walker's recursion down a list in
// the root cluster — every level a dispatch that pushes its frame onto the
// invocation stack — while the prefetch workers swap in clusters of another
// list and evict each other's to make room, each eviction's young pass
// reading that stack on a worker's goroutine. The stack is written only
// under the runtime lock the passes take, so the race detector finds
// nothing; every walk reaches the end of its list, and the invariants hold.
// check.sh runs it a thousand times under the race detector.
func TestWalkerAgainstEvictingPrefetch(t *testing.T) {
	rt, _ := newFaultFixture(t, WithPrefetch(2, 2))
	eng := rt.FaultEngine()
	defer eng.Stop()
	const clusters, per, walk = 8, 4, 16
	far := buildChain(t, rt, clusters, per)
	h := rt.h
	full := h.Used()
	for _, c := range far {
		if _, err := rt.SwapOut(c); err != nil {
			t.Fatal(err)
		}
	}
	node, _ := rt.Registry().Lookup("Node")
	var prev heap.Value
	for i := walk - 1; i >= 0; i-- {
		o, err := rt.NewObject(node, RootCluster)
		if err == nil {
			err = rt.SetFieldValue(o.RefTo(), "next", prev)
		}
		if err != nil {
			t.Fatal(err)
		}
		prev = o.RefTo()
	}
	if err := rt.SetRoot("walk", prev); err != nil {
		t.Fatal(err)
	}
	// Room for two of the far clusters: a window of two ahead evicts.
	h.SetCapacity(h.Used() + 2*full/clusters + 4096)
	h.SetReserve(4096)
	rt.SetEvictor(func(need int64) error { return rt.EvictWith(VictimColdest, need) })
	passes := h.StatsSnapshot().Collections
	for round := 0; round < clusters; round++ {
		rt.lock() // a trigger walks the graph under the runtime lock
		eng.TriggerPrefetch(uint32(far[round%(clusters-2)]))
		rt.unlock()
		out, err := rt.Invoke(prev, "walk", heap.Int(1))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if depth := out[0].MustInt(); depth != walk {
			t.Fatalf("round %d: the walk reached depth %d, want %d", round, depth, walk)
		}
		eng.Quiesce()
	}
	if h.StatsSnapshot().Collections == passes {
		t.Fatal("nothing evicted: the prefetch window fits the heap")
	}
	checkClean(t, rt)
}

// gatedStore blocks every Get of one key until it is released, and counts the
// Gets that reached the gate.
type gatedStore struct {
	*store.Mem
	mu      sync.Mutex
	key     string
	gate    chan struct{}
	blocked int
}

func (g *gatedStore) Get(ctx context.Context, key string) ([]byte, error) {
	g.mu.Lock()
	gate := g.gate
	if key != g.key {
		gate = nil
	} else {
		g.blocked++
	}
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return g.Mem.Get(ctx, key)
}

func (g *gatedStore) waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.blocked
}

// TestReentryAcrossADemandFault: a method body recurses through call.RT
// (fetch) from a resident cluster into a swapped-out one, whose demand fault
// lets go of the runtime lock, mid-method, while the donor's read is held. A
// prefetch worker takes the lock meanwhile and installs the cluster after it.
// Then the read lands, the fault takes the lock back, and the recursion goes
// on into the prefetched cluster: the call returns the right object, with no
// deadlock, and the invariants hold.
func TestReentryAcrossADemandFault(t *testing.T) {
	devices := store.NewRegistry(store.SelectMostFree)
	gs := &gatedStore{Mem: store.NewMem(0)}
	if err := devices.Add("pda-neighbor", gs); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices), WithPrefetch(1, 1))
	defer rt.FaultEngine().Stop()
	rt.MustRegisterClass(newNodeClass())
	ids := buildChain(t, rt, 3, 4) // nodes 0-3, 4-7, 8-11
	a, b, c := ids[0], ids[1], ids[2]
	var bKey string
	for _, id := range []ClusterID{b, c} {
		ev, err := rt.SwapOut(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == b {
			bKey = ev.Key
		}
	}
	gs.mu.Lock()
	gs.key, gs.gate = bKey, make(chan struct{})
	gs.mu.Unlock()

	head, _ := rt.Root("head")
	type result struct {
		tag int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := rt.Invoke(head, "fetch", heap.Int(9)) // node 9, in c
		if err != nil {
			done <- result{err: err}
			return
		}
		ref := out[0]
		tag, err := rt.Field(ref, "tag")
		done <- result{tag.MustInt(), err}
	}()
	waitUntil(t, func() bool { return gs.waiting() == 1 })

	// The method is parked in b's demand fault with the lock released: a
	// prefetch of c, b's neighbor, takes it and installs c.
	installed := make(chan struct{})
	go func() {
		rt.lock()
		rt.FaultEngine().TriggerPrefetch(uint32(b))
		rt.unlock()
		rt.FaultEngine().Quiesce()
		close(installed)
	}()
	select {
	case <-installed:
	case <-time.After(10 * time.Second):
		t.Fatal("the prefetch could not take the runtime lock while the method's demand fault waited")
	}
	if rt.Manager().IsSwapped(c) {
		t.Fatal("the prefetch did not install c")
	}
	close(gs.gate)
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the method did not return after its demand fault")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.tag != 9 {
		t.Fatalf("fetch returned the node tagged %d, want 9", r.tag)
	}
	if rt.Manager().IsSwapped(a) || rt.Manager().IsSwapped(b) {
		t.Fatal("a or b is not resident after the call")
	}
	checkClean(t, rt)
}
