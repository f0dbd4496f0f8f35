package core

import (
	"errors"
	"sync"
	"testing"

	"objectswap/internal/heap"
)

// windowFixture is a list of 30 nodes in three clusters of ten, with an
// assign-mode cursor rooted at "cursor" on node 9, the last of the first
// cluster: its next step crosses into the second cluster.
func windowFixture(t *testing.T) (*fixture, []heap.ObjID, ClusterID, heap.Value) {
	t.Helper()
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 30, 10, 8)
	cursor, err := f.rt.AssignedCursor(heap.Ref(ids[9]))
	if err == nil {
		err = f.rt.SetRoot("cursor", cursor)
	}
	if err != nil {
		t.Fatal(err)
	}
	return f, ids, clusters[1], cursor
}

// inCommitWindow runs swap on another goroutine and, once the swap has done
// its heap work and is about to settle its cluster, runs step on the test's
// goroutine while the swap waits. The swap holds the runtime lock there, and
// step runs under that hold, handed over through the hook's channels, as a
// mint the commit section itself makes (an install's object-fault proxies)
// does. Then the swap finishes and the invariants must hold.
func inCommitWindow(t *testing.T, f *fixture, swap func() error, step func() error) {
	t.Helper()
	reached, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	f.rt.yield = func(at string) {
		if at == "commit" {
			once.Do(func() { close(reached); <-resume })
		}
	}
	done := make(chan error, 1)
	go func() { done <- swap() }()
	select {
	case <-reached:
	case err := <-done:
		t.Fatalf("the swap ended before its commit: %v", err)
	}
	stepErr := step()
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	f.rt.yield = nil
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	checkClean(t, f.rt)
}

// wantTag reads field tag of the object v designates, through the runtime.
func wantTag(t *testing.T, f *fixture, v heap.Value, want int64) {
	t.Helper()
	got, err := f.rt.Field(v, "tag")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := got.Int(); n != want {
		t.Fatalf("tag = %d, want %d", n, want)
	}
}

// TestCommitWindow mints a proxy to a member of a cluster, or steps an
// assign-mode cursor onto one, while a concurrent swap of that cluster sits
// between its heap work and its commit: after a swap-in installed the members,
// and after a swap-out built the replacement-object. The proxy must end up
// pointing where its cluster is — at the member once the swap-in commits, at
// the replacement-object once the swap-out commits — so it must be listed and
// pointed in the hold that moves the cluster, not beside it.
func TestCommitWindow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		out    bool // the window is a swap-out's; else a swap-in's
		cursor bool // a cursor step; else a mint
	}{
		{"mint/swap-in", false, false},
		{"mint/swap-out", true, false},
		{"cursor/swap-in", false, true},
		{"cursor/swap-out", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, ids, id, cursor := windowFixture(t)
			swap := func() error { _, err := f.rt.SwapOut(id); return err }
			if !tc.out {
				if err := swap(); err != nil {
					t.Fatal(err)
				}
				swap = func() error { _, err := f.rt.SwapIn(id); return err }
			}
			var minted heap.Value
			step := func() (err error) {
				if tc.cursor {
					_, err = (*Held)(f.rt).Field(cursor, "next")
					return err
				}
				if err = (*Held)(f.rt).SetRoot("minted", heap.Ref(ids[15])); err == nil {
					minted, _ = f.rt.h.Root("minted")
				}
				return err
			}
			inCommitWindow(t, f, swap, step)
			if tc.cursor {
				wantTag(t, f, cursor, 10)
			} else {
				wantTag(t, f, minted, 15)
			}
			checkClean(t, f.rt)
		})
	}
}

// TestSweepBeforeEnlist lands a collection between a proxy's allocation and
// its listing, on another goroutine that borrows the mint's hold of the
// runtime lock: nothing roots the fresh proxy yet, so the collection sweeps
// it. The sweep must not leave it listed in its target cluster's inbound
// list or offered for reuse, nor uncount the edge a live proxy beside it
// counts, and the mint must still hand out a live proxy: the id rule behind
// enlist holds even where the lock keeps every collection out.
func TestSweepBeforeEnlist(t *testing.T) {
	f := newFixture(t, 0)
	ids, _ := f.buildList(t, 20, 10, 8)
	if err := f.rt.SetRoot("beside", heap.Ref(ids[12])); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	sweptProxy := false
	onSweep(f.rt, func(o *heap.Object) {
		sweptProxy = sweptProxy || (isProxy(o) && proxyUltimate(o) == ids[15])
	})
	f.rt.yield = func(at string) {
		if at == "mint" {
			once.Do(func() {
				done := make(chan heap.CollectStats)
				go func() { done <- f.rt.pass(false) }()
				<-done
			})
		}
	}
	err := f.rt.SetRoot("minted", heap.Ref(ids[15]))
	f.rt.yield = nil
	if err != nil {
		t.Fatal(err)
	}
	if !sweptProxy {
		t.Fatal("the collection did not sweep the proxy being minted")
	}
	checkClean(t, f.rt)
	minted, _ := f.rt.Root("minted")
	wantTag(t, f, minted, 15)
}

// TestReissueBeforeEnlist is TestSweepBeforeEnlist with the block reused: the
// mint's yield runs one collection on another goroutine, under the mint's
// hold as there, which sweeps the fresh proxy and gives its block to the
// heap's pool before it returns, and then mints on that
// goroutine until the block is reissued as another proxy. The first minter
// still holds the block when it enlists: it must be refused, list nothing
// and mint again, so each proxy is listed once and the first mint still
// hands out a live proxy to its target.
func TestReissueBeforeEnlist(t *testing.T) {
	f := newFixture(t, 0)
	ids, _ := f.buildList(t, 20, 10, 8)
	var block *heap.Object
	var other heap.ObjID
	f.rt.yield = func(at string) {
		if at != "mint" {
			return
		}
		// One turn: the mints below yield too.
		f.rt.yield = nil
		done := make(chan struct{})
		go func() {
			defer close(done)
			resident := f.rt.h.IDs()
			block, _ = f.rt.h.Get(resident[len(resident)-1])
			if !isProxy(block) || proxyUltimate(block) != ids[15] {
				t.Errorf("the newest object %v is not the proxy being minted", block)
				return
			}
			f.rt.pass(false)
			for i := 0; i < 100 && other == heap.NilID; i++ {
				pid, err := f.rt.newProxy(RootCluster, ids[16], f.rt.mgr.clusterOf(ids[16]), false)
				if err != nil {
					t.Error(err)
					return
				}
				if p, _ := f.rt.h.Get(pid); p == block {
					other = pid
				}
			}
		}()
		<-done
	}
	err := f.rt.SetRoot("minted", heap.Ref(ids[15]))
	f.rt.yield = nil
	if err != nil {
		t.Fatal(err)
	}
	if other == heap.NilID {
		t.Fatal("the swept proxy's block was not reissued")
	}
	if proxyUltimate(block) != ids[16] {
		t.Fatalf("the reissued block is a proxy to @%d, want @%d", proxyUltimate(block), ids[16])
	}
	listed := 0
	for _, c := range f.rt.mgr.Clusters() {
		for _, p := range f.rt.mgr.inboundProxies(c, nil) {
			if p == block {
				listed++
			}
		}
	}
	if listed != 1 {
		t.Fatalf("the reissued block is listed %d times, want once", listed)
	}
	checkClean(t, f.rt)
	minted, _ := f.rt.Root("minted")
	if minted.MustRef() == other {
		t.Fatal("the first mint handed out the block another mint was reissued")
	}
	wantTag(t, f, minted, 15)
	wantTag(t, f, heap.Ref(other), 16)
}

// TestSweepAtMintPurgesTheListedProxy: a mint lists its proxy before its
// "mint" yield point, so a collection run there — on another goroutine, under
// the mint's hold — sweeps a fully listed proxy, and its purge leaves it in
// no shared-index entry, no inbound list and no edge count. The mint, finding
// its block gone, mints again, and the re-mint is listed exactly once: one
// inbound entry, one index entry, an edge count of one.
func TestSweepAtMintPurgesTheListedProxy(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 20, 10, 8)
	home := clusters[1]
	key := proxyKey{src: RootCluster, target: ids[15]}
	tab := &f.rt.mgr.table
	// listings counts, under the hold, the inbound entries, shared-index
	// entries and edge count that stand for proxy id.
	listings := func(id heap.ObjID) (inbound, indexed int, edges int32) {
		for cs := range tab.clusters.all {
			for _, p := range cs.inbound {
				if p.ID() == id {
					inbound++
				}
			}
		}
		for _, pid := range tab.proxies.all {
			if pid == id {
				indexed++
			}
		}
		for _, e := range tab.clusters.get(RootCluster).edges {
			if e.to == home {
				edges = e.n
			}
		}
		return inbound, indexed, edges
	}
	var swept heap.ObjID
	var once sync.Once
	f.rt.yield = func(at string) {
		if at != "mint" {
			return
		}
		once.Do(func() {
			resident := f.rt.h.IDs()
			swept = resident[len(resident)-1]
			if in, ix, e := listings(swept); in != 1 || ix != 1 || e != 1 {
				t.Errorf("at the yield point @%d is listed %d times, indexed %d times and counted %d times, want once each", swept, in, ix, e)
			}
			done := make(chan struct{})
			go func() { defer close(done); f.rt.pass(false) }()
			<-done
			if f.rt.h.Contains(swept) {
				t.Fatalf("the collection at the yield point did not sweep the fresh proxy @%d", swept)
			}
			if pid, ok := tab.proxies.get(key); ok && pid == swept {
				t.Errorf("the swept proxy @%d is still the shared entry of its key", swept)
			}
			if in, ix, e := listings(swept); in != 0 || ix != 0 || e != 0 {
				t.Errorf("after the purge the swept proxy @%d is listed %d times, indexed %d times, and the edge counts %d", swept, in, ix, e)
			}
		})
	}
	err := f.rt.SetRoot("minted", heap.Ref(ids[15]))
	f.rt.yield = nil
	if err != nil {
		t.Fatal(err)
	}
	root, _ := f.rt.Root("minted")
	minted := root.MustRef()
	if swept == heap.NilID || minted == swept {
		t.Fatalf("the mint handed out @%d, the proxy swept at its yield point was @%d", minted, swept)
	}
	f.rt.lock()
	in, ix, e := listings(minted)
	pid, _ := tab.proxies.get(key)
	f.rt.unlock()
	if in != 1 || ix != 1 || e != 1 || pid != minted {
		t.Errorf("the re-mint @%d is listed %d times, indexed %d times (key entry @%d), counted %d times, want once each", minted, in, ix, pid, e)
	}
	checkClean(t, f.rt)
	wantTag(t, f, heap.Ref(minted), 15)
}

// TestReissuedProxyBlockRefused: a holder of a swept proxy's block and its
// old id, once one collection and a mint have reissued the block as another
// proxy, writes nothing through either listing hold — enlist is refused and
// retarget fails — so the proxy the block has become keeps its slots, its
// listing and its edge.
func TestReissuedProxyBlockRefused(t *testing.T) {
	f := newFixture(t, 0)
	ids, _ := f.buildList(t, 20, 10, 8)
	stale, err := f.rt.lockedNewProxy(RootCluster, ids[15], true)
	if err != nil {
		t.Fatal(err)
	}
	var block *heap.Object
	inHold(f.rt, func(h *heap.Heap) { block, err = h.Get(stale) })
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	var reissued heap.ObjID
	for i := 0; i < 100 && reissued == heap.NilID; i++ {
		pid, err := f.rt.lockedNewProxy(RootCluster, ids[5], true)
		if err != nil {
			t.Fatal(err)
		}
		inHold(f.rt, func(h *heap.Heap) {
			if p, _ := h.Get(pid); p == block {
				reissued = pid
			}
		})
	}
	if reissued == heap.NilID {
		t.Fatal("the swept proxy's block was not reissued")
	}
	if reissued == stale {
		t.Fatalf("the block was reissued under its old id @%d", stale)
	}
	slots := func() []heap.Value {
		out := make([]heap.Value, block.NumFields())
		for i := range out {
			out[i] = block.Field(i)
		}
		return out
	}
	before, proxies := slots(), f.rt.mgr.ProxyCount()
	f.rt.lock()
	listed := f.rt.mgr.enlist(block, stale, RootCluster, ids[15], f.rt.mgr.clusterOf(ids[15]))
	_, err = f.rt.mgr.retarget(block, stale, ids[17], f.rt.mgr.clusterOf(ids[17]))
	f.rt.unlock()
	if listed {
		t.Error("enlist under the stale id listed the reissued block")
	}
	if !errors.Is(err, heap.ErrNoSuchObject) {
		t.Errorf("retarget under the stale id: %v, want heap.ErrNoSuchObject", err)
	}
	for i, v := range slots() {
		if !v.Equal(before[i]) {
			t.Errorf("slot %d of the reissued proxy changed from %v to %v", i, before[i], v)
		}
	}
	if got := f.rt.mgr.ProxyCount(); got != proxies {
		t.Errorf("ProxyCount = %d, want %d", got, proxies)
	}
	checkClean(t, f.rt)
}

// TestReloadRoomTakenDuringEviction reloads a cluster into a heap with room
// for one more cluster once one is evicted. The reload's evictor lets go of
// the runtime lock, and in that window another install — a prefetch
// worker's, in production — takes the room the eviction made: the yield
// hook, at the victim's commit, starts a second goroutine's swap-in, which
// the evictor waits for before it returns. The reload then finds its room
// gone, evicts again, and installs.
func TestReloadRoomTakenDuringEviction(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 30, 10, 128)
	a, victim, other := clusters[0], clusters[1], clusters[2]
	info, err := f.rt.Manager().Info(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []ClusterID{a, other} {
		if _, err := f.rt.SwapOut(c); err != nil {
			t.Fatal(err)
		}
	}
	f.rt.Collect()
	// Room for the reload only once a cluster is evicted, and then for one.
	f.rt.h.SetCapacity(f.rt.h.Used() + 512 + info.ResidentBytes/2)
	// The hook, the evictor and the reload share the test's goroutine.
	var competed chan error
	waited := false
	f.rt.yield = func(at string) {
		if at == "commit" {
			f.rt.yield = nil
			competed = make(chan error, 1)
			go func() {
				_, err := f.rt.SwapIn(other)
				competed <- err
			}()
		}
	}
	f.rt.SetEvictor(func(need int64) error {
		err := f.rt.EvictWith(VictimColdest, need)
		if competed != nil && !waited {
			waited = true
			if cerr := <-competed; cerr != nil {
				t.Errorf("the competing install: %v", cerr)
			}
		}
		return err
	})
	wantTag(t, f, f.head(t), 0)
	if competed == nil {
		t.Fatal("the reload evicted nothing")
	}
	for c, want := range map[ClusterID]bool{a: false, victim: true, other: true} {
		if got := f.rt.Manager().IsSwapped(c); got != want {
			t.Errorf("cluster %d swapped out: %v, want %v", c, got, want)
		}
	}
	checkClean(t, f.rt)
}

// TestMintWhoseEvictorMovesHome: a proxy is born aimed, from the record of its
// target's cluster read before the allocation. When that allocation runs out
// of room and its evictor, with the lock let go, swaps the target's cluster
// out, the proxy aimed at the member is removed and minted again, aimed at the
// replacement-object: the invariants hold, the hop faults the cluster back
// in, and the block the first try took is the one the second reissues.
func TestMintWhoseEvictorMovesHome(t *testing.T) {
	f := newFixture(t, 0)
	ids, clusters := f.buildList(t, 20, 10, 8)
	via, err := f.rt.lockedProxyFor(RootCluster, ids[9])
	if err == nil {
		err = f.rt.SetRoot("via", heap.Ref(via))
	}
	if err != nil {
		t.Fatal(err)
	}
	f.rt.Collect()
	evictions := 0
	f.rt.SetEvictor(func(int64) error {
		evictions++
		f.rt.h.SetCapacity(0)
		_, err := f.rt.SwapOut(clusters[1])
		return err
	})
	f.rt.h.SetCapacity(f.rt.h.Used()) // the mint's allocation finds no room
	next, err := f.rt.Field(heap.Ref(via), "next")
	if err != nil {
		t.Fatal(err)
	}
	if evictions != 1 {
		t.Fatalf("the mint ran the evictor %d times, want once", evictions)
	}
	if !f.rt.Manager().IsSwapped(clusters[1]) {
		t.Fatal("the evictor did not swap the target's cluster out")
	}
	checkClean(t, f.rt)
	wantTag(t, f, next, 10)
	checkClean(t, f.rt)
}
