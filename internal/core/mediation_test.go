package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/store"
	"objectswap/internal/telemetry"
)

// medFixture is a three-cluster list (30 nodes, 10 per cluster, root "head" a
// proxy onto node 0) on a runtime whose swap-ins are recorded by cause.
type medFixture struct {
	*fixture
	ids      []heap.ObjID
	clusters []ClusterID
	reloads  []string // Cause of every swap-in, in order
}

func newMedFixture(t *testing.T) *medFixture {
	t.Helper()
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	if err := devices.Add("pda-neighbor", mem); err != nil {
		t.Fatal(err)
	}
	bus := event.NewBus()
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices), WithBus(bus))
	m := &medFixture{fixture: &fixture{rt: rt, reg: devices, mem: mem, node: newNodeClass()}}
	rt.MustRegisterClass(m.node)
	bus.Subscribe(event.TopicSwapIn, func(ev event.Event) {
		m.reloads = append(m.reloads, ev.Payload.(SwapEvent).Cause)
	})
	m.ids, m.clusters = m.buildList(t, 30, 10, 8)
	return m
}

// swapOut detaches cluster i and collects, so its members are really gone.
func (m *medFixture) swapOut(t *testing.T, i int) {
	t.Helper()
	if _, err := m.rt.SwapOut(m.clusters[i]); err != nil {
		t.Fatal(err)
	}
	m.rt.Collect()
}

type failingHandler struct{ err error }

func (h failingHandler) HandleFault(*Runtime, heap.ObjID) (heap.Value, error) {
	return heap.Nil(), h.err
}

type resolvingHandler struct{ to heap.Value }

func (h resolvingHandler) HandleFault(*Runtime, heap.ObjID) (heap.Value, error) {
	return h.to, nil
}

var errHome = errors.New("home node unreachable")

// TestMediationTable pins Section 4's reference mediation at its one site:
// every kind of reference × Invoke, Field and SetFieldValue — the value or the
// exact sentinel, what the crossing recorded, what it faulted in and why, how
// many proxies it left, and that the frame was unwound.
func TestMediationTable(t *testing.T) {
	// member is the method/field operated on ("tag" unless a row says
	// otherwise); reading it yields the int in want, writing it stores 99.
	type row struct {
		name   string
		setup  func(t *testing.T, m *medFixture) heap.Value
		member string
		// err is the sentinel all three operations report (nil: they succeed);
		// errIs, when set, overrides it per operation. text must appear in the
		// message (for failures that have no sentinel of their own). A failure
		// reads the same whichever operation met the reference — they share
		// one resolver — unless opNamed: the message names the operation.
		err     error
		errIs   map[string]error
		text    string
		opNamed bool
		// want is the tag read; at is the index of the node operated on.
		want, at int
		// crossed is the index of the cluster whose Crossings grows by one
		// (-1: no boundary is crossed); reloads the swap-ins, all CauseReload.
		crossed int
		reloads int
	}
	objFault := func(t *testing.T, m *medFixture) heap.Value {
		pid, err := m.rt.ObjProxyFor(777, "Node")
		if err != nil {
			t.Fatal(err)
		}
		return heap.Ref(pid)
	}
	rows := []row{
		{name: "nil", crossed: -1, err: heap.ErrNilTarget, opNamed: true,
			setup: func(*testing.T, *medFixture) heap.Value { return heap.Nil() }},
		{name: "non-reference value", crossed: -1, err: heap.ErrBadKind,
			setup: func(*testing.T, *medFixture) heap.Value { return heap.Int(7) }},
		{name: "dangling", crossed: -1, err: heap.ErrNoSuchObject,
			setup: func(*testing.T, *medFixture) heap.Value { return heap.Ref(999999) }},
		{name: "same-cluster direct", crossed: -1, want: 3, at: 3,
			setup: func(_ *testing.T, m *medFixture) heap.Value { return heap.Ref(m.ids[3]) }},
		{name: "same-cluster direct, no such member", crossed: -1, member: "nope", opNamed: true,
			errIs: map[string]error{"Invoke": heap.ErrNoSuchMethod, "Field": heap.ErrNoSuchField, "SetFieldValue": heap.ErrNoSuchField},
			setup: func(_ *testing.T, m *medFixture) heap.Value { return heap.Ref(m.ids[3]) }},
		{name: "held direct ref to a swapped member", crossed: -1, reloads: 1, want: 12, at: 12,
			setup: func(t *testing.T, m *medFixture) heap.Value {
				m.swapOut(t, 1)
				return heap.Ref(m.ids[12])
			}},
		{name: "proxy to a resident cluster", crossed: 0, want: 0, at: 0,
			setup: func(t *testing.T, m *medFixture) heap.Value { return m.head(t) }},
		{name: "proxy to a resident cluster, no such member", crossed: 0, member: "nope", opNamed: true,
			errIs: map[string]error{"Invoke": heap.ErrNoSuchMethod, "Field": heap.ErrNoSuchField, "SetFieldValue": heap.ErrNoSuchField},
			setup: func(t *testing.T, m *medFixture) heap.Value { return m.head(t) }},
		{name: "proxy to a swapped cluster", crossed: 0, reloads: 1, want: 0, at: 0,
			setup: func(t *testing.T, m *medFixture) heap.Value {
				m.swapOut(t, 0)
				return m.head(t)
			}},
		{name: "assign-mode cursor", crossed: 1, want: 10, at: 10,
			setup: func(t *testing.T, m *medFixture) heap.Value {
				cur, err := m.rt.AssignedCursor(heap.Ref(m.ids[10]))
				if err != nil {
					t.Fatal(err)
				}
				return cur
			}},
		{name: "object-fault proxy, no handler", crossed: -1, text: "without fault handler", setup: objFault},
		{name: "object-fault proxy, handler fails", crossed: -1, err: errHome, text: "core: object fault: ",
			setup: func(t *testing.T, m *medFixture) heap.Value {
				m.rt.SetFaultHandler(failingHandler{errHome})
				return objFault(t, m)
			}},
		{name: "object-fault proxy, handler resolves to nil", crossed: -1, err: heap.ErrNilTarget,
			setup: func(t *testing.T, m *medFixture) heap.Value {
				m.rt.SetFaultHandler(resolvingHandler{heap.Nil()})
				return objFault(t, m)
			}},
		{name: "object-fault proxy, handler resolves to a direct ref", crossed: -1, want: 4, at: 4,
			setup: func(t *testing.T, m *medFixture) heap.Value {
				m.rt.SetFaultHandler(resolvingHandler{heap.Ref(m.ids[4])})
				return objFault(t, m)
			}},
		{name: "object-fault proxy, handler resolves to a proxy", crossed: 0, want: 0, at: 0,
			setup: func(t *testing.T, m *medFixture) heap.Value {
				m.rt.SetFaultHandler(resolvingHandler{m.head(t)})
				return objFault(t, m)
			}},
		{name: "replacement-object", crossed: -1, err: errCorrupt,
			setup: func(t *testing.T, m *medFixture) heap.Value {
				m.swapOut(t, 1)
				was, _ := m.rt.mgr.shipmentOf(m.clusters[1])
				return heap.Ref(was.replacement)
			}},
	}
	ops := []struct {
		name string
		run  func(rt *Runtime, ref heap.Value, member string) (heap.Value, error)
	}{
		{"Invoke", func(rt *Runtime, ref heap.Value, member string) (heap.Value, error) {
			res, err := rt.Invoke(ref, member)
			if err != nil || len(res) != 1 {
				return heap.Nil(), err
			}
			return res[0], nil
		}},
		{"Field", (*Runtime).Field},
		{"SetFieldValue", func(rt *Runtime, ref heap.Value, member string) (heap.Value, error) {
			return heap.Int(99), rt.SetFieldValue(ref, member, heap.Int(99))
		}},
	}
	for _, r := range rows {
		texts := make(map[string]string) // failure text by operation
		for _, op := range ops {
			t.Run(r.name+"/"+op.name, func(t *testing.T) {
				m := newMedFixture(t)
				rt := m.rt
				ref := r.setup(t, m)
				member := r.member
				if member == "" {
					member = "tag"
				}
				crossings := func() (n uint64) {
					if r.crossed >= 0 {
						info, _ := rt.mgr.Info(m.clusters[r.crossed])
						n = info.Crossings
					}
					return n
				}
				proxies, crossed := rt.mgr.ProxyCount(), crossings()
				m.reloads = nil

				got, err := op.run(rt, ref, member)

				want := r.err
				if r.errIs != nil {
					want = r.errIs[op.name]
				}
				if want != nil || r.text != "" {
					if err == nil {
						t.Fatalf("succeeded with %v, want failure (%v %q)", got, want, r.text)
					}
					if want != nil && !errors.Is(err, want) || !strings.Contains(err.Error(), r.text) {
						t.Fatalf("err = %v, want %v containing %q", err, want, r.text)
					}
					texts[op.name] = err.Error()
				} else {
					if err != nil {
						t.Fatal(err)
					}
					var o *heap.Object
					var gerr error
					inHold(rt, func(h *heap.Heap) { o, gerr = h.Get(m.ids[r.at]) })
					if gerr != nil {
						t.Fatalf("node %d not resident afterwards: %v", r.at, gerr)
					}
					wantTag := int64(r.want)
					if op.name == "SetFieldValue" {
						wantTag = 99
					}
					if stored, _ := o.FieldByName("tag"); got.MustInt() != wantTag || stored.MustInt() != wantTag {
						t.Fatalf("read %v, node holds %v, want %d", got, stored, wantTag)
					}
				}

				wantCrossed := crossed
				if r.crossed >= 0 {
					wantCrossed++
				}
				if now := crossings(); now != wantCrossed {
					t.Errorf("crossings %d -> %d, want %d", crossed, now, wantCrossed)
				}
				if len(m.reloads) != r.reloads {
					t.Errorf("swap-ins = %v, want %d", m.reloads, r.reloads)
				}
				for _, cause := range m.reloads {
					if cause != CauseReload {
						t.Errorf("swap-in cause %q, want %q", cause, CauseReload)
					}
				}
				if now := rt.mgr.ProxyCount(); now != proxies {
					t.Errorf("proxy count %d -> %d: tag traffic mints none", proxies, now)
				}
				if rt.depth != 0 || len(rt.stack) != 0 {
					t.Errorf("frame not unwound: depth %d, stack %v", rt.depth, rt.stack)
				}
				checkClean(t, rt)
			})
		}
		if !r.opNamed && (texts["Field"] != texts["Invoke"] || texts["SetFieldValue"] != texts["Invoke"]) {
			t.Errorf("%s: failure text differs by operation: %q", r.name, texts)
		}
	}
}

// TestCursorAdvancesOntoResult is the table's reference-returning column: an
// assign-mode cursor read through Invoke and Field re-aims itself at what the
// member returns instead of minting a proxy, crossing into the cluster it
// was on.
func TestCursorAdvancesOntoResult(t *testing.T) {
	for _, op := range []string{"Invoke", "Field"} {
		t.Run(op, func(t *testing.T) {
			m := newMedFixture(t)
			rt := m.rt
			cur, err := rt.AssignedCursor(heap.Ref(m.ids[9])) // last node of cluster 0
			if err != nil {
				t.Fatal(err)
			}
			proxies := rt.mgr.ProxyCount()
			before, _ := rt.mgr.Info(m.clusters[0])
			var next heap.Value
			if op == "Field" {
				next, err = rt.Field(cur, "next")
			} else {
				var res []heap.Value
				if res, err = rt.Invoke(cur, "next"); err == nil {
					next = res[0]
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if next.MustRef() != cur.MustRef() {
				t.Fatalf("cursor returned @%d, want itself @%d", next.MustRef(), cur.MustRef())
			}
			if eq, _ := rt.RefEqual(next, heap.Ref(m.ids[10])); !eq {
				t.Fatal("cursor did not advance onto node 10")
			}
			after, _ := rt.mgr.Info(m.clusters[0])
			if after.Crossings != before.Crossings+1 || rt.mgr.ProxyCount() != proxies || len(m.reloads) != 0 {
				t.Fatalf("crossings %d -> %d, proxies %d -> %d, swap-ins %v; want +1, +0, none",
					before.Crossings, after.Crossings, proxies, rt.mgr.ProxyCount(), m.reloads)
			}
			if rt.depth != 0 || len(rt.stack) != 0 {
				t.Errorf("frame not unwound: depth %d, stack %v", rt.depth, rt.stack)
			}
			checkClean(t, rt)
		})
	}
}

// inboundIndexes lists the clusters whose inbound list holds proxy pid, once
// per listing.
func inboundIndexes(m *Manager, pid heap.ObjID) (in []ClusterID) {
	m.rt.lock()
	defer m.rt.unlock()
	for cs := range m.table.clusters.all {
		for _, p := range cs.inbound {
			if p.ID() == pid {
				in = append(in, cs.id)
			}
		}
	}
	return in
}

// TestProxyRecordFollowsRetarget is the registry case: a cursor retargeted
// across clusters is listed in exactly one inbound list — its new target's —
// with its own fields naming the new target, stays there when its old
// target's membership record is collected, and is gone from every list once
// the collection that sweeps it has returned.
func TestProxyRecordFollowsRetarget(t *testing.T) {
	m := newMedFixture(t)
	rt, mgr := m.rt, m.rt.mgr
	cur, err := rt.AssignedCursor(m.head(t))
	if err != nil {
		t.Fatal(err)
	}
	pid := cur.MustRef()
	if err := rt.SetRoot("cursor", cur); err != nil {
		t.Fatal(err)
	}
	if in := inboundIndexes(mgr, pid); len(in) != 1 || in[0] != m.clusters[0] {
		t.Fatalf("fresh cursor indexed under %v, want [%d]", in, m.clusters[0])
	}
	for i := 0; i < 10; i++ { // node 0 -> node 10: out of cluster 0, into cluster 1
		if cur, err = rt.Field(cur, "next"); err != nil {
			t.Fatal(err)
		}
	}
	if in := inboundIndexes(mgr, pid); cur.MustRef() != pid || len(in) != 1 || in[0] != m.clusters[1] {
		t.Fatalf("retargeted cursor @%d (was @%d) indexed under %v, want [%d]", cur.MustRef(), pid, in, m.clusters[1])
	}
	var p *heap.Object
	inHold(rt, func(h *heap.Heap) { p, err = h.Get(pid) })
	if err != nil || proxyMode(p) != proxyModeAssign || proxySrc(p) != RootCluster || proxyUltimate(p) != m.ids[10] {
		t.Fatalf("cursor @%d: %v; want an assign-mode proxy from cluster 0 to @%d", pid, err, m.ids[10])
	}
	if shared, ok := mgr.table.proxies.get(proxyKey{RootCluster, m.ids[10]}); ok && shared == pid {
		t.Fatal("private cursor entered the shared registry")
	}
	checkClean(t, rt)

	// Cluster 0 becomes garbage: the records of the cursor's old targets die
	// while the cursor lives on.
	inHold(rt, func(h *heap.Heap) { h.SetRoot("head", heap.Nil()) })
	for i := 0; i < 4; i++ {
		rt.Collect()
	}
	if mgr.table.listing(m.ids[0]) != nil {
		t.Fatal("old target's record survived the collection")
	}
	if in := inboundIndexes(mgr, pid); len(in) != 1 || in[0] != m.clusters[1] {
		t.Fatalf("after old target died: indexed under %v, want [%d]", in, m.clusters[1])
	}
	checkClean(t, rt)

	inHold(rt, func(h *heap.Heap) { h.SetRoot("cursor", heap.Nil()) })
	letGo(rt)
	for i := 0; i < 4; i++ {
		rt.Collect()
	}
	if in := inboundIndexes(mgr, pid); len(in) != 0 || rt.lockedContains(pid) {
		t.Fatalf("swept cursor left behind: listed by %v, resident=%v", in, rt.lockedContains(pid))
	}
	checkClean(t, rt)
}

// TestAssignWithdrawsSharedProxy: a shared proxy put in assign mode leaves
// the reuse index at once, before its first re-aim — proxyFor then mints a
// fresh proxy for the key instead of handing out one that is about to patch
// itself away — and re-aiming it later claims no slot either.
func TestAssignWithdrawsSharedProxy(t *testing.T) {
	m := newMedFixture(t)
	rt, mgr := m.rt, m.rt.mgr
	key := proxyKey{RootCluster, m.ids[9]}
	shared, err := rt.lockedProxyFor(key.src, key.target)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRoot("walker", heap.Ref(shared)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Assign(heap.Ref(shared)); err != nil {
		t.Fatal(err)
	}
	if pid, ok := mgr.table.proxies.get(key); ok {
		t.Fatalf("assign-mode proxy @%d still offered for (%d,@%d)", pid, key.src, key.target)
	}
	fresh, err := rt.lockedProxyFor(key.src, key.target)
	if err != nil || fresh == shared {
		t.Fatalf("proxyFor after Assign = @%d, %v; want a proxy other than @%d", fresh, err, shared)
	}
	if err := rt.SetRoot("other", heap.Ref(fresh)); err != nil {
		t.Fatal(err)
	}
	out, err := rt.Invoke(heap.Ref(shared), "next") // node 9 -> node 10: into cluster 1
	if err != nil || out[0].MustRef() != shared {
		t.Fatalf("assign-mode step = %v, %v; want the proxy itself", out, err)
	}
	if pid, ok := mgr.table.proxies.get(proxyKey{RootCluster, m.ids[10]}); ok && pid == shared {
		t.Fatal("a re-aimed proxy claimed the slot of its new key")
	}
	checkClean(t, rt)
}

// countingClock is a real clock that counts its readings (Now).
type countingClock struct{ now, since atomic.Int64 }

func (c *countingClock) Now() time.Time { c.now.Add(1); return time.Now() }

// countingStopwatch is a counting clock that also offers a monotonic reading
// (Since), which nothing may ask for on the access path either.
type countingStopwatch struct{ countingClock }

func (c *countingStopwatch) Since(t time.Time) time.Duration { c.since.Add(1); return time.Since(t) }

// TestCrossingReadsNoClockOnAStopwatch: with a tracker attached, every access
// is dated with the recency clock's tick — a crossing and an allocation with
// the tick they take, an in-place touch with the tick as it stands — and the
// ledgers of heat, the working set and recency gain them all, so 100
// crossings through a root proxy, 100 in-place reads and 100 allocations read
// the registry's clock not once, whether it is a plain clock or a stopwatch
// that could also serve monotonic readings.
func TestCrossingReadsNoClockOnAStopwatch(t *testing.T) {
	const n = 100
	stopwatch, plain := new(countingStopwatch), new(countingClock)
	for _, tc := range []struct {
		name    string
		clock   obs.Clock
		counted *countingClock
	}{
		{"stopwatch", stopwatch, &stopwatch.countingClock},
		{"clock", plain, plain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry(tc.clock)
			f := newFixture(t, 0, WithObs(reg), WithTelemetry(telemetry.New(reg)))
			ids, clusters := f.buildList(t, 20, 10, 8)
			head, direct := f.head(t), heap.Ref(ids[0])
			if _, err := f.rt.Field(head, "tag"); err != nil { // warm
				t.Fatal(err)
			}
			ledger := func() (crossings, touches, recency uint64) {
				t.Helper()
				info, err := f.rt.mgr.Info(clusters[0])
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range f.rt.telem.HeatSnapshot() {
					if h.Cluster == uint32(clusters[0]) {
						return info.Crossings, h.Touches, info.LastAccess
					}
				}
				t.Fatalf("cluster %d untracked", clusters[0])
				return
			}
			crossings0, touches0, _ := ledger()
			now0, since0 := tc.counted.now.Load(), tc.counted.since.Load()
			for i := 0; i < n; i++ {
				if _, err := f.rt.Field(head, "tag"); err != nil {
					t.Fatal(err)
				}
				if _, err := f.rt.Field(direct, "tag"); err != nil {
					t.Fatal(err)
				}
				if _, err := f.rt.NewObject(f.node, clusters[0]); err != nil {
					t.Fatal(err)
				}
			}
			now, since := tc.counted.now.Load()-now0, tc.counted.since.Load()-since0
			crossings, touches, recency := ledger()
			if crossings-crossings0 != n || touches-touches0 < 3*n {
				t.Fatalf("%d rounds crossed %d times and touched %d times, want %d and at least %d",
					n, crossings-crossings0, touches-touches0, n, 3*n)
			}
			f.rt.lock()
			tick := f.rt.mgr.clock
			f.rt.unlock()
			if recency != tick {
				t.Fatalf("recency %d after an allocation, want the clock's tick %d", recency, tick)
			}
			if now != 0 || since != 0 {
				t.Fatalf("%d crossings, in-place reads and allocations read the clock: %d Now, %d Since; want none",
					n, now, since)
			}
		})
	}
}
