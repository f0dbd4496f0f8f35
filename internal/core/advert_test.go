package core

import (
	"context"
	"testing"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/store"
	"objectswap/internal/wire"
)

// advertFixture is a runtime over the given donors, in registration order,
// with a 30-node list of three clusters built.
func advertFixture(t *testing.T, donors map[string]store.Store, names ...string) (*fixture, []ClusterID) {
	t.Helper()
	devices := store.NewRegistry(store.SelectMostFree)
	for _, name := range names {
		if err := devices.Add(name, donors[name]); err != nil {
			t.Fatal(err)
		}
	}
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices), WithName("adv"))
	f := &fixture{rt: rt, reg: devices, node: newNodeClass()}
	rt.MustRegisterClass(f.node)
	_, clusters := f.buildList(t, 30, 10, 64)
	return f, clusters
}

// TestDirtySwapOutIsOneLinkOp: over the paper's Bluetooth link, a dirty
// swap-out makes one round trip, its Put, once the donor's advertisement is
// kept: from the second swap-out on, each adds exactly one operation to the
// link and exactly one transfer of its payload (30 ms plus the payload's bits
// at 700 Kbps) to the link's delay. The first swap-out also probes the donor.
func TestDirtySwapOutIsOneLinkOp(t *testing.T) {
	lnk := link.Wrap(store.NewMem(0), link.Bluetooth1(), &link.VirtualClock{})
	f, clusters := advertFixture(t, map[string]store.Store{"neighbor": lnk}, "neighbor")
	p := lnk.Profile()
	for i, id := range clusters {
		before := lnk.TrafficStats()
		ev, err := f.rt.SwapOut(id)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Clean || ev.Bytes == 0 {
			t.Fatalf("swap-out %d shipped nothing: %+v", i, ev)
		}
		if i == 0 {
			continue
		}
		after := lnk.TrafficStats()
		put := p.Latency + time.Duration(int64(ev.Bytes)*8*int64(time.Second)/p.BitsPerSecond)
		if ops, delay := after.Ops-before.Ops, after.Delay-before.Delay; ops != 1 || delay != put {
			t.Fatalf("swap-out %d of %d B made %d link ops taking %v, want 1 taking %v", i, ev.Bytes, ops, delay, put)
		}
	}
}

// TestFormatRefusalReprobes: a donor that narrows its formats after its
// advertisement was kept refuses the next shipment (415); the same SwapOut
// drops the advertisement, probes the donor once, negotiates XML and lands.
func TestFormatRefusalReprobes(t *testing.T) {
	mem := store.NewMem(0)
	donor := store.NewFlaky(mem, 1)
	f, clusters := advertFixture(t, map[string]store.Store{"d": donor}, "d")
	if ev, err := f.rt.SwapOut(clusters[0]); err != nil || ev.Format != string(wire.FormatBinary) {
		t.Fatalf("first swap-out: %+v, %v", ev, err)
	}
	if n := donor.Calls(store.OpStats); n != 1 {
		t.Fatalf("first ranking probed %d times, want 1", n)
	}
	mem.SetFormats(string(wire.FormatXML))
	ev, err := f.rt.SwapOut(clusters[1])
	if err != nil {
		t.Fatalf("swap-out after the donor narrowed its formats: %v", err)
	}
	if ev.Format != string(wire.FormatXML) || donor.Calls(store.OpStats) != 2 || donor.Calls(store.OpPut) != 3 {
		t.Fatalf("format %q after %d probes and %d puts, want xml after 2 and 3",
			ev.Format, donor.Calls(store.OpStats), donor.Calls(store.OpPut))
	}
	if ev, err := f.rt.SwapOut(clusters[2]); err != nil || ev.Format != string(wire.FormatXML) || donor.Calls(store.OpStats) != 2 {
		t.Fatalf("next swap-out: %+v, %v after %d probes, want xml and no probe", ev, err, donor.Calls(store.OpStats))
	}
}

// TestCapacityRefusalReprobes: a capped donor filled behind the planner's
// back still has room by its kept advertisement, so it is ranked first and
// refuses the payload. The same fail-fast swap-out drops the advertisement,
// probes that donor once more, finds it full and lands on the next donor.
func TestCapacityRefusalReprobes(t *testing.T) {
	capped := store.NewMem(1 << 20)
	a, b := store.NewFlaky(capped, 1), store.NewFlaky(store.NewMem(1<<13), 1)
	f, clusters := advertFixture(t, map[string]store.Store{"a": a, "b": b}, "a", "b")
	if ev, err := f.rt.SwapOut(clusters[0]); err != nil || ev.Device != "a" {
		t.Fatalf("first swap-out: %+v, %v (the donor with 128 times the room should win)", ev, err)
	}
	st, err := capped.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := capped.Put(context.Background(), "filler", make([]byte, st.Free()-64)); err != nil {
		t.Fatal(err)
	}
	aStats, bStats, aPuts := a.Calls(store.OpStats), b.Calls(store.OpStats), a.Calls(store.OpPut)
	ev, err := f.rt.SwapOut(clusters[1], WithNoFailover())
	if err != nil {
		t.Fatalf("swap-out to a donor full behind its advertisement: %v", err)
	}
	if ev.Device != "b" || a.Calls(store.OpPut) != aPuts+1 {
		t.Fatalf("landed on %q after %d puts to a, want b after a's one refusal", ev.Device, a.Calls(store.OpPut)-aPuts)
	}
	if da, db := a.Calls(store.OpStats)-aStats, b.Calls(store.OpStats)-bStats; da != 1 || db != 0 {
		t.Fatalf("the refused swap-out probed a %d and b %d times, want 1 and 0", da, db)
	}
}

// TestShortfallReprobes: a capped donor whose kept advertisement, less what
// was shipped there since, cannot vouch for a payload is skipped and its
// advertisement dropped. Here the donor has room again once a resident
// cluster's retained copy is shed, which the kept advertisement cannot see:
// the same swap-out sheds the copy, probes the donor once more and lands.
func TestShortfallReprobes(t *testing.T) {
	mem := store.NewMem(2500) // room for two of these clusters' frames, not three
	donor := store.NewFlaky(mem, 1)
	f, clusters := advertFixture(t, map[string]store.Store{"d": donor}, "d")
	for _, id := range clusters[:2] {
		if _, err := f.rt.SwapOut(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil { // its copy stays on the donor
		t.Fatal(err)
	}
	ev, err := f.rt.SwapOut(clusters[2])
	if err != nil {
		t.Fatalf("swap-out past the kept advertisement's room: %v", err)
	}
	if n := donor.Calls(store.OpStats); ev.Device != "d" || n != 2 {
		t.Fatalf("landed on %q after %d probes, want d after 2", ev.Device, n)
	}
}

// TestReattachedDonorIsProbedAfresh: a donor detached and re-attached under
// its name is a new entry, and the next ranking probes it.
func TestReattachedDonorIsProbedAfresh(t *testing.T) {
	donor := store.NewFlaky(store.NewMem(0), 1)
	f, clusters := advertFixture(t, map[string]store.Store{"d": donor}, "d")
	for _, id := range clusters[:2] {
		if _, err := f.rt.SwapOut(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := donor.Calls(store.OpStats); n != 1 {
		t.Fatalf("two swap-outs probed %d times, want 1", n)
	}
	f.reg.Remove("d")
	if err := f.reg.Add("d", donor); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.SwapOut(clusters[2]); err != nil {
		t.Fatal(err)
	}
	if n := donor.Calls(store.OpStats); n != 2 {
		t.Fatalf("after the re-attach the donor was probed %d times in all, want 2", n)
	}
}
