package core

import (
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
	"objectswap/internal/wire"
)

// Negotiation downgrade: a donor that predates the binary framing (modelled by
// narrowing its advertisement to xml) must still receive shipments — the
// negotiation degrades to the universal XML wrapper instead of failing or
// shipping a format the donor cannot serve back.
func TestNegotiationDowngradesToXMLOnlyDonor(t *testing.T) {
	f := newFixture(t, 0)
	f.mem.SetFormats(string(wire.FormatXML))
	_, clusters := f.buildList(t, 10, 10, 64)

	ev, err := f.rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("swap-out: %v", err)
	}
	if ev.Format != string(wire.FormatXML) {
		t.Fatalf("negotiated format = %q, want %q (xml-only donor)", ev.Format, wire.FormatXML)
	}
	// The stored payload really is the legacy wrapper, not a framed binary.
	data, _, err := store.GetWith(t.Context(), f.mem, ev.Key)
	if err != nil {
		t.Fatalf("fetch payload: %v", err)
	}
	if fid, err := wire.Detect(data); err != nil || fid != wire.FormatXML {
		t.Fatalf("stored payload detects as (%v, %v), want xml", fid, err)
	}
	inEv, err := f.rt.SwapIn(clusters[0])
	if err != nil {
		t.Fatalf("swap-in: %v", err)
	}
	if inEv.Format != string(wire.FormatXML) {
		t.Fatalf("swap-in format = %q, want xml", inEv.Format)
	}
	if res, err := f.rt.Invoke(f.head(t), "walk", heap.Int(0)); err != nil || len(res) != 1 {
		t.Fatalf("walk after xml round-trip: %v", err)
	}
}

// A mixed neighborhood negotiates the best format every replica can hold:
// with one binary-capable donor and one legacy donor at K=2, all replicas
// degrade together to XML (one shipment, one format).
func TestNegotiationMixedNeighborhoodUsesOneFormat(t *testing.T) {
	h := heap.New(0)
	classes := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	modern := store.NewMem(0)
	legacy := store.NewMem(0)
	legacy.SetFormats(string(wire.FormatXML))
	if err := devices.Add("modern", modern); err != nil {
		t.Fatal(err)
	}
	if err := devices.Add("legacy", legacy); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(h, classes, WithStores(devices))
	f := &fixture{rt: rt, reg: devices, mem: modern, node: newNodeClass()}
	rt.MustRegisterClass(f.node)
	_, clusters := f.buildList(t, 10, 10, 64)

	ev, err := rt.SwapOut(clusters[0], WithReplicas(2))
	if err != nil {
		t.Fatalf("swap-out: %v", err)
	}
	if ev.Format != string(wire.FormatXML) {
		t.Fatalf("format = %q, want xml (legacy replica in the set)", ev.Format)
	}
	if len(ev.Replicas) != 2 || ev.Shortfall != 0 {
		t.Fatalf("replicas = %v shortfall = %d, want full set", ev.Replicas, ev.Shortfall)
	}
}

// Satellite: quorum shortfall is surfaced on the SwapEvent. Two donors can
// satisfy the majority quorum of a K=3 request but not the full replica
// target; the event must say so instead of silently reporting success.
func TestSwapEventSurfacesQuorumShortfall(t *testing.T) {
	h := heap.New(0)
	classes := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	for _, name := range []string{"donor-a", "donor-b"} {
		if err := devices.Add(name, store.NewMem(0)); err != nil {
			t.Fatal(err)
		}
	}
	rt := NewRuntime(h, classes, WithStores(devices))
	node := newNodeClass()
	rt.MustRegisterClass(node)
	f := &fixture{rt: rt, reg: devices, node: node}
	_, clusters := f.buildList(t, 10, 10, 64)

	ev, err := rt.SwapOut(clusters[0], WithReplicas(3))
	if err != nil {
		t.Fatalf("swap-out: %v", err)
	}
	if ev.Requested != 3 {
		t.Fatalf("Requested = %d, want 3", ev.Requested)
	}
	if len(ev.Replicas) != 2 {
		t.Fatalf("replicas = %v, want 2 accepting donors", ev.Replicas)
	}
	if ev.Shortfall != 1 {
		t.Fatalf("Shortfall = %d, want 1", ev.Shortfall)
	}
	if ev.Quorum != 2 {
		t.Fatalf("Quorum = %d, want majority 2", ev.Quorum)
	}
}

// deltaFixture builds a runtime opted into delta re-shipment with one
// in-memory donor.
func deltaFixture(t testing.TB) *fixture {
	t.Helper()
	h := heap.New(0)
	classes := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	if err := devices.Add("pda-neighbor", mem); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(h, classes, WithStores(devices),
		WithWireFormats(string(wire.FormatDelta), string(wire.FormatBinary), string(wire.FormatXML)))
	f := &fixture{rt: rt, reg: devices, mem: mem, node: newNodeClass()}
	rt.MustRegisterClass(f.node)
	return f
}

// The ISSUE acceptance bar: re-shipping a cluster with ~1% of its members
// dirty must move less than 10% of the full-shipment bytes.
func TestDeltaReshipmentShipsFractionOfFullBytes(t *testing.T) {
	f := deltaFixture(t)
	ids, clusters := f.buildList(t, 100, 100, 200)

	full, err := f.rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("full swap-out: %v", err)
	}
	if full.Format != string(wire.FormatBinary) {
		t.Fatalf("first shipment format = %q, want binary", full.Format)
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in: %v", err)
	}

	// Dirty one member of a hundred.
	o, err := f.rt.h.Get(ids[42])
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetFieldByName("tag", heap.Int(4242)); err != nil {
		t.Fatal(err)
	}

	delta, err := f.rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("delta swap-out: %v", err)
	}
	if delta.Format != string(wire.FormatDelta) {
		t.Fatalf("re-shipment format = %q, want delta", delta.Format)
	}
	if delta.Bytes*10 >= full.Bytes {
		t.Fatalf("delta shipped %d bytes, full was %d — want < 10%%", delta.Bytes, full.Bytes)
	}

	// The merged fault-in must restore the mutation and the untouched tail.
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in after delta: %v", err)
	}
	o, err = f.rt.h.Get(ids[42])
	if err != nil {
		t.Fatal(err)
	}
	v, err := o.FieldByName("tag")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Int(); got != 4242 {
		t.Fatalf("mutated tag = %d after delta round-trip, want 4242", got)
	}
	if res, err := f.rt.Invoke(f.head(t), "walk", heap.Int(0)); err != nil {
		t.Fatalf("walk after delta round-trip: %v", err)
	} else if n, _ := res[0].Int(); n != 99 {
		t.Fatalf("walk depth = %d, want 99 (list structure lost)", n)
	}
}

// A clean cluster (nothing dirty since the base shipped) ships nothing, not
// even the cheapest possible delta: with or without delta among the formats
// it leaves on the retained base itself, and the fault-in reloads that.
func TestDeltaCleanReshipment(t *testing.T) {
	f := deltaFixture(t)
	_, clusters := f.buildList(t, 20, 20, 64)

	full, err := f.rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("full swap-out: %v", err)
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in: %v", err)
	}
	ev, err := f.rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("clean re-swap-out: %v", err)
	}
	if !ev.Clean || ev.Bytes != 0 || ev.Key != full.Key || ev.Format != full.Format {
		t.Fatalf("clean re-swap-out = %+v, want it left on the base %q (%s) with nothing shipped",
			ev, full.Key, full.Format)
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in after clean swap-out: %v", err)
	}
	if res, err := f.rt.Invoke(f.head(t), "walk", heap.Int(0)); err != nil || len(res) != 1 {
		t.Fatalf("walk after clean round-trip: %v", err)
	}
}

// When the base donor cannot hold deltas (legacy advertisement), the
// re-shipment falls back to a freshly negotiated full shipment instead of
// failing.
func TestDeltaFallsBackWhenBaseDonorLacksFormat(t *testing.T) {
	f := deltaFixture(t)
	ids, clusters := f.buildList(t, 20, 20, 64)

	if _, err := f.rt.SwapOut(clusters[0]); err != nil {
		t.Fatalf("full swap-out: %v", err)
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in: %v", err)
	}
	// The donor forgets how to speak delta between the shipments.
	f.mem.SetFormats(string(wire.FormatBinary), string(wire.FormatXML))
	f.dirty(t, ids[3])
	ev, err := f.rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("re-swap-out: %v", err)
	}
	if ev.Format != string(wire.FormatBinary) {
		t.Fatalf("format = %q, want binary full fallback", ev.Format)
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in after fallback: %v", err)
	}
}

// A base donor that advertises delta but rejects the delta Put forces the same
// fallback mid-ship: the swap lands as a full shipment, and the re-encoded
// frame is attributed to the ship phase once — its bytes are the event's.
func TestDeltaFallsBackWhenBaseDonorRejectsPut(t *testing.T) {
	f := deltaFixture(t)
	flaky := store.NewFlaky(f.mem, 1)
	f.reg.Remove("pda-neighbor")
	if err := f.reg.Add("pda-neighbor", flaky); err != nil {
		t.Fatal(err)
	}
	ids, clusters := f.buildList(t, 20, 20, 64)

	if _, err := f.rt.SwapOut(clusters[0]); err != nil {
		t.Fatalf("full swap-out: %v", err)
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in: %v", err)
	}
	f.dirty(t, ids[3])
	flaky.FailNext(store.OpPut, 1)
	ev, err := f.rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("re-swap-out: %v", err)
	}
	if ev.Format != string(wire.FormatBinary) {
		t.Fatalf("format = %q, want binary full fallback", ev.Format)
	}
	if n := flaky.Failures(store.OpPut); n != 1 {
		t.Fatalf("rejected Puts = %d, want the one delta Put", n)
	}
	for _, ph := range ev.Phases {
		if ph.Name == "ship" && ph.Bytes != int64(ev.Bytes) {
			t.Fatalf("ship phase bytes = %d, want SwapEvent.Bytes = %d", ph.Bytes, ev.Bytes)
		}
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in after fallback: %v", err)
	}
}

// Heavy mutation forfeits the delta: once half the members changed, the
// negotiation prefers a full shipment that refreshes the base.
func TestDeltaDeclinedWhenTooDirty(t *testing.T) {
	f := deltaFixture(t)
	ids, clusters := f.buildList(t, 10, 10, 64)

	if _, err := f.rt.SwapOut(clusters[0]); err != nil {
		t.Fatalf("full swap-out: %v", err)
	}
	if _, err := f.rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in: %v", err)
	}
	for _, id := range ids[:6] {
		o, err := f.rt.h.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetFieldByName("tag", heap.Int(7)); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := f.rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("re-swap-out: %v", err)
	}
	if ev.Format == string(wire.FormatDelta) {
		t.Fatalf("60%%-dirty cluster shipped as delta; want full shipment")
	}
}
