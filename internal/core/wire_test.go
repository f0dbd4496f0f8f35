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

// The donor holding a written cluster's retained copy rejects the re-shipment's
// Put. No shipment is a delta any more, so nothing waits on that donor: the
// whole frame fails over to the other donor, lands as binary, and the ship
// phase counts it once — its bytes are the event's.
func TestDeltaFallsBackWhenBaseDonorRejectsPut(t *testing.T) {
	devices := store.NewRegistry(store.SelectMostFree)
	flaky := store.NewFlaky(store.NewMem(1<<30), 1) // most free: every shipment tries it first
	if err := devices.Add("base", flaky); err != nil {
		t.Fatal(err)
	}
	if err := devices.Add("other", store.NewMem(1<<20)); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices))
	f := &fixture{rt: rt, reg: devices, node: newNodeClass()}
	rt.MustRegisterClass(f.node)
	ids, clusters := f.buildList(t, 20, 20, 64)

	first, err := rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("first swap-out: %v", err)
	}
	if len(first.Replicas) != 1 || first.Replicas[0] != "base" {
		t.Fatalf("first shipment landed on %v, want [base]", first.Replicas)
	}
	if _, err := rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in: %v", err)
	}
	f.dirty(t, ids[3])
	flaky.FailNext(store.OpPut, 1)
	ev, err := rt.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("re-swap-out: %v", err)
	}
	if ev.Clean || ev.Format != string(wire.FormatBinary) {
		t.Fatalf("re-shipment clean=%v format=%q, want a whole binary shipment", ev.Clean, ev.Format)
	}
	if n := flaky.Failures(store.OpPut); n != 1 {
		t.Fatalf("rejected Puts = %d, want the one re-shipment Put", n)
	}
	if len(ev.Replicas) != 1 || ev.Replicas[0] != "other" {
		t.Fatalf("re-shipment landed on %v, want [other]", ev.Replicas)
	}
	ship := false
	for _, ph := range ev.Phases {
		if ph.Name == "ship" {
			ship = true
			if ph.Bytes != int64(ev.Bytes) {
				t.Fatalf("ship phase bytes = %d, want SwapEvent.Bytes = %d", ph.Bytes, ev.Bytes)
			}
		}
	}
	if !ship || ev.Bytes == 0 {
		t.Fatalf("re-shipment phases %+v bytes %d, want a ship phase over a non-empty frame", ev.Phases, ev.Bytes)
	}
	if _, err := rt.SwapIn(clusters[0]); err != nil {
		t.Fatalf("swap-in after the failover: %v", err)
	}
	if res, err := rt.Invoke(f.head(t), "walk", heap.Int(0)); err != nil {
		t.Fatalf("walk after the failover: %v", err)
	} else if n, _ := res[0].Int(); n != 19 {
		t.Fatalf("walk depth = %d, want 19 (list structure lost)", n)
	}
}
