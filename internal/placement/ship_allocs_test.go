package placement

import "testing"

// TestWarmShipAllocatesOnlyItsReplicaSet: a warm K = 1 shipment over
// store.Mem allocates 2 objects, the replica set its report returns and the
// donor's copy of the payload. The calling goroutine makes the put itself, so
// no goroutine or result channel is made, the candidate filter reads the
// ranking in place, and the rank bookkeeping stays on the stack. A ranking
// into a reused Scratch allocates only what each donor's Stats probe returns
// (its format list, one per donor). check.sh runs it by name.
func TestWarmShipAllocatesOnlyItsReplicaSet(t *testing.T) {
	r := reg(t, "d1", "d2")
	p := New(r, Options{})
	var sc Scratch
	ranked := p.RankInto(ctx, &sc, "k", 0, nil)
	data := make([]byte, 512)
	req := ShipRequest{Key: "k", Data: data, Replicas: 1}
	var rep ShipReport
	ship := func() {
		var err error
		if rep, err = p.ShipRanked(ctx, req, ranked); err != nil {
			t.Fatal(err)
		}
	}
	ship() // warm: the metric series, the donor's key
	// Measured: 2 (7 while the filter copied the ranking, the put ran on a
	// goroutine reporting on a buffered channel and the landed indexes grew a
	// slice).
	if allocs := testing.AllocsPerRun(100, ship); allocs != 2 {
		t.Fatalf("a warm K = 1 shipment allocates %v objects, want 2 (the replica set, the donor's copy)", allocs)
	}
	if len(rep.Replicas) != 1 || rep.Replicas[0] != ranked[0].Name {
		t.Fatalf("report %+v, want the top-ranked donor %s", rep, ranked[0].Name)
	}

	rank := func() { ranked = p.RankInto(ctx, &sc, "k", 0, nil) }
	rank()
	// Measured: 0 (2 while each probe copied its donor's format list, 5 while
	// the donor list and the ranking were built afresh).
	if allocs := testing.AllocsPerRun(100, rank); allocs != 0 {
		t.Fatalf("a ranking of two donors into a warm Scratch allocates %v objects, want 0", allocs)
	}
}
