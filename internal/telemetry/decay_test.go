package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

// ulps returns how many representable float64 values lie between two
// positive numbers.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// TestDecaySeriesMatchesExp2: below the cut-over, where a decay sums a
// series instead of calling math.Exp2, it returns math.Exp2's value to
// within one ulp, for the shortest gap, the longest, and seeded gaps in
// between, at half-lives from 2^10 ticks to 2^40, the default heat
// half-life among them; at the cut-over and above it returns math.Exp2's
// value exactly.
func TestDecaySeriesMatchesExp2(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, hl := range []uint64{1 << 10, thrashHalfLife, 1 << 20, heatHalfLife, 1e9, 1 << 40} {
		dec := newDecay(hl)
		exp2 := func(dt uint64) float64 { return math.Exp2(-float64(dt) / float64(hl)) }
		cut := hl >> seriesShift
		gaps := []uint64{1, 2, cut / 2, cut - 1}
		for i := 0; i < 10000; i++ {
			gaps = append(gaps, 1+uint64(r.Int63n(int64(cut-1))))
		}
		worst := uint64(0)
		for _, dt := range gaps {
			got, want := dec.at(dt), exp2(dt)
			if d := ulps(got, want); d > 1 {
				t.Fatalf("half-life %v, gap %v: series %v, math.Exp2 %v: %d ulps apart", hl, dt, got, want, d)
			} else {
				worst = max(worst, d)
			}
		}
		for _, dt := range []uint64{cut, cut + 1, hl, 7 * hl} {
			if got, want := dec.at(dt), exp2(dt); got != want {
				t.Fatalf("half-life %v, gap %v at or above the cut-over: %v, want math.Exp2's %v", hl, dt, got, want)
			}
		}
		t.Logf("half-life %v: below the %v cut-over the series is within %d ulp of math.Exp2", hl, cut, worst)
	}
	if dec := newDecay(heatHalfLife); dec.at(0) != 1 {
		t.Fatalf("no gap decays by %v, want 1", dec.at(0))
	}
}

// TestDecayTableMatchesSeries: a gap below the table's length reads the
// value the series computes for it, bit for bit, at both default
// half-lives, so a touch decays its score exactly as if it had summed the
// series; the first gap past the table computes.
func TestDecayTableMatchesSeries(t *testing.T) {
	for _, hl := range []uint64{heatHalfLife, thrashHalfLife} {
		d := newDecay(hl)
		n := uint64(len(d.near))
		if n >= d.cut {
			t.Fatalf("half-life %v: the %d-entry table reaches the %v cut-over", hl, n, d.cut)
		}
		for dt := uint64(0); dt <= n; dt++ {
			if got, want := d.at(dt), d.eval(dt); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("half-life %v, gap %d: table %v, series %v", hl, dt, got, want)
			}
		}
	}
}
