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
		exp2 := func(dt uint64) float64 { return math.Exp2(-float64(dt) / float64(hl)) }
		cut := hl >> seriesShift
		gaps := []uint64{1, 2, cut / 2, cut - 1}
		for i := 0; i < 10000; i++ {
			gaps = append(gaps, 1+uint64(r.Int63n(int64(cut-1))))
		}
		worst := uint64(0)
		for _, dt := range gaps {
			got, want := newDecay(hl).at(dt), exp2(dt)
			if d := ulps(got, want); d > 1 {
				t.Fatalf("half-life %v, gap %v: series %v, math.Exp2 %v: %d ulps apart", hl, dt, got, want, d)
			} else {
				worst = max(worst, d)
			}
		}
		for _, dt := range []uint64{cut, cut + 1, hl, 7 * hl} {
			if got, want := newDecay(hl).at(dt), exp2(dt); got != want {
				t.Fatalf("half-life %v, gap %v at or above the cut-over: %v, want math.Exp2's %v", hl, dt, got, want)
			}
		}
		t.Logf("half-life %v: below the %v cut-over the series is within %d ulp of math.Exp2", hl, cut, worst)
	}
	if got := newDecay(heatHalfLife).at(0); got != 1 {
		t.Fatalf("no gap decays by %v, want 1", got)
	}
}
