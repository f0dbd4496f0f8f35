package wire

import (
	"sort"
	"testing"
	"time"
)

// The smoke gates run on the same 64-object shipment document shape the
// ledger's wire.* rows are measured on (go run ./benchmark).
const smokeObjects = 64

// xmlDecodeEncodeRatio is the asymmetry the binary framing was built to
// close: on this document XML decode cost 17.54x XML encode (1393534 vs
// 79431 ns/op when the format was designed).
const xmlDecodeEncodeRatio = 17.54

// TestCodecBenchSmoke is the codec gate: the binary framing codec's
// decode/encode time ratio must stay under half the XML asymmetry it
// replaced (observed ~1-2x, so the gate leaves 4-8x headroom for a noisy
// host), and one decode must stay within its allocation budget. The ratio is
// of two loops on one host in one process, median of nine rounds; the
// absolute figures are the ledger's (wire.encode_us_per_frame,
// wire.decode_us_per_frame).
func TestCodecBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("codec smoke skipped in -short mode")
	}
	doc := testDoc(smokeObjects)
	data, err := Encode(FormatBinary, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	encode := func() {
		if _, err := Encode(FormatBinary, doc, nil); err != nil {
			t.Fatal(err)
		}
	}
	decode := func() {
		if _, err := Decode(data, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Alternate short batches of the two loops and take the median of the
	// per-round ratios, so a burst of host noise or a collection landing on
	// one side of one round cannot decide the gate.
	batch := func(f func()) time.Duration {
		start := time.Now()
		for i := 0; i < 100; i++ {
			f()
		}
		return time.Since(start)
	}
	ratios := make([]float64, 9)
	for r := range ratios {
		enc, dec := batch(encode), batch(decode)
		if enc <= 0 {
			t.Fatalf("encode batch measured %v", enc)
		}
		ratios[r] = float64(dec) / float64(enc)
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	allocs := testing.AllocsPerRun(20, decode)
	t.Logf("binary decode/encode ratio %.2f (rounds %.2f–%.2f; xml %.2f), decode %.0f allocs", ratio, ratios[0], ratios[len(ratios)-1], xmlDecodeEncodeRatio, allocs)
	if ratio >= xmlDecodeEncodeRatio/2 {
		t.Fatalf("binary decode/encode ratio %.2f regressed toward the XML asymmetry %.2f", ratio, xmlDecodeEncodeRatio)
	}
	// The allocation budget from the redesign: ~1% of the 11892-alloc XML
	// decode (asserted at 2x slack for toolchain drift).
	if allocs > 236 {
		t.Fatalf("binary decode allocates %.0f/op, budget 236 (~2%% of the 11892 XML baseline)", allocs)
	}
}

// TestDeltaBytesFraction pins the acceptance number at the codec layer: a
// delta carrying 1/64 of the objects must be under 10% of the full binary
// shipment's size.
func TestDeltaBytesFraction(t *testing.T) {
	full, err := Encode(FormatBinary, testDoc(smokeObjects), nil)
	if err != nil {
		t.Fatal(err)
	}
	dirty := testDoc(smokeObjects)
	dirty.Objects = dirty.Objects[:1]
	delta, err := Encode(FormatDelta, dirty, &EncodeOpts{BaseKey: "bench-base-key"})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta)*10 >= len(full) {
		t.Fatalf("delta = %d bytes, full = %d — want < 10%%", len(delta), len(full))
	}
	t.Logf("full binary %d bytes, 1/64-dirty delta %d bytes (%.1f%%)",
		len(full), len(delta), 100*float64(len(delta))/float64(len(full)))
}
