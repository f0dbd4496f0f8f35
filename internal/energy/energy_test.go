package energy

import (
	"strings"
	"testing"
	"time"
)

func TestCPUEnergyLinear(t *testing.T) {
	m := PocketPC2003()
	one := m.CPU(time.Second)
	if float64(one) != 0.4 {
		t.Fatalf("1s CPU = %v J, want 0.4", float64(one))
	}
	two := m.CPU(2 * time.Second)
	if float64(two) != 2*float64(one) {
		t.Fatalf("CPU energy not linear: %v vs %v", two, one)
	}
}

func TestRadioEnergy(t *testing.T) {
	m := PocketPC2003()
	// 87500 bytes = 700000 bits = 1 s of airtime at 700 Kbps.
	tx := m.tx(87500)
	if float64(tx) != 0.12 {
		t.Fatalf("1s TX = %v J, want 0.12", float64(tx))
	}
	rx := m.rx(87500)
	if float64(rx) != 0.08 {
		t.Fatalf("1s RX = %v J, want 0.08", float64(rx))
	}
	rt := m.Transfer(87500, 87500)
	if float64(rt) != 0.2 {
		t.Fatalf("round trip = %v J, want 0.20", float64(rt))
	}
}

func TestZeroRadioModel(t *testing.T) {
	m := Model{CPUActiveWatts: 1}
	if m.tx(1<<20) != 0 {
		t.Fatal("radio-less model should cost nothing to transmit")
	}
}

func TestJoulesFormatting(t *testing.T) {
	j := Joules(0.0123)
	if got := j.String(); !strings.Contains(got, "12.3 mJ") {
		t.Fatalf("String = %q", got)
	}
}

func TestCompressionVsSwapEnergyStory(t *testing.T) {
	// The paper's qualitative claim, as arithmetic: compressing 1 MB at a
	// typical ~4 MB/s on a PDA costs more energy than shipping the same
	// megabyte over Bluetooth... does it? 1 MB at 4 MB/s = 0.25 s CPU
	// = 100 mJ; 1 MB over 700 Kbps ≈ 12 s airtime × 0.12 W = 1437 mJ.
	// Radio is costlier per byte — the paper's energy argument is really
	// about compression being PURE overhead (objects stay resident), while
	// swapping buys actual free memory for its joules. The model lets
	// experiments surface exactly these numbers.
	m := PocketPC2003()
	cpu := m.CPU(250 * time.Millisecond)
	radio := m.Transfer(1<<20, 0)
	if cpu <= 0 || radio <= 0 {
		t.Fatal("energies must be positive")
	}
	if radio < cpu {
		t.Fatalf("Bluetooth should dominate per-byte energy: radio %v vs cpu %v", radio, cpu)
	}
}
