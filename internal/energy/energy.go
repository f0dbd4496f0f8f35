// Package energy models the battery cost of middleware activity on a
// constrained device. The paper's central argument against heap compression
// — and for shipping XML to a neighbor instead — is energy: "compression is
// a computational-intensive process" whose CPU load is "paramount in mobile
// devices". This package makes that argument measurable: a Model converts
// CPU time and radio traffic into joules, so the comparator experiments can
// report energy alongside bytes and time.
//
// The default coefficients approximate a 2003-era Pocket PC (XScale-class
// CPU, Bluetooth 1.1 radio); they are deliberately simple — energy scales
// linearly with active CPU time and with radio airtime — which is the
// standard first-order model for such devices.
package energy

import (
	"fmt"
	"time"
)

// Joules is an energy amount.
type Joules float64

// String renders millijoules for the magnitudes middleware operations have.
func (j Joules) String() string {
	return fmt.Sprintf("%.1f mJ", float64(j)*1000)
}

// Model holds the device's power coefficients.
type Model struct {
	// CPUActiveWatts is drawn while the CPU computes (compression,
	// serialization, proxy bookkeeping).
	CPUActiveWatts float64
	// RadioTxWatts / RadioRxWatts are drawn while the radio is sending /
	// receiving.
	RadioTxWatts float64
	RadioRxWatts float64
	// RadioBitsPerSecond converts traffic volume into airtime.
	RadioBitsPerSecond int64
}

// PocketPC2003 approximates the paper's prototype platform: a ~400 MHz
// XScale PDA (≈0.4 W active) with a Bluetooth 1.1 radio (≈0.1 W, 700 Kbps).
func PocketPC2003() Model {
	return Model{
		CPUActiveWatts:     0.4,
		RadioTxWatts:       0.12,
		RadioRxWatts:       0.08,
		RadioBitsPerSecond: 700_000,
	}
}

// CPU returns the energy of d of active computation.
func (m Model) CPU(d time.Duration) Joules {
	return Joules(m.CPUActiveWatts * d.Seconds())
}

// tx returns the energy of transmitting n payload bytes.
func (m Model) tx(n int64) Joules {
	return Joules(m.RadioTxWatts * m.airtime(n).Seconds())
}

// rx returns the energy of receiving n payload bytes.
func (m Model) rx(n int64) Joules {
	return Joules(m.RadioRxWatts * m.airtime(n).Seconds())
}

// airtime converts a payload volume into radio-on time.
func (m Model) airtime(n int64) time.Duration {
	if m.RadioBitsPerSecond <= 0 {
		return 0
	}
	bits := n * 8
	return time.Duration(bits * int64(time.Second) / m.RadioBitsPerSecond)
}

// Transfer returns the total energy of a round trip shipping out and later
// fetching back n bytes.
func (m Model) Transfer(outBytes, inBytes int64) Joules {
	return m.tx(outBytes) + m.rx(inBytes)
}
