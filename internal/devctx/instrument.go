package devctx

import "objectswap/internal/obs"

// Instrument registers the memory monitor's gauges and edge counters in r:
// the live occupancy fraction, the configured threshold, whether occupancy is
// currently above it, and how many times each edge has fired.
func (m *MemoryMonitor) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("objectswap_devctx_memory_fraction",
		"Heap occupancy fraction (used/capacity, 0 when unlimited).",
		func() float64 { return m.Sample().Fraction })
	r.GaugeFunc("objectswap_devctx_memory_threshold",
		"Configured occupancy fraction at which memory.threshold fires.",
		func() float64 { return m.threshold })
	r.GaugeFunc("objectswap_devctx_memory_above_threshold",
		"1 while occupancy is at or above the threshold.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			if m.above {
				return 1
			}
			return 0
		})
	m.mu.Lock()
	m.edges = r.CounterVec("objectswap_devctx_memory_edges_total",
		"Threshold crossings by direction (threshold = rising, relief = falling).",
		"edge")
	m.mu.Unlock()
}

// Instrument registers the connectivity monitor's gauges and transition
// counters in r: the reachable-device count, per-device link state, and link
// flaps by direction.
func (c *ConnectivityMonitor) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("objectswap_devctx_devices_up",
		"Reachable nearby devices.",
		func() float64 { return float64(c.upCount()) })
	c.mu.Lock()
	c.linkGauge = r.GaugeVec("objectswap_devctx_link_up",
		"Per-device link state (1 = reachable).", "device")
	c.transitions = r.CounterVec("objectswap_devctx_link_transitions_total",
		"Link state changes by device and direction.", "device", "direction")
	c.mu.Unlock()
}
