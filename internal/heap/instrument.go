package heap

import "objectswap/internal/obs"

// Instrument registers the heap's occupancy gauges and lifetime counters in
// r, labeled by device name. Occupancy is exported through callback series so
// every scrape reads the live heap state instead of a stale copy. GC cycles
// additionally feed a pause-duration histogram and a bytes-freed counter
// timed by the registry's clock.
func (h *Heap) Instrument(r *obs.Registry, device string) {
	if r == nil {
		return
	}
	r.GaugeVec("objectswap_heap_used_bytes",
		"Accounted live bytes in the managed heap.", "device").
		WithFunc(func() float64 { return float64(h.Used()) }, device)
	r.GaugeVec("objectswap_heap_capacity_bytes",
		"Configured heap byte capacity (0 = unlimited).", "device").
		WithFunc(func() float64 { return float64(h.Capacity()) }, device)
	r.GaugeVec("objectswap_heap_reserve_bytes",
		"Middleware headroom reserved above the application budget.", "device").
		WithFunc(func() float64 { return float64(h.Reserve()) }, device)
	r.GaugeVec("objectswap_heap_objects",
		"Resident object count.", "device").
		WithFunc(func() float64 { return float64(h.Len()) }, device)
	r.CounterVec("objectswap_heap_allocated_objects_total",
		"Objects ever allocated.", "device").
		WithFunc(func() float64 { return float64(h.StatsSnapshot().Allocated) }, device)
	r.CounterVec("objectswap_heap_gc_cycles_total",
		"Completed mark-sweep collection cycles.", "device").
		WithFunc(func() float64 { return float64(h.StatsSnapshot().Collections) }, device)
	r.CounterVec("objectswap_heap_gc_reclaimed_objects_total",
		"Objects ever reclaimed by the collector.", "device").
		WithFunc(func() float64 { return float64(h.StatsSnapshot().Reclaimed) }, device)

	h.gcClock = r.Clock()
	h.gcSeconds = r.HistogramVec("objectswap_heap_gc_seconds",
		"Mark-sweep cycle duration; the timer stops before the owner's purge of what the pass swept.", nil, "device").With(device)
	h.gcFreed = r.CounterVec("objectswap_heap_gc_freed_bytes_total",
		"Bytes returned to the budget by the collector.", "device").With(device)
}
