package objectswap

import (
	"context"
	"fmt"
	"strings"
)

// Report renders a human-readable snapshot of the middleware state: heap
// occupancy, swap-cluster inventory with residency and traffic counters,
// proxy population, device reachability, and a digest of the observability
// registry (swap pipeline, GC, bus, policy). All numeric state is read from
// the same obs registry WriteMetrics exposes, so the report and the metrics
// page can never disagree. Intended for diagnostics and demo output.
func (s *System) Report() string {
	var b strings.Builder
	dev := s.rt.Name()
	fmt.Fprintf(&b, "device %q\n", dev)

	// Heap occupancy and GC lifetime counters, via the registry's callback
	// gauges (live reads of the heap, not a stale copy).
	used := s.metric("objectswap_heap_used_bytes", "device", dev)
	capacity := s.metric("objectswap_heap_capacity_bytes", "device", dev)
	objects := s.metric("objectswap_heap_objects", "device", dev)
	cycles := s.metric("objectswap_heap_gc_cycles_total", "device", dev)
	reclaimed := s.metric("objectswap_heap_gc_reclaimed_objects_total", "device", dev)
	if capacity > 0 {
		fmt.Fprintf(&b, "heap: %.0f/%.0f bytes (%.0f%%), %.0f objects, %.0f collections, %.0f reclaimed\n",
			used, capacity, used/capacity*100, objects, cycles, reclaimed)
	} else {
		fmt.Fprintf(&b, "heap: %.0f bytes (unlimited), %.0f objects, %.0f collections, %.0f reclaimed\n",
			used, objects, cycles, reclaimed)
	}
	fmt.Fprintf(&b, "proxies: %d swap-cluster, %d object-fault; pending drops: %d, abandoned drops: %d\n",
		s.rt.Manager().ProxyCount(), s.rt.Manager().ObjProxyCount(),
		s.rt.Manager().PendingDrops(), s.rt.Manager().AbandonedDrops())

	infos := s.Clusters()
	fmt.Fprintf(&b, "swap-clusters (%d):\n", len(infos))
	for _, info := range infos {
		state := "loaded"
		switch {
		case info.Swapped:
			state = fmt.Sprintf("swapped -> %s (%d XML bytes)", info.Device, info.PayloadBytes)
		case info.BaseKey != "":
			// Resident with a retained copy: unless written, its next
			// swap-out leaves on that copy without shipping a byte.
			written := "clean"
			if info.Dirty {
				written = "written"
			}
			state = fmt.Sprintf("loaded, copy %s kept on %s, %s",
				info.BaseKey, strings.Join(info.BaseDevices, ","), written)
		}
		label := fmt.Sprintf("%d", info.ID)
		if info.ID == RootCluster {
			label = "0 (globals)"
		}
		fmt.Fprintf(&b, "  cluster %-12s %4d objects %8d bytes  out/in %d/%d  crossings %-6d %s\n",
			label, info.Objects, info.ResidentBytes, info.SwapOuts, info.SwapIns, info.Crossings, state)
	}

	names := s.devices.Names()
	fmt.Fprintf(&b, "devices (%d):\n", len(names))
	for _, name := range names {
		st, err := s.devices.Lookup(name)
		if err != nil {
			fmt.Fprintf(&b, "  %-16s unreachable\n", name)
			continue
		}
		stats, err := st.Stats(context.Background())
		if err != nil {
			fmt.Fprintf(&b, "  %-16s error: %v\n", name, err)
			continue
		}
		fmt.Fprintf(&b, "  %-16s %d shipments, %d bytes used\n", name, stats.Items, stats.Used)
	}

	s.writeSwapDigest(&b)
	s.writeSpineDigest(&b)
	b.WriteString(s.metrics.Snapshot().String())
	return b.String()
}

// writeSwapDigest renders the swap pipeline's span histograms: operation
// counts with mean latency, and the per-phase time/byte breakdown.
func (s *System) writeSwapDigest(b *strings.Builder) {
	wroteHeader := false
	for _, op := range []string{"swap_out", "swap_in"} {
		hs, ok := s.obsReg.HistogramSnapshotOf("objectswap_swap_seconds", op)
		if !ok || hs.Count == 0 {
			continue
		}
		if !wroteHeader {
			b.WriteString("swap pipeline:\n")
			wroteHeader = true
		}
		fmt.Fprintf(b, "  %-9s %d ops, mean %.3fms", op, hs.Count, hs.Sum/float64(hs.Count)*1000)
		if op == "swap_out" {
			// Only a swap-out that moves bytes has a ship phase; the rest left
			// on their retained copies.
			ships, _ := s.obsReg.HistogramSnapshotOf("objectswap_swap_phase_seconds", op, "ship")
			fmt.Fprintf(b, " (%d clean, %d shipped)", hs.Count-ships.Count, ships.Count)
		}
		b.WriteString("\n")
		phases := []string{"reserve", "snapshot", "negotiate", "encode", "ship", "commit"}
		if op == "swap_in" {
			phases = []string{"reserve", "fetch", "decode", "evict", "install"}
		}
		for _, ph := range phases {
			phs, ok := s.obsReg.HistogramSnapshotOf("objectswap_swap_phase_seconds", op, ph)
			if !ok || phs.Count == 0 {
				continue
			}
			line := fmt.Sprintf("    %-9s mean %.3fms", ph, phs.Sum/float64(phs.Count)*1000)
			if bytes, ok := s.obsReg.Value("objectswap_swap_phase_bytes_total", op, ph); ok && bytes > 0 {
				line += fmt.Sprintf(", %.0f bytes", bytes)
			}
			b.WriteString(line + "\n")
		}
	}
	if errs := s.metric("objectswap_swap_errors_total", "op", "swap_out") +
		s.metric("objectswap_swap_errors_total", "op", "swap_in"); errs > 0 {
		fmt.Fprintf(b, "  errors    %.0f\n", errs)
	}
}

// writeSpineDigest renders one line per mid-level subsystem: event bus,
// policy engine, memory monitor.
func (s *System) writeSpineDigest(b *strings.Builder) {
	published, delivered, panics := 0.0, 0.0, 0.0
	evaluations, fired := 0.0, 0.0
	for _, fs := range s.obsReg.Gather() {
		for _, p := range fs.Points {
			switch fs.Name {
			case "objectswap_bus_published_total":
				published += p.Value
			case "objectswap_bus_delivered_total":
				delivered += p.Value
			case "objectswap_bus_subscriber_panics_total":
				panics += p.Value
			case "objectswap_policy_evaluations_total":
				evaluations += p.Value
			case "objectswap_policy_fired_total":
				fired += p.Value
			}
		}
	}
	fmt.Fprintf(b, "bus: %.0f published, %.0f delivered, %.0f subscriber panics\n",
		published, delivered, panics)
	fmt.Fprintf(b, "policy: %.0f evaluations, %.0f fired; memory edges %.0f/%.0f (threshold/relief)\n",
		evaluations, fired,
		s.metric("objectswap_devctx_memory_edges_total", "edge", "threshold"),
		s.metric("objectswap_devctx_memory_edges_total", "edge", "relief"))
}

// metric reads one counter/gauge series from the registry (0 when absent).
// Label names are accepted in pairs-free form: only values are passed, in
// registration order; the name parameters document the intent at call sites.
func (s *System) metric(family string, labelPairs ...string) float64 {
	values := make([]string, 0, len(labelPairs)/2)
	for i := 1; i < len(labelPairs); i += 2 {
		values = append(values, labelPairs[i])
	}
	v, _ := s.obsReg.Value(family, values...)
	return v
}
