package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"objectswap"
	"objectswap/internal/bench"
	"objectswap/internal/core"
	"objectswap/internal/fault"
	"objectswap/internal/heap"
	"objectswap/internal/placement"
	"objectswap/internal/store"
	"objectswap/internal/transport"
	"objectswap/internal/wire"
	"objectswap/internal/xmlcodec"
)

// isolatedIters is how often each isolated per-layer measurement repeats its
// call at nominalSeconds.
const isolatedIters = 1000

// layerInput is what a traced repetition hands to the isolated measurements.
type layerInput struct {
	frames []frame // shipped payloads the innermost decorator captured
}

// perCallBatches is how many batches perCall splits its calls into.
const perCallBatches = 20

// perCall times fn over n calls, i running from 0 to n-1, and returns the ns
// per call: the median over batches of each batch's mean, so that a Go
// collection or a descheduling that lands in one batch does not move the
// result.
func perCall(n int, fn func(i int)) float64 {
	return perCallOver(n, fn, nil)
}

// perCallOver returns how many ns per call fn costs more than base (nil: than
// nothing). Both run over the same indices batch by batch, one right after the
// other, and the result is the median of the per-batch differences: a layer's
// self time is a small difference of two larger times, which only survives the
// host's drift when the two are measured side by side.
func perCallOver(n int, fn, base func(i int)) float64 {
	size := (n + perCallBatches - 1) / perCallBatches
	timed := func(f func(int), lo, hi int) float64 {
		if f == nil {
			return 0
		}
		start := time.Now()
		for i := lo; i < hi; i++ {
			f(i)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(hi-lo)
	}
	var diffs []float64
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		diffs = append(diffs, timed(fn, lo, hi)-timed(base, lo, hi))
	}
	return median(diffs)
}

// perCallAlloc is perCall plus the Go allocations and bytes per call.
func perCallAlloc(n int, fn func(i int)) (ns, allocs, bytes float64) {
	m0, b0 := memDelta()
	ns = perCall(n, fn)
	m1, b1 := memDelta()
	return ns, float64(m1-m0) / float64(n), float64(b1-b0) / float64(n)
}

// heapLayer measures a bare heap.Heap with the workload's class: allocation,
// field access and method dispatch, with no swapping runtime in the way.
func heapLayer(cls *heap.Class, field string, value heap.Value, n int, out map[string]float64) error {
	h := heap.New(0)
	var err error
	out["heap.alloc_ns"] = perCall(n, func(int) {
		if _, e := h.New(cls); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	a, _ := h.New(cls)
	b, _ := h.New(cls)
	h.SetRoot("a", a.RefTo())
	if err := a.SetFieldByName("next", b.RefTo()); err != nil {
		return err
	}
	out["heap.field_get_ns"] = perCall(n, func(int) {
		if _, e := a.FieldByName("next"); e != nil {
			err = e
		}
	})
	out["heap.field_set_ns"] = perCall(n, func(int) {
		if e := a.SetFieldByName(field, value); e != nil {
			err = e
		}
	})
	rt := heap.NewDirectRuntime(h)
	out["heap.invoke_ns"] = perCall(n, func(int) {
		if _, e := rt.Invoke(a.RefTo(), "next"); e != nil {
			err = e
		}
	})
	return err
}

// isolated replays the captured frames through each layer's public functions
// on bare instances. Every value is a mean per call.
func isolated(in *layerInput, n int, out map[string]float64) error {
	if len(in.frames) == 0 {
		return fmt.Errorf("no frames captured: the traced run shipped nothing")
	}
	ctx := context.Background()
	frames := in.frames
	at := func(i int) frame { return frames[i%len(frames)] }
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}

	// wire: the negotiated format, as shipped.
	docs := make([]*xmlcodec.Doc, len(frames))
	var frameBytes float64
	for i, f := range frames {
		if docs[i], err = wire.Decode(f.data, nil); err != nil {
			return fmt.Errorf("decode captured %s frame: %w", f.format, err)
		}
		frameBytes += float64(len(f.data)) / float64(len(frames))
	}
	out["wire.frame_bytes"] = frameBytes
	out["wire.encode_us_per_frame"] = perCall(n, func(i int) {
		_, e := wire.Encode(wire.FormatID(at(i).format), docs[i%len(docs)], nil)
		keep(e)
	}) / 1e3
	ns, allocs, bytes := perCallAlloc(n, func(i int) {
		_, e := wire.Decode(at(i).data, nil)
		keep(e)
	})
	out["wire.decode_us_per_frame"] = ns / 1e3
	out["wire.decode_allocs_per_frame"] = allocs
	out["wire.decode_kb_alloc_per_frame"] = bytes / 1024

	// xmlcodec: the same documents through the universal fallback.
	xmls := make([][]byte, len(docs))
	var xmlBytes float64
	for i, d := range docs {
		if xmls[i], err = d.Encode(); err != nil {
			return err
		}
		xmlBytes += float64(len(xmls[i])) / float64(len(docs))
	}
	out["xmlcodec.frame_bytes"] = xmlBytes
	// XML is some twenty times slower than the binary format; a tenth of the
	// iterations resolves it as well.
	nx := n/10 + 1
	out["xmlcodec.encode_us_per_frame"] = perCall(nx, func(i int) {
		_, e := docs[i%len(docs)].Encode()
		keep(e)
	}) / 1e3
	out["xmlcodec.decode_us_per_frame"] = perCall(nx, func(i int) {
		_, e := xmlcodec.Decode(xmls[i%len(xmls)])
		keep(e)
	}) / 1e3
	reg := heap.NewRegistry()
	reg.MustRegister(taskClass())
	remote := func(xmlcodec.Value) (heap.Value, error) { return heap.Nil(), nil }
	var installNS int64
	for i := 0; i < n; i++ {
		h := heap.New(0)
		start := time.Now()
		_, e := docs[i%len(docs)].Install(h, reg, remote)
		installNS += time.Since(start).Nanoseconds()
		keep(e)
	}
	out["xmlcodec.install_us_per_frame"] = float64(installNS) / float64(n) / 1e3

	// store: a bare Mem, then the HTTP bridge on loopback with one client.
	mem := store.NewMem(0)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	out["store.mem.put_ns"] = perCall(n, func(i int) {
		keep(mem.PutEnvelope(ctx, keys[i], at(i).data, store.PutOpts{Format: at(i).format}))
	})
	out["store.mem.get_ns"] = perCall(n, func(i int) {
		_, _, e := mem.GetEnvelope(ctx, keys[i])
		keep(e)
	})
	// transport: the resilience decorator's own cost per call.
	res := transport.NewResilient("isolated", mem, transport.Policy{})
	out["transport.self_ns_per_call"] = perCallOver(n, func(i int) {
		_, _, e := res.GetEnvelope(ctx, keys[i])
		keep(e)
	}, func(i int) {
		_, _, e := mem.GetEnvelope(ctx, keys[i])
		keep(e)
	})
	// fault: Engine.Do around a no-op, Engine.Fetch against a direct Get.
	eng := fault.New(fault.Config{})
	defer eng.Stop()
	out["fault.do_overhead_ns"] = perCall(n, func(i int) {
		_, _, e := eng.Do(uint32(i), func() (any, error) { return nil, nil })
		keep(e)
	})
	out["fault.fetch_overhead_ns"] = perCallOver(n, func(i int) {
		_, e := eng.Fetch(ctx, "isolated", mem, keys[i])
		keep(e)
	}, func(i int) {
		_, e := mem.Get(ctx, keys[i])
		keep(e)
	})
	out["store.mem.drop_ns"] = perCall(n, func(i int) { keep(mem.Drop(ctx, keys[i])) })

	srv := httptest.NewServer(store.NewHandler(store.NewMem(0)))
	defer srv.Close()
	client := store.NewClient(srv.URL)
	out["store.http.put_us"] = perCall(nx, func(i int) {
		keep(client.PutEnvelope(ctx, keys[i], at(i).data, store.PutOpts{Format: at(i).format}))
	}) / 1e3
	out["store.http.get_us"] = perCall(nx, func(i int) {
		_, _, e := client.GetEnvelope(ctx, keys[i])
		keep(e)
	}) / 1e3

	// placement: ranking two donors, and shipping one replica minus the put.
	two := store.NewRegistry(store.SelectMostFree)
	keep(two.Add("a", store.NewMem(0)))
	keep(two.Add("b", store.NewMem(0)))
	planner := placement.New(two, placement.Options{})
	out["placement.rank_ns"] = perCall(n, func(i int) { planner.Rank(ctx, keys[i], 0, nil) })
	one := store.NewRegistry(store.SelectMostFree)
	keep(one.Add("a", store.NewMem(0)))
	single := placement.New(one, placement.Options{})
	out["placement.ship_self_us"] = perCallOver(n, func(i int) {
		_, e := single.Ship(ctx, placement.ShipRequest{Key: keys[i], Data: at(i).data, Replicas: 1, Format: at(i).format})
		keep(e)
	}, func(i int) {
		keep(mem.PutEnvelope(ctx, keys[i], at(i).data, store.PutOpts{Format: at(i).format}))
	}) / 1e3
	return err
}

// inSitu reads, on the live system after the timed phase, what only a
// steady-state heap can show. Traced run only: it disturbs the system.
func (s *sut) inSitu(n int, out map[string]float64) {
	sys := s.sys
	mgr := sys.Runtime().Manager()
	out["core.victim_select_us"] = perCall(n/10+1, func(int) { mgr.SelectVictim(core.VictimColdest) }) / 1e3
	out["devctx.check_ns"] = perCall(n, func(int) { sys.Monitor().Check() })
	out["obs.write_metrics_us"] = perCall(n/100+1, func(int) { _ = sys.WriteMetrics(io.Discard) }) / 1e3
	var series float64
	for _, fam := range sys.Metrics().Gather() {
		series += float64(len(fam.Points))
	}
	out["obs.series"] = series
	if _, timed := out["collect_ns"]; !timed {
		// The chase round times its own Collect; elsewhere the steady-state
		// heap is collected a few times here.
		const collects = 9
		out["collect_ns"] = perCall(collects, func(int) { sys.Collect() }) * collects
		out["collects"] = collects
	}
}

// traceDerived computes what the spans of one repetition say: how much of a
// faulting hop (or op) and of a swap-out the program spent outside the device
// decorator, how long the device was busy, and what the link added.
func traceDerived(spans []span, lan bool, swaps float64, wallS float64, out map[string]float64) {
	outerName := "store."
	if lan {
		outerName = "link."
	}
	device := unionOf(spansNamed(spans, outerName))
	outside := func(prefix string) []float64 {
		var us []float64
		for _, iv := range spansNamed(spans, prefix) {
			us = append(us, float64(iv.end-iv.start-overlapNS(iv, device))/1e3)
		}
		return us
	}
	if f := outside("fault-"); len(f) > 0 {
		out["core.swapin_nonfetch_us"] = median(f)
	}
	if so := outside("swapout"); len(so) > 0 {
		out["core.swapout_nonship_us"] = median(so)
	}
	// How long, and how often, the device was inside a faulting hop: the
	// in-situ store (and link) term of unexplained_share.
	faults := unionOf(spansNamed(spans, "fault-"))
	var inFaultNS, callsInFault float64
	for _, iv := range spansNamed(spans, outerName) {
		if ns := overlapNS(iv, faults); ns > 0 {
			inFaultNS += float64(ns)
			callsInFault++
		}
	}
	if n := float64(len(faults)); n > 0 {
		out["device_us_per_fault"] = inFaultNS / n / 1e3
		out["device_calls_per_fault"] = callsInFault / n
	}
	if lan && swaps > 0 {
		// The link's self time: its decorator's spans minus the store's inside.
		delayMS := float64(totalNS(spansNamed(spans, "link."))-totalNS(spansNamed(spans, "store."))) / 1e6
		out["link.delay_ms_per_swap"] = delayMS / swaps
		out["link.share"] = delayMS / 1e3 / wallS
	}
}

// heapLayerFor runs heapLayer with the workload's class.
func heapLayerFor(workload string, n int, out map[string]float64) error {
	if workload == wTraverse {
		return heapLayer(bench.NodeClass(), "payload", heap.Bytes(make([]byte, bench.DefaultPayload)), n, out)
	}
	return heapLayer(taskClass(), "title", heap.Str(newPad(1)), n, out)
}

// faultCounters reads the fault engine's counters and the demand-fault count.
func faultCounters(sys *objectswap.System) map[string]float64 {
	snap := sys.Runtime().FaultEngine().Snapshot()
	out := map[string]float64{
		"fault.prefetch_installed": float64(snap.Installed),
		"fault.prefetch_hits":      float64(snap.Hits),
		"fault.prefetch_wasted":    float64(snap.Wasted),
		"fault.coalesced_waiters":  float64(snap.CoalescedWaiters),
		"fault.batch_keys":         float64(snap.BatchKeys),
	}
	if hs, ok := sys.Metrics().HistogramSnapshotOf("objectswap_fault_seconds", "swap_in", "reload", "demand"); ok {
		out["fault.demand_faults"] = float64(hs.Count)
	}
	return out
}
