package bench

import (
	"fmt"
	"time"

	"objectswap/internal/baseline"
	"objectswap/internal/core"
	"objectswap/internal/energy"
	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/store"
)

// TransferResult is one row of the transfer-behaviour experiment (§4
// prototype context: swapped XML over a Bluetooth-class link).
type TransferResult struct {
	Objects      int           // objects in the swapped cluster
	PayloadBytes int           // per-object payload
	XMLBytes     int           // wrapper document size
	SwapOutTime  time.Duration // modelled link time to ship
	SwapInTime   time.Duration // modelled link time to fetch back
	Energy       energy.Joules // radio energy of the full round trip
	Profile      string
}

// RunSwapTransfer swaps single clusters of the given sizes over a simulated
// link and reports wrapper sizes and modelled transfer times.
func RunSwapTransfer(clusterSizes []int, payloadBytes int, profile link.Profile) ([]TransferResult, error) {
	var out []TransferResult
	for _, n := range clusterSizes {
		h := heap.New(0)
		reg := heap.NewRegistry()
		clock := &link.VirtualClock{}
		wrapped := link.Wrap(store.NewMem(0), profile, clock)
		devices := store.NewRegistry(store.SelectMostFree)
		if err := devices.Add("radio-neighbor", wrapped); err != nil {
			return nil, err
		}
		rt := core.NewRuntime(h, reg, core.WithStores(devices))
		cls := NodeClass()
		rt.MustRegisterClass(cls)

		cluster := rt.Manager().NewCluster()
		var prev *heap.Object
		payload := make([]byte, payloadBytes)
		for i := 0; i < n; i++ {
			o, err := rt.NewObject(cls, cluster)
			if err != nil {
				return nil, err
			}
			if err := o.SetFieldByName("payload", heap.Bytes(payload)); err != nil {
				return nil, err
			}
			if prev == nil {
				if err := rt.SetRoot("head", o.RefTo()); err != nil {
					return nil, err
				}
			} else if err := rt.SetFieldValue(prev.RefTo(), "next", o.RefTo()); err != nil {
				return nil, err
			}
			prev = o
		}

		ev, err := rt.SwapOut(cluster)
		if err != nil {
			return nil, fmt.Errorf("bench: transfer swap-out (%d objects): %w", n, err)
		}
		outTime := clock.Elapsed()
		clock.Reset()
		rt.Collect()
		if _, err := rt.SwapIn(cluster); err != nil {
			return nil, fmt.Errorf("bench: transfer swap-in (%d objects): %w", n, err)
		}
		model := energy.PocketPC2003()
		out = append(out, TransferResult{
			Objects:      n,
			PayloadBytes: payloadBytes,
			XMLBytes:     ev.Bytes,
			SwapOutTime:  outTime,
			SwapInTime:   clock.Elapsed(),
			Energy:       model.Transfer(int64(ev.Bytes), int64(ev.Bytes)),
			Profile:      profile.Name,
		})
	}
	return out, nil
}

// ReclaimResult is one row of the memory-reclamation experiment (§3/§5: the
// point of swapping is to free the memory of live, reachable objects).
type ReclaimResult struct {
	Clusters       int
	ObjectsPer     int
	UsedLoaded     int64 // bytes with everything resident
	UsedAfterSwap  int64 // bytes after swapping all but one cluster + GC
	UsedAfterBack  int64 // bytes after reloading everything
	FreedFraction  float64
	GraphPreserved bool
}

// RunReclaim builds clusters, swaps all but the first out, measures the
// reclaimed memory, reloads, and verifies the graph.
func RunReclaim(clusters, objectsPer, payloadBytes int) (ReclaimResult, error) {
	h := heap.New(0)
	reg := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	if err := devices.Add("neighbor", store.NewMem(0)); err != nil {
		return ReclaimResult{}, err
	}
	rt := core.NewRuntime(h, reg, core.WithStores(devices))
	cls := NodeClass()
	rt.MustRegisterClass(cls)

	payload := make([]byte, payloadBytes)
	var ids []core.ClusterID
	var prev *heap.Object
	total := 0
	for c := 0; c < clusters; c++ {
		cluster := rt.Manager().NewCluster()
		ids = append(ids, cluster)
		for i := 0; i < objectsPer; i++ {
			o, err := rt.NewObject(cls, cluster)
			if err != nil {
				return ReclaimResult{}, err
			}
			if err := o.SetFieldByName("payload", heap.Bytes(payload)); err != nil {
				return ReclaimResult{}, err
			}
			if prev == nil {
				if err := rt.SetRoot("head", o.RefTo()); err != nil {
					return ReclaimResult{}, err
				}
			} else if err := rt.SetFieldValue(prev.RefTo(), "next", o.RefTo()); err != nil {
				return ReclaimResult{}, err
			}
			prev = o
			total++
		}
	}

	res := ReclaimResult{Clusters: clusters, ObjectsPer: objectsPer, UsedLoaded: h.Used()}
	for _, c := range ids[1:] {
		if _, err := rt.SwapOut(c); err != nil {
			return res, err
		}
	}
	rt.Collect()
	res.UsedAfterSwap = h.Used()
	res.FreedFraction = 1 - float64(res.UsedAfterSwap)/float64(res.UsedLoaded)

	// Reload everything by walking the list, then verify length.
	head, _ := rt.Root("head")
	out, err := rt.Invoke(head, "walk", heap.Int(1))
	if err != nil {
		return res, err
	}
	res.UsedAfterBack = h.Used()
	res.GraphPreserved = out[0].MustInt() == int64(total)
	return res, nil
}

// NaiveComparison contrasts Object-Swapping with the naive one-proxy-per-
// object design on the same workload (§5's closing comparison).
type NaiveComparison struct {
	Objects int

	// Swap-cluster design (cluster size = ClusterSize).
	ClusterSize        int
	SwapProxies        int
	SwapBytesLoaded    int64
	SwapBytesSwapped   int64 // after swapping everything + GC
	SwapTraversalTime  time.Duration
	SwapReloadFaults   int // cluster reloads to traverse after full swap-out
	NaiveProxies       int
	NaiveBytesLoaded   int64
	NaiveBytesSwapped  int64 // surrogates remain
	NaiveTraversalTime time.Duration
	NaiveReloadFaults  int // per-object faults to traverse after full offload
}

// RunNaiveComparison measures both designs on an n-object list with the
// given payload and swap-cluster size.
func RunNaiveComparison(n, payloadBytes, clusterSize int) (NaiveComparison, error) {
	res := NaiveComparison{Objects: n, ClusterSize: clusterSize}

	// --- Swap-cluster design -------------------------------------------
	env, err := Build(Config{Objects: n, PayloadBytes: payloadBytes, ClusterSize: clusterSize})
	if err != nil {
		return res, err
	}
	rt := env.RT
	res.SwapProxies = rt.Manager().ProxyCount()
	res.SwapBytesLoaded = env.heap.Used()

	if _, err := runRecursion(env, "walk"); err != nil { // warm-up
		return res, err
	}
	start := time.Now()
	if _, err := runRecursion(env, "walk"); err != nil {
		return res, err
	}
	res.SwapTraversalTime = time.Since(start)

	for _, c := range rt.Manager().SelectVictims(core.VictimColdest) {
		if _, err := rt.SwapOut(c); err != nil {
			return res, err
		}
	}
	rt.Collect()
	res.SwapBytesSwapped = env.heap.Used()

	before := swapInCount(rt)
	if _, err := runRecursion(env, "walk"); err != nil {
		return res, err
	}
	res.SwapReloadFaults = swapInCount(rt) - before

	// --- Naive per-object design ----------------------------------------
	h := heap.New(0)
	reg := heap.NewRegistry()
	cls := NodeClass()
	reg.MustRegister(cls)
	naive := baseline.NewPerObject(h, reg, store.NewMem(0))
	refs := make([]heap.Value, n)
	payload := make([]byte, payloadBytes)
	for i := range refs {
		v, err := naive.NewObject(cls)
		if err != nil {
			return res, err
		}
		if err := naive.SetFieldValue(v, "payload", heap.Bytes(payload)); err != nil {
			return res, err
		}
		refs[i] = v
	}
	for i := 0; i < n-1; i++ {
		if err := naive.SetFieldValue(refs[i], "next", refs[i+1]); err != nil {
			return res, err
		}
	}
	res.NaiveProxies = naive.ProxyCount()
	res.NaiveBytesLoaded = h.Used()

	if _, err := naive.Invoke(refs[0], "walk", heap.Int(1)); err != nil { // warm-up
		return res, err
	}
	start = time.Now()
	if _, err := naive.Invoke(refs[0], "walk", heap.Int(1)); err != nil {
		return res, err
	}
	res.NaiveTraversalTime = time.Since(start)

	if _, err := naive.OffloadAll(); err != nil {
		return res, err
	}
	res.NaiveBytesSwapped = h.Used()

	beforeFaults := naive.Faults()
	if _, err := naive.Invoke(refs[0], "walk", heap.Int(1)); err != nil {
		return res, err
	}
	res.NaiveReloadFaults = naive.Faults() - beforeFaults
	return res, nil
}

// swapInCount totals swap-ins across all clusters.
func swapInCount(rt *core.Runtime) int {
	total := 0
	for _, info := range rt.Manager().InfoAll() {
		total += int(info.SwapIns)
	}
	return total
}

// CompressionComparison contrasts swapping a cluster against compressing its
// payloads in place (§6's Chen et al. comparator).
type CompressionComparison struct {
	Objects      int
	PayloadBytes int

	SwapFreedBytes int64
	SwapCPU        time.Duration // serialization + bookkeeping (no link time)
	SwapXMLBytes   int64         // shipped volume (radio energy driver)
	SwapEnergy     energy.Joules // CPU + radio round trip

	CompressSavedBytes int64
	CompressCPU        time.Duration
	DecompressCPU      time.Duration
	CompressEnergy     energy.Joules // pure CPU
}

// RunCompressionComparison measures both memory-reduction mechanisms on the
// same graph shape (compressible payloads).
func RunCompressionComparison(n, payloadBytes int) (CompressionComparison, error) {
	res := CompressionComparison{Objects: n, PayloadBytes: payloadBytes}

	// Swapping.
	env, err := Build(Config{Objects: n, PayloadBytes: payloadBytes, ClusterSize: n})
	if err != nil {
		return res, err
	}
	rt := env.RT
	used := env.heap.Used()
	start := time.Now()
	for _, c := range rt.Manager().SelectVictims(core.VictimColdest) {
		ev, err := rt.SwapOut(c)
		if err != nil {
			return res, err
		}
		res.SwapXMLBytes += int64(ev.Bytes)
	}
	rt.Collect()
	res.SwapCPU = time.Since(start)
	res.SwapFreedBytes = used - env.heap.Used()
	model := energy.PocketPC2003()
	res.SwapEnergy = model.CPU(res.SwapCPU) + model.Transfer(res.SwapXMLBytes, res.SwapXMLBytes)

	// Compression over an identical direct-runtime graph with compressible
	// payloads.
	direct, err := Build(Config{Objects: n, PayloadBytes: 0, ClusterSize: 0})
	if err != nil {
		return res, err
	}
	h := direct.heap
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i % 7)
	}
	for _, oid := range h.IDs() {
		o, err := h.Get(oid)
		if err != nil {
			continue
		}
		if err := o.SetFieldByName("payload", heap.Bytes(payload)); err != nil {
			return res, err
		}
	}
	comp := baseline.NewCompressor(h, payloadBytes, 0)
	st, err := comp.Sweep()
	if err != nil {
		return res, err
	}
	res.CompressSavedBytes = st.Saved()
	res.CompressCPU = st.CompressCPU

	// Touch everything back (decompression cost).
	for _, oid := range h.IDs() {
		o, err := h.Get(oid)
		if err != nil || o.Class().Special != heap.SpecialNone {
			continue
		}
		if _, err := comp.Access(oid, "payload"); err != nil {
			return res, err
		}
	}
	res.DecompressCPU = comp.StatsSnapshot().DecompressCPU
	res.CompressEnergy = energy.PocketPC2003().CPU(res.CompressCPU + res.DecompressCPU)
	return res, nil
}
