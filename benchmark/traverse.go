package main

import (
	"fmt"
	"strings"
	"time"

	"objectswap/internal/bench"
)

// traverse-resident is the paper's Figure 5 as internal/bench builds it.
const (
	traverseClusterSize = 50
	// Rotations (A1→A2→B1→B2, clustered then NO-SWAP-CLUSTERS) per repetition
	// at nominalSeconds.
	traverseRotations = 20
)

// rotate runs the four tests once on env, collecting between passes off the
// clock, and returns each pass's time in ns, plus under "proxies" how many
// swap-cluster-proxies B1 left registered and under "collect" the time of the
// four collections. A failed self-check (the depth or
// step count bench.RunTest verifies) is returned as an error.
func rotate(env *bench.Env) (map[string]float64, error) {
	pass := make(map[string]float64, len(bench.Tests)+2)
	for _, test := range bench.Tests {
		proxies := 0
		if env.RT != nil {
			proxies = env.RT.Manager().ProxyCount()
		}
		res, err := bench.RunTest(env, test)
		if err != nil {
			return nil, err
		}
		pass[test] = float64(res.Elapsed.Nanoseconds())
		if env.RT != nil {
			if test == "B1" {
				pass["proxies"] = float64(env.RT.Manager().ProxyCount() - proxies)
			}
			start := time.Now()
			env.RT.Collect()
			pass["collect"] += float64(time.Since(start).Nanoseconds())
		}
	}
	return pass, nil
}

func runTraverseResident(rc runCfg) (*rep, error) {
	setupStart := time.Now()
	// The seed has nothing to vary here: Figure 5's list is fully specified.
	objects := float64(rc.size.traverseObjects)
	clustered, err := bench.Build(bench.Config{Objects: rc.size.traverseObjects,
		PayloadBytes: bench.DefaultPayload, ClusterSize: traverseClusterSize})
	if err != nil {
		return nil, err
	}
	plain, err := bench.Build(bench.Config{Objects: rc.size.traverseObjects, PayloadBytes: bench.DefaultPayload})
	if err != nil {
		return nil, err
	}
	for _, env := range []*bench.Env{clustered, plain} {
		if _, err := rotate(env); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	r := &rep{vals: map[string]float64{}}
	r.setupS = time.Since(setupStart).Seconds()

	rotations := rc.scaled(traverseRotations)
	samples := map[string][]float64{} // "<test>" clustered, "<test>.noswap" plain
	var wallNS float64
	for i := 0; i < rotations; i++ {
		r.ops++
		id := rc.tr.begin("op", true)
		m0, b0 := memDelta()
		pass, err := rotate(clustered)
		m1, b1 := memDelta()
		rc.tr.end(id)
		if err != nil {
			noteFailure(err)
			r.failed++
			continue
		}
		samples["proxies"] = append(samples["proxies"], pass["proxies"])
		samples["collect"] = append(samples["collect"], pass["collect"]/float64(len(bench.Tests)))
		r.mallocs += m1 - m0
		r.allocBytes += b1 - b0
		var rotNS float64
		for _, test := range bench.Tests {
			samples[test] = append(samples[test], pass[test])
			rotNS += pass[test]
		}
		wallNS += rotNS
		r.opUs = append(r.opUs, rotNS/1e3)

		base, err := rotate(plain)
		if err != nil {
			noteFailure(err)
			r.failed++
			continue
		}
		var baseNS float64
		for _, test := range bench.Tests {
			samples[test+".noswap"] = append(samples[test+".noswap"], base[test])
			baseNS += base[test]
		}
		samples["noswap"] = append(samples["noswap"], baseNS)
	}
	r.wallS = wallNS / 1e9

	// Figure 5's cells, per visit, and the headline ratio.
	var ratios []float64
	for _, test := range bench.Tests {
		c, p := median(samples[test]), median(samples[test+".noswap"])
		r.vals["core.fig5."+strings.ToLower(test)+"_ns_per_visit"] = c / objects
		if p > 0 {
			ratios = append(ratios, c/p)
		}
	}
	r.vals["core.fig5.noswap_ns_per_visit"] = median(samples["noswap"]) / (objects * float64(len(bench.Tests)))
	r.vals["proxy_overhead_x"] = geomean(ratios)
	r.vals["core.proxies_created_per_pass"] = median(samples["proxies"])
	r.vals["heap.collect_us"] = median(samples["collect"]) / 1e3

	// The fits-in-memory case must not touch the swap path at all.
	for _, info := range clustered.RT.Manager().InfoAll() {
		if info.SwapOuts+info.SwapIns > 0 || info.Swapped {
			return nil, fmt.Errorf("traverse-resident: cluster %d swapped (%d out, %d in); the workload must cause 0 swap events",
				info.ID, info.SwapOuts, info.SwapIns)
		}
	}
	r.violations = len(clustered.RT.Manager().CheckInvariants())
	r.vals["core.invariant_violations"] = float64(r.violations)
	return r, nil
}
