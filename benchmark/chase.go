package main

import (
	"errors"
	"fmt"
	"time"

	"objectswap"
	"objectswap/internal/core"
)

// chase-mem and chase-lan share one graph and one round; only the donor and
// the prefetch setting differ.
const (
	// Rounds per repetition at nominalSeconds.
	chaseMemRounds = 200
	chaseLanRounds = 9
	chaseWarmup    = 1 // rounds before the clock starts
)

func runChaseMem(rc runCfg) (*rep, error) { return runChase(rc, false) }
func runChaseLan(rc runCfg) (*rep, error) { return runChase(rc, true) }

// newChase builds the chain behind its donor: the system under test of both
// chase workloads.
func newChase(rc runCfg, lan bool) (*sut, *graph, error) {
	cfg := objectswap.Config{HeapCapacity: 64 << 20}
	if lan {
		cfg.Prefetch = objectswap.PrefetchConfig{Depth: 2, Workers: 2}
	}
	s, err := newSUT(cfg, rc)
	if err != nil {
		return nil, nil, err
	}
	if err := s.attach("donor", rc.tr, lan); err != nil {
		s.sys.Close()
		return nil, nil, err
	}
	cls := s.sys.MustRegisterClass(taskClass())
	g, err := buildGraph(s.sys, cls, rc.seed, rc.size.chaseClusters, true)
	if err != nil {
		s.sys.Close()
		return nil, nil, err
	}
	return s, g, nil
}

func runChase(rc runCfg, lan bool) (*rep, error) {
	setupStart := time.Now()
	rounds := rc.scaled(chaseMemRounds)
	if lan {
		rounds = rc.scaled(chaseLanRounds)
	}
	s, g, err := newChase(rc, lan)
	if err != nil {
		return nil, err
	}
	defer s.sys.Close()
	r := &rep{vals: map[string]float64{}}
	r.vals["resident_bytes"] = meanResidentBytes(s.sys)

	warm := &rep{vals: map[string]float64{}}
	for i := 0; i < chaseWarmup; i++ {
		if err := chaseRound(s, g, nil, warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	r.setupS = time.Since(setupStart).Seconds()

	n := rounds * rc.size.chaseClusters
	r.opUs = make([]float64, 0, n)
	r.faultUs = make([]float64, 0, n)
	r.swapoutUs = make([]float64, 0, n)
	err = s.timed(r, rc, func() error {
		for i := 0; i < rounds; i++ {
			if err := chaseRound(s, g, rc.tr, r); err != nil {
				return err
			}
		}
		return nil
	})
	return r, err
}

// chaseRound is one round: swap out every cluster tail-first (each call
// timed), collect, then walk head to tail. An op is one cluster visit: the
// entry hop that faults plus the resident hops behind it. The prefetcher is
// quiesced only here, between rounds, never inside the walk. The returned
// error is for conditions the round cannot continue from; failed ops are
// counted in r.
func chaseRound(s *sut, g *graph, tr *tracer, r *rep) error {
	sys := s.sys
	round := tr.begin("round", false)
	defer tr.end(round)
	for c := len(g.clusters) - 1; c >= 0; c-- {
		id := tr.begin("swapout", false)
		t0 := time.Now()
		_, err := sys.SwapOut(g.clusters[c])
		d := time.Since(t0)
		tr.end(id)
		if errors.Is(err, core.ErrClusterSwapped) {
			// A walk lost in the round before never reached this cluster: it
			// is still out, and the refused call is no swap-out sample.
			continue
		}
		if err != nil {
			return fmt.Errorf("swap-out of cluster %d: %w", c, err)
		}
		r.swapoutUs = append(r.swapoutUs, float64(d.Nanoseconds())/1e3)
	}
	id := tr.begin("collect", false)
	t0 := time.Now()
	sys.Collect()
	r.vals["collect_ns"] += float64(time.Since(t0).Nanoseconds())
	r.vals["collects"]++
	tr.end(id)

	cur, err := sys.MustRoot("head")
	if err != nil {
		return err
	}
	for c := range g.clusters {
		r.ops++
		opID := tr.begin("op", true)
		opStart := time.Now()
		opOK := true
		for i := 0; i < perCluster; i++ {
			before := s.ev.swapInCount()
			h0 := time.Now()
			next, ok, err := g.hopRetrying(sys, cur, c, i)
			h1 := time.Now()
			if err != nil {
				tr.end(opID)
				// The walk is lost: this visit and the rest of the round fail.
				lost := len(g.clusters) - c
				r.ops += lost - 1
				r.failed += lost
				sys.Runtime().FaultEngine().Quiesce()
				return nil
			}
			if !ok {
				opOK = false
			} else if s.ev.swapInCount() != before {
				r.faultUs = append(r.faultUs, float64(h1.Sub(h0).Nanoseconds())/1e3)
				tr.add("fault-hop", h0, h1, opID)
			}
			cur = next
		}
		d := time.Since(opStart)
		tr.end(opID)
		if opOK {
			r.opUs = append(r.opUs, float64(d.Nanoseconds())/1e3)
		} else {
			r.failed++
		}
	}
	if !cur.IsNil() {
		r.failed++
		noteFailure(fmt.Errorf("walk did not end at the tail after %d objects", len(g.clusters)*perCluster))
	}
	sys.Runtime().FaultEngine().Quiesce()
	return nil
}

// meanResidentBytes is the mean accounted size of the loaded, non-empty
// swap-clusters: the denominator of wire.bytes_per_resident_byte.
func meanResidentBytes(sys *objectswap.System) float64 {
	var sum float64
	var n int
	for _, info := range sys.Clusters() {
		if info.ID != objectswap.RootCluster && !info.Swapped && info.Objects > 0 {
			sum += float64(info.ResidentBytes)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
