package main

import (
	"fmt"
	"math/rand"
	"time"

	"objectswap"
)

// pressure-zipf: a working set larger than the heap, reads beside writes.
const (
	zipfS = 1.1
	zipfV = 4
	// zipfStream seeds the rank sequence, the same for every workload seed.
	zipfStream = 20070625
	// heapShare is HeapCapacity as a share of the graph's accounted bytes.
	heapShare = 0.40
	// Ops per repetition at nominalSeconds; a quarter as many warm up first.
	zipfOps = 3200
	// writeEvery: one op in this many writes a new versioned title on object
	// writeObject of the cluster it walks.
	writeEvery  = 4
	writeObject = 7
)

// clusterBytes builds one cluster on an unlimited heap and returns what the
// heap accounts for it, so the capacity can be set before the real graph is
// built under pressure.
func clusterBytes(seed int64) (int64, error) {
	sys, err := objectswap.New(objectswap.Config{})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	cls := sys.MustRegisterClass(taskClass())
	before := sys.Heap().Used()
	if _, err := buildGraph(sys, cls, seed, 1, false); err != nil {
		return 0, err
	}
	return sys.Heap().Used() - before, nil
}

func runPressureZipf(rc runCfg) (*rep, error) {
	setupStart := time.Now()
	per, err := clusterBytes(rc.seed)
	if err != nil {
		return nil, err
	}
	s, err := newSUT(objectswap.Config{
		HeapCapacity:    int64(heapShare * float64(per) * float64(rc.size.zipfClusters)),
		MemoryThreshold: 0.8,
	}, rc)
	if err != nil {
		return nil, err
	}
	defer s.sys.Close()
	for _, name := range []string{"donor-a", "donor-b"} {
		if err := s.attach(name, rc.tr, false); err != nil {
			return nil, err
		}
	}
	cls := s.sys.MustRegisterClass(taskClass())
	g, err := buildGraph(s.sys, cls, rc.seed, rc.size.zipfClusters, false)
	if err != nil {
		return nil, err
	}
	r := &rep{vals: map[string]float64{"resident_bytes": float64(per)}}

	// The seed decides which cluster holds which popularity rank (and the
	// title filler); the rank sequence itself comes from one fixed stream, so
	// every seed has the same reuse-distance profile and the miss count does
	// not carry the sampling noise of a finite Zipf sample.
	perm := rand.New(rand.NewSource(rc.seed)).Perm(rc.size.zipfClusters)
	zipf := rand.NewZipf(rand.New(rand.NewSource(zipfStream)), zipfS, zipfV, uint64(rc.size.zipfClusters-1))
	ops := rc.scaled(zipfOps)
	warm := &rep{vals: map[string]float64{}}
	for i := 0; i < ops/4; i++ {
		zipfOp(s, g, nil, warm, perm[zipf.Uint64()], i)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.ops, failureLog)
	}
	r.setupS = time.Since(setupStart).Seconds()

	r.opUs = make([]float64, 0, ops)
	r.faultUs = make([]float64, 0, ops)
	err = s.timed(r, rc, func() error {
		for i := 0; i < ops; i++ {
			zipfOp(s, g, rc.tr, r, perm[zipf.Uint64()], i)
		}
		return nil
	})
	return r, err
}

// zipfOp walks cluster c from its root, checking every title, writes a new
// title on one object in one op of writeEvery, then lets the memory monitor
// look at the heap, as an application's allocation path would.
func zipfOp(s *sut, g *graph, tr *tracer, r *rep, c, n int) {
	sys := s.sys
	r.ops++
	before := s.ev.swapInCount()
	opID := tr.begin("op", true)
	start := time.Now()
	ok := true
	cur, err := sys.MustRoot(g.roots[c])
	if err != nil {
		noteFailure(err)
		ok = false
	}
	for i := 0; ok && i < perCluster; i++ {
		if i == writeObject && n%writeEvery == writeEvery-1 {
			if err := g.write(sys, cur, c, i); err != nil {
				noteFailure(err)
				ok = false
				break
			}
		}
		next, hopOK, err := g.hopRetrying(sys, cur, c, i)
		if !hopOK || err != nil {
			ok = false
		}
		if err != nil {
			break
		}
		cur = next
	}
	if ok && !cur.IsNil() {
		noteFailure(fmt.Errorf("cluster %d did not end after %d objects", c, perCluster))
		ok = false
	}
	id := tr.begin("check", false)
	sys.Monitor().Check()
	tr.end(id)
	end := time.Now()
	tr.end(opID)
	if !ok {
		r.failed++
		return
	}
	us := float64(end.Sub(start).Nanoseconds()) / 1e3
	r.opUs = append(r.opUs, us)
	if s.ev.swapInCount() != before {
		r.faultUs = append(r.faultUs, us)
		tr.add("fault-op", start, end, opID)
	}
}
