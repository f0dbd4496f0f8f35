package bench

import (
	"fmt"
	"math/rand"
	"time"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/store"
)

// Ablations for the design choices DESIGN.md calls out. The paper presents
// swap-cluster size as "adaptable" and victim selection as policy-driven but
// evaluates neither dimension beyond Figure 5's proxy overhead; these
// experiments quantify both under memory pressure.

// SweepConfig parameterizes the working-set workload used by the ablations:
// several independent chains, accessed with a Zipf-skewed distribution
// through a limited heap, so cold chains must swap to a (simulated
// Bluetooth) device and hot ones fault back.
type SweepConfig struct {
	Chains       int   // independent chains (hot/cold working set)
	ChainLen     int   // objects per chain
	PayloadBytes int   // payload per object
	HeapBudget   int64 // device heap capacity (0 = derive ~40% of data)
	Accesses     int   // number of chain accesses
	Window       int   // elements read per access (partial traversal)
	Seed         int64 // deterministic access pattern
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Chains <= 0 {
		c.Chains = 8
	}
	if c.ChainLen <= 0 {
		c.ChainLen = 100
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 64
	}
	if c.Accesses <= 0 {
		c.Accesses = 60
	}
	if c.Window <= 0 {
		c.Window = 25
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// SweepResult is one measured configuration of an ablation.
type SweepResult struct {
	Label        string
	ClusterSize  int
	Strategy     core.VictimStrategy
	SwapOuts     uint64
	SwapIns      uint64
	BytesShipped int64         // payload bytes over the link, both directions
	LinkTime     time.Duration // virtual transfer time at 700 Kbps
	WallTime     time.Duration // host CPU time for the access phase
}

// sweepEnv is one instantiated workload.
type sweepEnv struct {
	rt    *core.Runtime
	flink *link.Link
	clock *link.VirtualClock
	heads []heap.Value
}

// buildSweepEnv constructs the chains under the given cluster size and
// installs an evictor with the given strategy.
func buildSweepEnv(cfg SweepConfig, clusterSize int, strategy core.VictimStrategy) (*sweepEnv, error) {
	objBytes := int64(32 + 2*16 + cfg.PayloadBytes)
	budget := cfg.HeapBudget
	if budget <= 0 {
		total := objBytes * int64(cfg.Chains*cfg.ChainLen)
		budget = total*2/5 + 8192 // ~40% of the data + middleware slack
	}
	h := heap.New(budget)
	clock := &link.VirtualClock{}
	flink := link.Wrap(store.NewMem(0), link.Bluetooth1(), clock)
	devices := store.NewRegistry(store.SelectMostFree)
	if err := devices.Add("radio-neighbor", flink); err != nil {
		return nil, err
	}
	rt := core.NewRuntime(h, heap.NewRegistry(), core.WithStores(devices))
	cls := NodeClass()
	rt.MustRegisterClass(cls)
	rt.SetEvictor(func(need int64) error {
		return rt.EvictWith(strategy, need)
	})

	env := &sweepEnv{rt: rt, flink: flink, clock: clock}
	payload := make([]byte, cfg.PayloadBytes)
	for c := 0; c < cfg.Chains; c++ {
		var cluster core.ClusterID
		var prev *heap.Object
		for i := 0; i < cfg.ChainLen; i++ {
			if i%clusterSize == 0 {
				cluster = rt.Manager().NewCluster()
			}
			o, err := rt.NewObject(cls, cluster)
			if err != nil {
				return nil, fmt.Errorf("chain %d obj %d: %w", c, i, err)
			}
			if err := o.SetFieldByName("payload", heap.Bytes(payload)); err != nil {
				return nil, err
			}
			if prev == nil {
				root := fmt.Sprintf("chain-%d", c)
				if err := rt.SetRoot(root, o.RefTo()); err != nil {
					return nil, err
				}
			} else if err := rt.SetFieldValue(prev.RefTo(), "next", o.RefTo()); err != nil {
				return nil, err
			}
			prev = o
		}
		head, _ := rt.Root(fmt.Sprintf("chain-%d", c))
		env.heads = append(env.heads, head)
	}
	// The build phase's transfers are setup cost, not measurement.
	env.clock.Reset()
	return env, nil
}

// runAccessPhase drives the skewed access pattern and gathers the counters.
func (env *sweepEnv) runAccessPhase(cfg SweepConfig) (SweepResult, error) {
	r := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(r, 1.4, 8, uint64(cfg.Chains-1))

	start := time.Now()
	for a := 0; a < cfg.Accesses; a++ {
		chain := int(zipf.Uint64())
		cur := env.heads[chain]
		for step := 0; step < cfg.Window && !cur.IsNil(); step++ {
			next, err := env.rt.Field(cur, "next")
			if err != nil {
				return SweepResult{}, fmt.Errorf("access %d chain %d step %d: %w", a, chain, step, err)
			}
			cur = next
		}
	}
	res := SweepResult{WallTime: time.Since(start), LinkTime: env.clock.Elapsed()}
	ts := env.flink.TrafficStats()
	res.BytesShipped = ts.BytesSent + ts.BytesReceived
	for _, info := range env.rt.Manager().InfoAll() {
		res.SwapOuts += info.SwapOuts
		res.SwapIns += info.SwapIns
	}
	return res, nil
}

// RunClusterSizeSweep measures the paper's "adaptable size" trade-off: small
// swap-clusters move fewer bytes per fault but fault more often and carry
// more proxies; large ones amortize transfers but ship cold data.
func RunClusterSizeSweep(cfg SweepConfig, sizes []int) ([]SweepResult, error) {
	cfg = cfg.withDefaults()
	var out []SweepResult
	for _, size := range sizes {
		env, err := buildSweepEnv(cfg, size, core.VictimColdest)
		if err != nil {
			return nil, fmt.Errorf("bench: sweep size %d: %w", size, err)
		}
		res, err := env.runAccessPhase(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: sweep size %d: %w", size, err)
		}
		res.Label = fmt.Sprintf("cluster=%d", size)
		res.ClusterSize = size
		res.Strategy = core.VictimColdest
		out = append(out, res)
	}
	return out, nil
}

// RunVictimStrategySweep measures eviction strategies on the same skewed
// workload (cluster size fixed).
func RunVictimStrategySweep(cfg SweepConfig, clusterSize int) ([]SweepResult, error) {
	cfg = cfg.withDefaults()
	var out []SweepResult
	for _, strategy := range []core.VictimStrategy{
		core.VictimColdest, core.VictimLargest, core.VictimLeastUsed,
	} {
		env, err := buildSweepEnv(cfg, clusterSize, strategy)
		if err != nil {
			return nil, fmt.Errorf("bench: strategy %s: %w", strategy, err)
		}
		res, err := env.runAccessPhase(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: strategy %s: %w", strategy, err)
		}
		res.Label = strategy.String()
		res.ClusterSize = clusterSize
		res.Strategy = strategy
		out = append(out, res)
	}
	return out, nil
}
