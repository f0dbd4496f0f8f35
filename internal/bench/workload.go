// Package bench builds the evaluation workloads of the paper's Section 5 and
// provides the harness that regenerates its figure and comparisons.
//
// The micro-benchmark of Figure 5 measures graph-transversal slowdown under
// Object-Swapping: a list of 10000 64-byte objects, quasi-empty methods, and
// four tests —
//
//	A1: recursion along the list passing an int (recursion depth);
//	A2: the same outer recursion, but each step triggers an inner recursion
//	    of depth ≤ 10 that returns a reference (creating a mediating proxy
//	    whenever it crossed a swap-cluster boundary);
//	B1: a full iteration via a global variable (one fresh proxy per step);
//	B2: B1 with the assign optimization (self-patching cursor proxy).
//
// Each test runs under swap-cluster sizes 20, 50 and 100, and under
// "NO SWAP-CLUSTERS" (the direct runtime) as the timing floor.
package bench

import (
	"fmt"
	"time"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// Defaults from the paper.
const (
	DefaultObjects = 10000
	DefaultPayload = 64
	// InnerDepth is Test A2's inner recursion bound.
	InnerDepth = 10
)

// NodeClass builds the benchmark list-node class with the four methods the
// tests exercise. Methods are quasi-empty, as in the paper, "in order not to
// mask the overhead being measured".
func NodeClass() *heap.Class {
	c := heap.NewClass("BenchNode",
		heap.FieldDef{Name: "payload", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
	// next: return the next element (B1/B2 iterations).
	c.AddMethod("next", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		return call.Return(v), nil
	})
	// walk: Test A1's recursion, incrementing an int argument per step.
	c.AddMethod("walk", func(call *heap.Call) ([]heap.Value, error) {
		depth, err := call.Arg(0).Int()
		if err != nil {
			return nil, err
		}
		next, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		if next.IsNil() {
			return call.Return(heap.Int(depth)), nil
		}
		return call.RT.Invoke(next, "walk", heap.Int(depth+1))
	})
	// fetch: Test A2's inner recursion — return a reference to the object k
	// positions ahead (or the last), without modifying the graph.
	c.AddMethod("fetch", func(call *heap.Call) ([]heap.Value, error) {
		k, err := call.Arg(0).Int()
		if err != nil {
			return nil, err
		}
		next, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		if k <= 0 || next.IsNil() {
			return call.Return(call.Self.RefTo()), nil
		}
		return call.RT.Invoke(next, "fetch", heap.Int(k-1))
	})
	// outer: Test A2's outer recursion — per step, run the inner recursion
	// (discarding the mediated reference it returns), then advance.
	c.AddMethod("outer", func(call *heap.Call) ([]heap.Value, error) {
		depth, err := call.Arg(0).Int()
		if err != nil {
			return nil, err
		}
		if _, err := call.RT.Invoke(call.Self.RefTo(), "fetch", heap.Int(InnerDepth)); err != nil {
			return nil, err
		}
		next, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		if next.IsNil() {
			return call.Return(heap.Int(depth)), nil
		}
		return call.RT.Invoke(next, "outer", heap.Int(depth+1))
	})
	return c
}

// Config parameterizes one benchmark environment.
type Config struct {
	// Objects is the list length (paper: 10000).
	Objects int
	// PayloadBytes is the per-object payload (paper: 64).
	PayloadBytes int
	// ClusterSize is the swap-cluster size; 0 builds the "NO SWAP-CLUSTERS"
	// environment on the direct runtime.
	ClusterSize int
}

// Label renders the configuration column label used in Figure 5.
func (c Config) Label() string {
	if c.ClusterSize <= 0 {
		return "NO SWAP-CLUSTERS"
	}
	return fmt.Sprintf("%d", c.ClusterSize)
}

func (c Config) withDefaults() Config {
	if c.Objects <= 0 {
		c.Objects = DefaultObjects
	}
	if c.PayloadBytes < 0 {
		c.PayloadBytes = DefaultPayload
	}
	return c
}

// Env is a built benchmark environment: a list installed either under the
// swapping runtime (with swap-clusters of the configured size) or under the
// direct runtime (the lower-bound configuration).
type Env struct {
	Config  Config
	Invoker heap.Invoker
	Head    heap.Value

	// RT is non-nil for swapping environments.
	RT *core.Runtime
	// direct is the floor's runtime, non-nil for the environment without
	// swap-clusters.
	direct *heap.DirectRuntime
	// heap backs both environments.
	heap *heap.Heap
}

// setCursor assigns the iteration global (swap-cluster-0 variable), through
// the environment's runtime and so under its lock: the floor pays for the
// assignment what the swapping runtime pays.
func (e *Env) setCursor(v heap.Value) error {
	if e.RT != nil {
		return e.RT.SetRoot("cursor", v)
	}
	e.direct.WithHeap(func(h *heap.Heap) { h.SetRoot("cursor", v) })
	return nil
}

// Build constructs the environment for cfg.
func Build(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	h := heap.New(0)
	cls := NodeClass()

	env := &Env{Config: cfg, heap: h}
	payload := make([]byte, cfg.PayloadBytes)

	if cfg.ClusterSize <= 0 {
		// NO SWAP-CLUSTERS: plain objects on the direct runtime.
		rt := heap.NewDirectRuntime(h)
		env.Invoker, env.direct = rt, rt
		var prev *heap.Object
		for i := 0; i < cfg.Objects; i++ {
			o, err := h.New(cls)
			if err != nil {
				return nil, err
			}
			if err := o.SetFieldByName("payload", heap.Bytes(payload)); err != nil {
				return nil, err
			}
			if prev == nil {
				h.SetRoot("head", o.RefTo())
			} else if err := prev.SetFieldByName("next", o.RefTo()); err != nil {
				return nil, err
			}
			prev = o
		}
		head, _ := h.Root("head")
		env.Head = head
		return env, nil
	}

	reg := heap.NewRegistry()
	devices := store.NewRegistry(store.SelectMostFree)
	if err := devices.Add("bench-neighbor", store.NewMem(0)); err != nil {
		return nil, err
	}
	rt := core.NewRuntime(h, reg, core.WithStores(devices))
	rt.MustRegisterClass(cls)
	env.Invoker = rt
	env.RT = rt

	var cluster core.ClusterID
	var prev *heap.Object
	for i := 0; i < cfg.Objects; i++ {
		if i%cfg.ClusterSize == 0 {
			cluster = rt.Manager().NewCluster()
		}
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
	head, _ := rt.Root("head")
	env.Head = head
	return env, nil
}

// runRecursion executes Test A1 (method "walk") or A2 ("outer") from the
// list head and returns the final (outer) recursion depth.
func runRecursion(env *Env, method string) (int64, error) {
	out, err := env.Invoker.Invoke(env.Head, method, heap.Int(1))
	if err != nil {
		return 0, err
	}
	return out[0].MustInt(), nil
}

// runIteration executes Test B1, a full iteration via the global cursor, or,
// with assign, Test B2, the same iteration with the assign optimization
// (meaningful only for swapping environments; on the direct runtime it
// degenerates to B1, which is the correct lower bound). It returns the
// number of steps taken.
func runIteration(env *Env, assign bool) (int64, error) {
	cur := env.Head
	if assign && env.RT != nil {
		// The cursor variable gets its own self-patching proxy; the head
		// global keeps its own mediation untouched.
		c, err := env.RT.AssignedCursor(cur)
		if err != nil {
			return 0, err
		}
		cur = c
	}
	if err := env.setCursor(cur); err != nil {
		return 0, err
	}
	var steps int64
	for {
		out, err := env.Invoker.Invoke(cur, "next")
		if err != nil {
			return steps, err
		}
		if out[0].IsNil() {
			return steps, nil
		}
		cur = out[0]
		if err := env.setCursor(cur); err != nil {
			return steps, err
		}
		steps++
	}
}

// Result is one cell of the Figure 5 table.
type Result struct {
	Test    string
	Config  Config
	Elapsed time.Duration
	Checked int64 // the workload's self-check value (depth / steps)
}

// Tests enumerates the Figure 5 test names in order.
var Tests = []string{"A1", "A2", "B1", "B2"}

// RunTest executes one named test on env, timing it.
func RunTest(env *Env, test string) (Result, error) {
	var fn func(*Env) (int64, error)
	switch test {
	case "A1":
		fn = func(env *Env) (int64, error) { return runRecursion(env, "walk") }
	case "A2":
		fn = func(env *Env) (int64, error) { return runRecursion(env, "outer") }
	case "B1":
		fn = func(env *Env) (int64, error) { return runIteration(env, false) }
	case "B2":
		fn = func(env *Env) (int64, error) { return runIteration(env, true) }
	default:
		return Result{}, fmt.Errorf("bench: unknown test %q", test)
	}
	start := time.Now()
	checked, err := fn(env)
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s on %s: %w", test, env.Config.Label(), err)
	}
	want := int64(env.Config.Objects)
	if test == "B1" || test == "B2" {
		want--
	}
	if checked != want {
		return Result{}, fmt.Errorf("bench: %s on %s: self-check %d, want %d (graph corrupted)",
			test, env.Config.Label(), checked, want)
	}
	return Result{Test: test, Config: env.Config, Elapsed: elapsed, Checked: checked}, nil
}

// RunFig5 regenerates the full Figure 5 grid: every test under each of the
// paper's four configurations (swap-clusters of 20, 50, 100 and none). A
// fresh environment is built per (test, config) pair so tests do not
// disturb each other (B1 leaves proxy churn behind); one
// unmeasured warm-up run precedes the measurement so cold-start effects
// (host allocator growth, map warm-up) do not mask the overhead under
// study, mirroring the paper's steady-state micro-benchmark.
func RunFig5(objects int) ([]Result, error) {
	var results []Result
	for _, test := range Tests {
		for _, size := range []int{20, 50, 100, 0} {
			cfg := Config{Objects: objects, PayloadBytes: DefaultPayload, ClusterSize: size}
			env, err := Build(cfg)
			if err != nil {
				return nil, err
			}
			if _, err := RunTest(env, test); err != nil { // warm-up
				return nil, err
			}
			if env.RT != nil {
				env.RT.Collect() // drop warm-up proxy churn
			}
			res, err := RunTest(env, test)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}
	return results, nil
}
