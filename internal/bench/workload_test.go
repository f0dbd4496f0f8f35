package bench

import (
	"strings"
	"testing"

	"objectswap/internal/core"
	"objectswap/internal/heap"
)

// small keeps unit tests fast; the real figure uses 10000.
const small = 600

// fig5Configs is the paper's four configurations for the given list size
// (swap-clusters of 20, 50, 100 and none), as RunFig5 builds them.
func fig5Configs(objects int) []Config {
	return []Config{
		{Objects: objects, PayloadBytes: DefaultPayload, ClusterSize: 20},
		{Objects: objects, PayloadBytes: DefaultPayload, ClusterSize: 50},
		{Objects: objects, PayloadBytes: DefaultPayload, ClusterSize: 100},
		{Objects: objects, PayloadBytes: DefaultPayload, ClusterSize: 0},
	}
}

// heapLen counts the environment's heap objects inside its runtime's hold.
func heapLen(env *Env) (n int) {
	if env.RT != nil {
		env.RT.Locked(func(x *core.Held) { n = x.Heap().Len() })
	} else {
		env.direct.WithHeap(func(h *heap.Heap) { n = h.Len() })
	}
	return n
}

func TestBuildEnvironments(t *testing.T) {
	for _, cfg := range fig5Configs(small) {
		env, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		if n := heapLen(env); n < small {
			t.Fatalf("%s: heap has %d objects", cfg.Label(), n)
		}
		if (env.RT != nil) != (cfg.ClusterSize > 0) {
			t.Fatalf("%s: RT presence mismatch", cfg.Label())
		}
	}
}

func TestAllTestsSelfCheck(t *testing.T) {
	for _, cfg := range fig5Configs(small) {
		cfg := cfg
		t.Run(cfg.Label(), func(t *testing.T) {
			for _, test := range Tests {
				env, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunTest(env, test)
				if err != nil {
					t.Fatalf("%s: %v", test, err)
				}
				var want int64
				switch test {
				case "A1", "A2":
					want = small // recursion depth counts all nodes
				case "B1", "B2":
					want = small - 1 // steps between nodes
				}
				if res.Checked != want {
					t.Fatalf("%s self-check = %d, want %d", test, res.Checked, want)
				}
			}
		})
	}
}

func TestProxyEconomyMatchesPaperNarrative(t *testing.T) {
	// Construction installs one boundary proxy per cluster edge; B1 churns
	// ~one proxy per step; B2 churns none. These counts are the mechanism
	// behind Figure 5's shape.
	cfg := Config{Objects: small, PayloadBytes: 8, ClusterSize: 20}

	env, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	built := env.RT.Manager().ProxyCount()
	wantBoundaries := small/20 - 1 + 1 // internal edges + root proxy
	if built != wantBoundaries {
		t.Fatalf("boundary proxies = %d, want %d", built, wantBoundaries)
	}

	if _, err := runIteration(env, false); err != nil {
		t.Fatal(err)
	}
	b1Churn := env.RT.Manager().ProxyCount() - built
	if b1Churn < small/2 {
		t.Fatalf("B1 churned only %d proxies", b1Churn)
	}

	env2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base2 := env2.RT.Manager().ProxyCount()
	if _, err := runIteration(env2, true); err != nil {
		t.Fatal(err)
	}
	if churn := env2.RT.Manager().ProxyCount() - base2; churn > 1 {
		t.Fatalf("B2 churned %d proxies, want at most the single cursor proxy", churn)
	}

	// A2 creates proxies for inner-recursion returns that crossed
	// boundaries; A1 creates none.
	env3, _ := Build(cfg)
	base3 := env3.RT.Manager().ProxyCount()
	if _, err := runRecursion(env3, "walk"); err != nil {
		t.Fatal(err)
	}
	if churn := env3.RT.Manager().ProxyCount() - base3; churn != 0 {
		t.Fatalf("A1 churned %d proxies, want 0", churn)
	}
	if _, err := runRecursion(env3, "outer"); err != nil {
		t.Fatal(err)
	}
	a2Churn := env3.RT.Manager().ProxyCount() - base3
	// With clusters of 20 and inner depth 10, roughly half the inner
	// recursions cross a boundary (paper's own account).
	if a2Churn < small/4 || a2Churn > small {
		t.Fatalf("A2 churned %d proxies, expected around %d", a2Churn, small/2)
	}
}

func TestRunFig5AndReport(t *testing.T) {
	results, err := RunFig5(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Tests)*4 {
		t.Fatalf("results = %d cells", len(results))
	}
	table := FormatFig5(results)
	for _, want := range []string{"A1", "A2", "B1", "B2", "NO SWAP-CLUSTERS", "20", "50", "100"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	ov := Overheads(results)
	if len(ov) != 4 {
		t.Fatalf("overheads for %d tests", len(ov))
	}
	for test, cols := range ov {
		for col, factor := range cols {
			if factor <= 0 {
				t.Fatalf("%s/%s overhead = %v", test, col, factor)
			}
		}
	}
}

func TestUnknownTestRejected(t *testing.T) {
	env, err := Build(Config{Objects: 10, ClusterSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTest(env, "Z9"); err == nil {
		t.Fatal("unknown test accepted")
	}
}

func TestConfigLabelAndDefaults(t *testing.T) {
	if (Config{ClusterSize: 50}).Label() != "50" {
		t.Error("label 50")
	}
	if (Config{}).Label() != "NO SWAP-CLUSTERS" {
		t.Error("label none")
	}
	cfg := Config{}.withDefaults()
	if cfg.Objects != DefaultObjects || cfg.PayloadBytes != 0 {
		// PayloadBytes 0 stays 0 (valid: empty payloads).
		t.Errorf("defaults = %+v", cfg)
	}
}
