// Command neighborhood simulates the paper's envisioned future: "a myriad of
// small memory-enabled devices with wireless connectivity, scattered
// all-over, available to any user either to store data or to relay
// communications".
//
// Several constrained PDAs work through skewed access patterns against their
// own object graphs while storage nodes come and go (link churn). The
// middleware reacts: pressure policies demote cold clusters to whichever
// node is reachable, departures defer drops, returns retry them, and every
// device stays correct throughout. A time-series of middleware activity is
// printed per round.
//
// Usage:
//
//	neighborhood [-pdas 3] [-nodes 2] [-rounds 12] [-heap 24576] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"objectswap"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "neighborhood:", err)
		os.Exit(1)
	}
}

// pda bundles one simulated constrained device.
type pda struct {
	sys    *objectswap.System
	chains int
	zipf   *rand.Zipf
	swaps  *int64
	faults *int64
}

func run() error {
	pdas := flag.Int("pdas", 3, "constrained devices")
	nodes := flag.Int("nodes", 2, "storage nodes in the neighborhood")
	rounds := flag.Int("rounds", 12, "simulation rounds")
	heapBytes := flag.Int64("heap", 24<<10, "per-PDA heap capacity")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	r := rand.New(rand.NewSource(*seed))

	// The neighborhood: storage nodes behind Bluetooth-class links.
	type node struct {
		name  string
		store *store.Mem
		up    bool
	}
	nodeList := make([]*node, *nodes)
	for i := range nodeList {
		nodeList[i] = &node{name: fmt.Sprintf("node-%d", i), store: store.NewMem(0), up: true}
	}

	// The PDAs.
	devices := make([]*pda, *pdas)
	for p := range devices {
		sys, err := objectswap.New(objectswap.Config{
			HeapCapacity:    *heapBytes,
			MemoryThreshold: 0.7,
			DeviceName:      fmt.Sprintf("pda-%d", p),
		})
		if err != nil {
			return err
		}
		for _, n := range nodeList {
			clock := &link.VirtualClock{}
			if err := sys.AttachDevice(n.name, link.Wrap(n.store, link.Bluetooth1(), clock)); err != nil {
				return err
			}
		}
		var swaps, faults int64
		sys.Bus().Subscribe(event.TopicSwapOut, func(event.Event) { swaps++ })
		sys.Bus().Subscribe(event.TopicSwapIn, func(event.Event) { faults++ })

		cls := heap.NewClass("Item",
			heap.FieldDef{Name: "payload", Kind: heap.KindBytes},
			heap.FieldDef{Name: "next", Kind: heap.KindRef},
		)
		cls.AddMethod("next", func(call *heap.Call) ([]heap.Value, error) {
			v, err := call.Self.FieldByName("next")
			if err != nil {
				return nil, err
			}
			return call.Return(v), nil
		})
		sys.MustRegisterClass(cls)

		// Build the device's working set: chains of clusters.
		const chains, perChain = 6, 40
		payload := make([]byte, 64)
		for c := 0; c < chains; c++ {
			cluster := sys.NewCluster()
			var prev *heap.Object
			for i := 0; i < perChain; i++ {
				o, err := sys.NewObject(cls, cluster)
				if err != nil {
					return fmt.Errorf("pda %d build: %w", p, err)
				}
				if err := sys.SetField(o.RefTo(), "payload", heap.Bytes(payload)); err != nil {
					return err
				}
				if prev == nil {
					if err := sys.SetRoot(fmt.Sprintf("chain-%d", c), o.RefTo()); err != nil {
						return err
					}
				} else if err := sys.SetField(prev.RefTo(), "next", o.RefTo()); err != nil {
					return err
				}
				prev = o
			}
		}
		devices[p] = &pda{
			sys:    sys,
			chains: chains,
			zipf:   rand.NewZipf(rand.New(rand.NewSource(*seed+int64(p))), 1.3, 4, chains-1),
			swaps:  &swaps,
			faults: &faults,
		}
	}

	fmt.Printf("%-6s %-24s %10s %10s %12s\n", "round", "neighborhood", "swap-outs", "swap-ins", "stored bytes")
	for round := 0; round < *rounds; round++ {
		// Churn: each node flips availability with small probability.
		for _, n := range nodeList {
			if r.Float64() < 0.25 {
				n.up = !n.up
				for _, d := range devices {
					d.sys.SetDeviceAvailable(n.name, n.up)
				}
			}
		}

		// Each PDA performs a burst of skewed accesses.
		for p, d := range devices {
			for a := 0; a < 8; a++ {
				chain := int(d.zipf.Uint64())
				root, err := d.sys.MustRoot(fmt.Sprintf("chain-%d", chain))
				if err != nil {
					return err
				}
				cur, err := d.sys.AssignedCursor(root)
				if err != nil {
					// The chain head may be unreachable right now (all
					// nodes down); skip the burst.
					continue
				}
				steps := 5 + r.Intn(20)
				for s := 0; s < steps && !cur.IsNil(); s++ {
					d.sys.Monitor().Check()
					cur, err = d.sys.Field(cur, "next")
					if err != nil {
						// With every node down, demotion is impossible; the
						// burst is abandoned, not fatal — connectivity will
						// return.
						break
					}
				}
			}
			_ = p
		}

		// Round summary.
		var swaps, faults, stored int64
		for _, d := range devices {
			swaps += *d.swaps
			faults += *d.faults
		}
		status := ""
		for _, n := range nodeList {
			st, _ := n.store.Stats(context.Background())
			stored += st.Used
			if n.up {
				status += "+"
			} else {
				status += "-"
			}
		}
		fmt.Printf("%-6d %-24s %10d %10d %12d\n", round, status, swaps, faults, stored)
	}

	fmt.Println("\nfinal per-device state:")
	for p, d := range devices {
		st := d.sys.Heap().StatsSnapshot()
		fmt.Printf("  pda-%d: %d/%d bytes, %d swap-outs, %d swap-ins\n",
			p, st.Used, st.Capacity, *d.swaps, *d.faults)
	}

	// Middleware bookkeeping must be spotless after the churn.
	for p, d := range devices {
		if errs := d.sys.Runtime().Manager().CheckInvariants(); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "invariant violation on pda-%d: %v\n", p, e)
			}
			return fmt.Errorf("%d invariant violations", len(errs))
		}
	}
	// Correctness sweep: every node of every chain must still be reachable
	// once at least one storage node is up.
	for _, n := range nodeList {
		n.up = true
		for _, d := range devices {
			d.sys.SetDeviceAvailable(n.name, true)
		}
	}
	for p, d := range devices {
		for c := 0; c < d.chains; c++ {
			root, err := d.sys.MustRoot(fmt.Sprintf("chain-%d", c))
			if err != nil {
				return err
			}
			cur, err := d.sys.AssignedCursor(root)
			if err != nil {
				return err
			}
			count := 0
			for !cur.IsNil() {
				cur, err = d.sys.Field(cur, "next")
				if err != nil {
					return fmt.Errorf("pda %d chain %d node %d: %w", p, c, count, err)
				}
				count++
			}
			if count != 40 {
				return fmt.Errorf("pda %d chain %d: %d nodes, want 40", p, c, count)
			}
		}
	}
	fmt.Println("correctness sweep: all chains intact on every device — OK")
	return nil
}
