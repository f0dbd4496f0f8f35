package policy

import (
	"context"
	"fmt"
	"testing"

	"objectswap/internal/core"
	"objectswap/internal/devctx"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// TestPressureTriggersSwapViaPolicy wires the full middleware loop of the
// paper's prototypical scenario: the memory monitor detects pressure, the
// policy engine evaluates the loaded policy, and the swap-out action frees
// memory to a nearby device.
func TestPressureTriggersSwapViaPolicy(t *testing.T) {
	node := heap.NewClass("Node",
		heap.FieldDef{Name: "payload", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
	node.AddMethod("next", func(call *heap.Call) ([]heap.Value, error) {
		v, _ := call.Self.FieldByName("next")
		return []heap.Value{v}, nil
	})

	h := heap.New(8192)
	bus := event.NewBus()
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	_ = devices.Add("neighbor", mem)

	rt := core.NewRuntime(h, heap.NewRegistry(), core.WithStores(devices), core.WithBus(bus))
	rt.MustRegisterClass(node)

	ctx := devctx.NewContext(h, nil)
	engine := NewEngine(bus, ctx)
	BindSwapActions(engine, rt)
	if err := engine.Load([]byte(DefaultSwapPolicy)); err != nil {
		t.Fatal(err)
	}
	monitor := devctx.NewMemoryMonitor(h, bus, 0.7)

	// Fill clusters until the monitor trips; check after every allocation as
	// a real allocator-integrated monitor would.
	var clusters []core.ClusterID
	built := 0
	for c := 0; c < 6; c++ {
		cl := rt.Manager().NewCluster()
		clusters = append(clusters, cl)
		for i := 0; i < 8; i++ {
			o, err := rt.NewObject(node, cl)
			if err != nil {
				t.Fatalf("cluster %d obj %d: %v", c, i, err)
			}
			rt.Locked(func(*core.Held) { o.MustSet("payload", heap.Bytes(make([]byte, 64))) })
			if err := rt.SetRoot(fmt.Sprintf("n-%d-%d", c, i), o.RefTo()); err != nil {
				t.Fatal(err)
			}
			built++
			monitor.Check()
		}
	}

	if engine.Fired("swap-on-pressure") == 0 {
		t.Fatal("policy never fired under pressure")
	}
	// The device holds one shipment per swapped cluster, plus the copy a
	// cluster reloaded since (an allocation into it faulted it back) retains.
	swapped, retained := 0, 0
	for _, cl := range clusters {
		info, err := rt.Manager().Info(cl)
		if err != nil {
			t.Fatal(err)
		}
		if info.Swapped {
			swapped++
		} else if info.BaseKey != "" {
			retained++
		}
	}
	if swapped == 0 {
		t.Fatal("no cluster swapped out by policy")
	}
	keys, _ := mem.Keys(context.Background())
	if len(keys) != swapped+retained {
		t.Fatalf("device holds %d shipments, %d clusters swapped and %d resident with a retained copy",
			len(keys), swapped, retained)
	}
	// The graph remains fully usable.
	for c := 0; c < 6; c++ {
		for i := 0; i < 8; i++ {
			v, ok := rt.Root(fmt.Sprintf("n-%d-%d", c, i))
			if !ok {
				t.Fatalf("missing root n-%d-%d", c, i)
			}
			if _, err := rt.Invoke(v, "next"); err != nil {
				t.Fatalf("touch n-%d-%d: %v", c, i, err)
			}
		}
	}
}
