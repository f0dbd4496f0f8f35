// Fieldsurvey: incremental replication plus swapping, end to end over HTTP.
//
// A field-survey PDA replicates a reference catalogue (species records) from
// a base-station master node incrementally: records arrive in clusters only
// when first consulted, grouped two replication clusters per swap-cluster.
// Meanwhile the surveyor captures observations locally. When the PDA's heap
// fills, cold catalogue clusters are swapped to a nearby storage node reached
// through the HTTP web-services bridge — the paper's full deployment picture,
// with every hop exercised in one process via httptest servers.
//
// Run with:
//
//	go run ./examples/fieldsurvey
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"objectswap"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/replication"
	"objectswap/internal/store"
)

const catalogueSize = 120

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// speciesClass is the catalogue record: name, habitat notes, chained.
func speciesClass() *heap.Class {
	c := heap.NewClass("Species",
		heap.FieldDef{Name: "name", Kind: heap.KindString},
		heap.FieldDef{Name: "notes", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
	c.AddMethod("name", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("name")
		if err != nil {
			return nil, err
		}
		return call.Return(v), nil
	})
	c.AddMethod("next", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		return call.Return(v), nil
	})
	return c
}

// observationClass is the locally captured data.
func observationClass() *heap.Class {
	c := heap.NewClass("Observation",
		heap.FieldDef{Name: "species", Kind: heap.KindString},
		heap.FieldDef{Name: "location", Kind: heap.KindString},
	)
	c.AddMethod("summary", func(call *heap.Call) ([]heap.Value, error) {
		sp, err := call.Self.FieldByName("species")
		if err != nil {
			return nil, err
		}
		loc, err := call.Self.FieldByName("location")
		if err != nil {
			return nil, err
		}
		s, _ := sp.Str()
		l, _ := loc.Str()
		return call.Return(heap.Str(s + " @ " + l)), nil
	})
	return c
}

func run() error {
	// --- Base station: master node serving the catalogue over HTTP -------
	masterReg := heap.NewRegistry()
	masterReg.MustRegister(speciesClass())
	master := replication.NewMaster(masterReg, 15) // 15 records per shipment
	cls, _ := masterReg.Lookup("Species")
	var err error
	master.Runtime().WithHeap(func(h *heap.Heap) {
		var prev *heap.Object
		for i := 0; i < catalogueSize; i++ {
			o, e := h.New(cls)
			if e != nil {
				err = e
				return
			}
			o.MustSet("name", heap.Str(fmt.Sprintf("species-%03d", i))).
				MustSet("notes", heap.Bytes(make([]byte, 96)))
			if prev == nil {
				h.SetRoot("catalogue", o.RefTo())
			} else {
				prev.MustSet("next", o.RefTo())
			}
			prev = o
		}
	})
	if err != nil {
		return err
	}
	baseStation := httptest.NewServer(replication.NewHandler(master))
	defer baseStation.Close()
	fmt.Printf("base station (master) at %s serving %d records\n", baseStation.URL, catalogueSize)

	// --- Nearby storage node over the HTTP store bridge ------------------
	storageNode := httptest.NewServer(store.NewHandler(store.NewMem(0)))
	defer storageNode.Close()
	fmt.Printf("storage node at %s\n\n", storageNode.URL)

	// --- The PDA ----------------------------------------------------------
	sys, err := objectswap.New(objectswap.Config{
		HeapCapacity:    28 << 10,
		MemoryThreshold: 0.75,
	})
	if err != nil {
		return err
	}
	if err := sys.AttachDevice("storage-node", store.NewClient(storageNode.URL)); err != nil {
		return err
	}
	sys.MustRegisterClass(speciesClass())
	obsCls := sys.MustRegisterClass(observationClass())

	repl := sys.ReplicateFrom(replication.NewClient(baseStation.URL), 2)

	sys.Bus().Subscribe(event.TopicClusterReplicated, func(ev event.Event) {
		e := ev.Payload.(replication.ClusterEvent)
		fmt.Printf("   [replication] %d records arrived into swap-cluster %d\n", e.Objects, e.SwapCluster)
	})
	sys.Bus().Subscribe(event.TopicSwapOut, func(ev event.Event) {
		e := ev.Payload.(objectswap.SwapEvent)
		fmt.Printf("   [swapping] cluster %d -> %s (%d bytes XML)\n", e.Cluster, e.Device, e.Bytes)
	})
	sys.Bus().Subscribe(event.TopicSwapIn, func(ev event.Event) {
		e := ev.Payload.(objectswap.SwapEvent)
		fmt.Printf("   [swapping] cluster %d faulted back\n", e.Cluster)
	})

	if _, err := repl.ReplicateRoot(context.Background(), "catalogue"); err != nil {
		return err
	}

	// The surveyor looks up every 10th species (pulling catalogue clusters
	// on demand) and records an observation for each hit. It holds its
	// cursor across the calls that record one, so it surveys in a scope.
	obsCluster := sys.NewCluster()
	fmt.Println("surveying...")
	captured := 0
	err = sys.Scope(func() error {
		cur, err := sys.MustRoot("catalogue")
		if err != nil {
			return err
		}
		for idx := 0; !cur.IsNil(); idx++ {
			if idx%10 == 0 {
				out, err := sys.Invoke(cur, "name")
				if err != nil {
					return fmt.Errorf("catalogue record %d: %w", idx, err)
				}
				name, _ := out[0].Str()
				obs, err := sys.NewObject(obsCls, obsCluster)
				if err != nil {
					return err
				}
				if err := sys.SetField(obs.RefTo(), "species", heap.Str(name)); err != nil {
					return err
				}
				if err := sys.SetField(obs.RefTo(), "location",
					heap.Str(fmt.Sprintf("grid-%02d", idx/10))); err != nil {
					return err
				}
				if err := sys.SetRoot(fmt.Sprintf("obs-%02d", captured), obs.RefTo()); err != nil {
					return err
				}
				captured++
			}
			if cur, err = sys.Field(cur, "next"); err != nil {
				return fmt.Errorf("advance at record %d: %w", idx, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	st := sys.Heap().StatsSnapshot()
	rs := repl.StatsSnapshot()
	fmt.Printf("\nsurvey done: %d observations captured, %d catalogue records replicated in %d shipments\n",
		captured, rs.ObjectsInstalled, rs.ClustersFetched)
	fmt.Printf("PDA heap: %d/%d bytes\n", st.Used, st.Capacity)

	swapped := 0
	for _, info := range sys.Clusters() {
		if info.Swapped {
			swapped++
		}
	}
	fmt.Printf("catalogue clusters currently on the storage node: %d\n\n", swapped)

	// Review the captured observations (all local, never swapped: they are
	// in a warm cluster).
	fmt.Println("captured observations:")
	for i := 0; i < captured; i++ {
		root, err := sys.MustRoot(fmt.Sprintf("obs-%02d", i))
		if err != nil {
			return err
		}
		out, err := sys.Invoke(root, "summary")
		if err != nil {
			return err
		}
		s, _ := out[0].Str()
		fmt.Println("  ", s)
	}
	return nil
}
