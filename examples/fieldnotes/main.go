// Fieldnotes: the complete OBIWAN mobility story in one run —
//
//  1. HOARD:      prefetch the whole notebook from the base station
//     (incremental replication, eager);
//  2. DISCONNECT: the base station disappears;
//  3. WORK:       edit notes locally while the policy engine swaps cold
//     sections to a nearby storage node (swapping needs no
//     master — only the dumb neighbor);
//  4. RECONNECT:  push the dirty replicas back to the master
//     (last-writer-wins write-back).
//
// Run with:
//
//	go run ./examples/fieldnotes
package main

import (
	"context"
	"fmt"
	"log"

	"objectswap"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/replication"
	"objectswap/internal/store"
)

const (
	sections        = 6
	notesPerSection = 10
)

func noteClass() *heap.Class {
	c := heap.NewClass("FieldNote",
		heap.FieldDef{Name: "text", Kind: heap.KindString},
		heap.FieldDef{Name: "revised", Kind: heap.KindBool},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
	c.AddMethod("text", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("text")
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

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Base station with the master notebook.
	masterReg := heap.NewRegistry()
	masterReg.MustRegister(noteClass())
	master := replication.NewMaster(masterReg, notesPerSection)
	cls, _ := masterReg.Lookup("FieldNote")
	total := 0
	var err error
	master.Runtime().WithHeap(func(h *heap.Heap) {
		var prev *heap.Object
		for s := 0; s < sections; s++ {
			for n := 0; n < notesPerSection; n++ {
				o, e := h.New(cls)
				if e != nil {
					err = e
					return
				}
				o.MustSet("text", heap.Str(fmt.Sprintf("sec%d/note%d: draft", s, n)))
				if prev == nil {
					h.SetRoot("notebook", o.RefTo())
				} else {
					prev.MustSet("next", o.RefTo())
				}
				prev = o
				total++
			}
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("base station holds %d notes\n", total)

	// The PDA.
	sys, err := objectswap.New(objectswap.Config{
		HeapCapacity:    16 << 10,
		MemoryThreshold: 0.7,
		DeviceName:      "field-pda",
	})
	if err != nil {
		return err
	}
	if err := sys.AttachDevice("storage-box", store.NewMem(0)); err != nil {
		return err
	}
	sys.MustRegisterClass(noteClass())
	repl := sys.ReplicateFrom(master, 1)
	sys.Bus().Subscribe(event.TopicSwapOut, func(ev event.Event) {
		e := ev.Payload.(objectswap.SwapEvent)
		fmt.Printf("   [swap] section cluster %d -> %s (%d bytes)\n", e.Cluster, e.Device, e.Bytes)
	})

	// 1. HOARD.
	n, err := repl.Prefetch(context.Background(), "notebook", 0)
	if err != nil {
		return err
	}
	fmt.Printf("hoarded %d notes in %d shipments\n\n", n, repl.StatsSnapshot().ClustersFetched)

	// 2. DISCONNECT: any further fault to the master would fail loudly.
	sys.Runtime().SetFaultHandler(nil)
	fmt.Println("base station disconnected; working offline...")

	// 3. WORK: revise every 7th note; pressure moves cold sections to the
	// storage box and back, entirely offline.
	cur, err := sys.MustRoot("notebook")
	if err != nil {
		return err
	}
	idx, revised := 0, 0
	for !cur.IsNil() {
		sys.Monitor().Check()
		if idx%7 == 0 {
			out, err := sys.Invoke(cur, "text")
			if err != nil {
				return fmt.Errorf("note %d: %w", idx, err)
			}
			text, _ := out[0].Str()
			if err := sys.SetField(cur, "text", heap.Str(text+" [REVISED]")); err != nil {
				return err
			}
			if err := sys.SetField(cur, "revised", heap.Bool(true)); err != nil {
				return err
			}
			revised++
		}
		cur, err = sys.Field(cur, "next")
		if err != nil {
			return err
		}
		idx++
	}
	fmt.Printf("revised %d notes offline; %d dirty replicas pending\n\n", revised, repl.DirtyCount())

	// 4. RECONNECT and write back.
	fmt.Println("base station back in range; pushing updates...")
	pushed, err := repl.PushUpdates(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("pushed %d updated notes\n", pushed)

	// Verify on the master.
	verified := 0
	mrt := master.Runtime()
	mrt.WithHeap(func(h *heap.Heap) { cur, _ = h.Root("notebook") })
	for !cur.IsNil() {
		out, err := mrt.Invoke(cur, "text")
		if err != nil {
			return err
		}
		if text, _ := out[0].Str(); len(text) > 9 && text[len(text)-9:] == "[REVISED]" {
			verified++
		}
		nv, err := mrt.Invoke(cur, "next")
		if err != nil {
			return err
		}
		cur = nv[0]
	}
	fmt.Printf("master now shows %d revised notes — %v\n", verified, verified == revised)
	if verified != revised {
		return fmt.Errorf("write-back mismatch")
	}
	return nil
}
