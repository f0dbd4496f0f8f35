// Quickstart: the smallest complete Object-Swapping program.
//
// The application model — one annotated Go struct — lives in notes/model.go;
// obicomp generates the Note class, its accessors and a typed NoteRef
// wrapper from it (`go generate ./examples/quickstart/notes`).
//
// The program builds one swap-cluster of notes on a constrained device,
// swaps it out to a nearby in-memory device, shows that the memory came
// back, and then touches the data — which transparently faults the whole
// cluster back in.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"objectswap"
	"objectswap/examples/quickstart/notes"
	"objectswap/internal/store"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A device with a 64 KiB heap.
	sys, err := objectswap.New(objectswap.Config{HeapCapacity: 64 << 10})
	if err != nil {
		return err
	}
	// A nearby device: anything that can store, return and drop shipments.
	if err := sys.AttachDevice("desktop-pc", store.NewMem(0)); err != nil {
		return err
	}
	// One call registers every generated class.
	if err := notes.RegisterAll(sys); err != nil {
		return err
	}
	note, err := sys.Runtime().Registry().Lookup("Note")
	if err != nil {
		return err
	}

	// Build ten notes in one swap-cluster, rooted at "notes".
	cluster := sys.NewCluster()
	var prev notes.NoteRef
	for i := 0; i < 10; i++ {
		o, err := sys.NewObject(note, cluster)
		if err != nil {
			return err
		}
		n := notes.AsNote(sys.Runtime(), o.RefTo())
		if err := n.SetText(fmt.Sprintf("note #%d", i)); err != nil {
			return err
		}
		if i == 0 {
			if err := sys.SetRoot("notes", o.RefTo()); err != nil {
				return err
			}
		} else if err := prev.SetNext(o.RefTo()); err != nil {
			return err
		}
		prev = n
	}
	fmt.Printf("built 10 notes: heap %d bytes used\n", sys.Heap().Used())

	// Swap the cluster out: its memory is back when SwapOut returns.
	ev, err := sys.SwapOut(cluster)
	if err != nil {
		return err
	}
	fmt.Printf("swapped cluster %d to %q (%d bytes of XML): heap %d bytes used\n",
		ev.Cluster, ev.Device, ev.Bytes, sys.Heap().Used())

	// Touch the data: the middleware faults the whole cluster back in.
	cur, err := sys.MustRoot("notes")
	if err != nil {
		return err
	}
	for !cur.IsNil() {
		n := notes.AsNote(sys.Runtime(), cur)
		text, err := n.GetText()
		if err != nil {
			return err
		}
		fmt.Println(" ", text)
		if cur, err = n.GetNext(); err != nil {
			return err
		}
	}
	fmt.Printf("after transparent reload: heap %d bytes used\n", sys.Heap().Used())
	return nil
}
