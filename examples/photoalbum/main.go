// Photoalbum: the paper's prototypical PDA scenario.
//
// A photo-viewer on a memory-constrained PDA keeps several albums of photos
// (thumbnails + metadata) as one swap-cluster per album. The heap cannot hold
// every album, so the memory monitor and the XML policy engine demote the
// coldest albums to a nearby desktop PC (a disk store holding plain XML
// files) whenever occupancy crosses the threshold. Browsing an album that was
// demoted faults it back transparently — possibly demoting another.
//
// The Photo class is declared once in album/model.go and compiled by obicomp
// (`go generate ./examples/photoalbum/album`); the hand-written thumbSize
// method below is layered on top of the generated static dispatch.
//
// Run with:
//
//	go run ./examples/photoalbum
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"objectswap"
	"objectswap/examples/photoalbum/album"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

const (
	albums         = 8
	photosPerAlbum = 12
	thumbnailBytes = 512
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// photoClass is the obicomp-generated Photo class with one hand-written
// method added: generated accessor dispatch answers get/set calls, the
// closure table still serves everything else.
func photoClass() *heap.Class {
	c := album.NewPhotoClass()
	c.AddMethod("thumbSize", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("thumb")
		if err != nil {
			return nil, err
		}
		return call.Return(heap.Int(int64(v.BytesLen()))), nil
	})
	return c
}

func run() error {
	// The PDA: a small heap plus an aggressive 70% pressure threshold.
	sys, err := objectswap.New(objectswap.Config{
		HeapCapacity:    48 << 10,
		MemoryThreshold: 0.7,
	})
	if err != nil {
		return err
	}

	// The nearby desktop PC: swapped albums live as XML files on disk.
	dir := filepath.Join(os.TempDir(), "objectswap-photoalbum")
	disk, err := store.NewDisk(dir, 0)
	if err != nil {
		return err
	}
	if err := sys.AttachDevice("desktop-pc", disk); err != nil {
		return err
	}
	fmt.Printf("desktop PC stores swapped albums under %s\n\n", dir)

	sys.Bus().Subscribe(event.TopicSwapOut, func(ev event.Event) {
		e := ev.Payload.(objectswap.SwapEvent)
		fmt.Printf("   [middleware] album cluster %d demoted to %s (%d bytes XML)\n",
			e.Cluster, e.Device, e.Bytes)
	})
	sys.Bus().Subscribe(event.TopicSwapIn, func(ev event.Event) {
		e := ev.Payload.(objectswap.SwapEvent)
		fmt.Printf("   [middleware] album cluster %d promoted back\n", e.Cluster)
	})

	photo := sys.MustRegisterClass(photoClass())

	// Import albums; the policy engine demotes cold ones as pressure mounts.
	thumb := make([]byte, thumbnailBytes)
	clusters := make([]objectswap.ClusterID, albums)
	for a := 0; a < albums; a++ {
		clusters[a] = sys.NewCluster()
		var prev *heap.Object
		for p := 0; p < photosPerAlbum; p++ {
			o, err := sys.NewObject(photo, clusters[a])
			if err != nil {
				return fmt.Errorf("album %d photo %d: %w", a, p, err)
			}
			if err := sys.SetField(o.RefTo(), "thumb", heap.Bytes(thumb)); err != nil {
				return err
			}
			caption := fmt.Sprintf("album-%d/IMG_%04d", a, p)
			if err := sys.SetField(o.RefTo(), "caption", heap.Str(caption)); err != nil {
				return err
			}
			if prev == nil {
				if err := sys.SetRoot(fmt.Sprintf("album-%d", a), o.RefTo()); err != nil {
					return err
				}
			} else if err := sys.SetField(prev.RefTo(), "next", o.RefTo()); err != nil {
				return err
			}
			prev = o
		}
		fmt.Printf("imported album %d (%d photos)\n", a, photosPerAlbum)
	}

	st := sys.Heap().StatsSnapshot()
	fmt.Printf("\nheap after import: %d/%d bytes (%.0f%%)\n",
		st.Used, st.Capacity, st.UsedFraction()*100)
	resident, swapped := 0, 0
	for _, info := range sys.Clusters() {
		if info.ID == objectswap.RootCluster {
			continue
		}
		if info.Swapped {
			swapped++
		} else {
			resident++
		}
	}
	fmt.Printf("albums resident: %d, demoted to desktop: %d\n\n", resident, swapped)

	// The user browses albums in a skewed pattern: old albums are opened
	// again, faulting them back (and demoting others).
	for _, a := range []int{0, 1, 7, 0, 3, 6} {
		fmt.Printf("browsing album %d...\n", a)
		cur, err := sys.MustRoot(fmt.Sprintf("album-%d", a))
		if err != nil {
			return err
		}
		count := 0
		var bytes int64
		for !cur.IsNil() {
			out, err := sys.Invoke(cur, "thumbSize")
			if err != nil {
				return fmt.Errorf("album %d photo %d: %w", a, count, err)
			}
			n, _ := out[0].Int()
			bytes += n
			cur, err = album.AsPhoto(sys.Runtime(), cur).GetNext()
			if err != nil {
				return err
			}
			count++
		}
		fmt.Printf("   viewed %d photos (%d thumbnail bytes)\n", count, bytes)
	}

	st = sys.Heap().StatsSnapshot()
	fmt.Printf("\nfinal heap: %d/%d bytes, %d collections\n", st.Used, st.Capacity, st.Collections)
	keys, _ := disk.Keys(context.Background())
	fmt.Printf("XML files on the desktop PC: %d\n", len(keys))
	return nil
}
