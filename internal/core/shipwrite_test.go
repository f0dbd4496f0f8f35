package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// parkedPut is a donor whose next shipment, once park is set, waits in Put
// until release is closed, after saying so on arrived.
type parkedPut struct {
	*store.Mem
	park    atomic.Bool
	arrived chan struct{}
	release chan struct{}
}

func (p *parkedPut) PutEnvelope(ctx context.Context, key string, data []byte, opts store.PutOpts) error {
	if p.park.CompareAndSwap(true, false) {
		close(p.arrived)
		<-p.release
	}
	return p.Mem.PutEnvelope(ctx, key, data, opts)
}

// TestWriteDuringShipIsKept: a member written while its cluster's swap-out is
// parked in the ship phase, with the runtime lock let go, is not lost with
// the members the commit frees. The commit refuses with ErrClusterBusy, the
// copy it shipped is dropped at the next collection, and the written value
// survives the next swap-out and reload. check.sh runs it under the race
// detector, which sees the write beside the swap-out's encode if the encode
// lets go of the lock.
func TestWriteDuringShipIsKept(t *testing.T) {
	devices := store.NewRegistry(store.SelectMostFree)
	donor := &parkedPut{Mem: store.NewMem(0), arrived: make(chan struct{}), release: make(chan struct{})}
	if err := devices.Add("pda-neighbor", donor); err != nil {
		t.Fatal(err)
	}
	f := &fixture{rt: NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices)),
		reg: devices, mem: donor.Mem, node: newNodeClass()}
	f.rt.MustRegisterClass(f.node)
	ids, clusters := f.buildList(t, 20, 10, 8)
	member := heap.Ref(ids[15])

	donor.park.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := f.rt.SwapOut(clusters[1])
		done <- err
	}()
	<-donor.arrived
	if err := f.rt.SetFieldValue(member, "tag", heap.Int(1500)); err != nil {
		t.Fatal(err)
	}
	close(donor.release)
	first := <-done
	if first != nil && !errors.Is(first, ErrClusterBusy) {
		t.Fatal(first)
	}
	if first != nil {
		if _, err := f.rt.SwapOut(clusters[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.rt.SwapIn(clusters[1]); err != nil {
		t.Fatal(err)
	}
	if tag, err := f.rt.Field(member, "tag"); err != nil || tag.MustInt() != 1500 {
		t.Fatalf("member written during its swap-out's ship reads %v, %v after the reload, want 1500", tag, err)
	}
	if !errors.Is(first, ErrClusterBusy) {
		t.Fatalf("the swap-out the write raced committed (%v), want ErrClusterBusy", first)
	}
	f.rt.Collect()
	keys, err := donor.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("donor holds %v, want only the second swap-out's copy", keys)
	}
	checkClean(t, f.rt)
}
