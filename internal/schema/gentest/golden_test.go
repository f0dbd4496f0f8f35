package gentest

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/store"
	"objectswap/internal/wire"
)

// goldenFrame is the OBW frame a swap-out of goldenCluster ships, recorded
// when a generated class still carried its own wire codec.
const (
	goldenFrame   = "testdata/record64.obw"
	goldenRecords = 64
)

// goldenCluster builds a ring of goldenRecords Records in one swap-cluster of
// a fresh runtime, every field set through the generated typed stubs, and
// roots the first.
func goldenCluster(t *testing.T) (*core.Runtime, *store.Mem, core.ClusterID) {
	t.Helper()
	devices := store.NewRegistry(store.SelectMostFree)
	mem := store.NewMem(0)
	if err := devices.Add("d", mem); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(heap.New(0), heap.NewRegistry(), core.WithStores(devices), core.WithName("gentest"))
	cls := rt.MustRegisterClass(NewRecordClass())
	cid := rt.Manager().NewCluster()
	recs := make([]RecordRef, goldenRecords)
	for i := range recs {
		o, err := rt.NewObject(cls, cid)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = AsRecord(rt, o.RefTo())
	}
	for i, r := range recs {
		blob := make([]byte, 48+i)
		for j := range blob {
			blob[j] = byte(i*7 + j)
		}
		for _, err := range []error{
			r.SetTitle(fmt.Sprintf("rec-%d", i)),
			r.SetSeq(int64(i)*31 - 7),
			r.SetWeight(float64(i) * 0.25),
			r.SetDirty(i%2 == 1),
			r.SetBlob(blob),
			r.SetNext(recs[(i+1)%len(recs)].Ref),
			r.SetTags([]heap.Value{heap.Str("hot"), heap.Int(int64(i))}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rt.SetRoot("head", recs[0].Ref); err != nil {
		t.Fatal(err)
	}
	return rt, mem, cid
}

// TestSwapOutFrameGolden pins the bytes a generated class ships: a swap-out of
// 64 Records must put exactly the recorded frame on the donor, and faulting
// the cluster back in through the typed stubs must read every field as
// written.
func TestSwapOutFrameGolden(t *testing.T) {
	want, err := os.ReadFile(goldenFrame)
	if err != nil {
		t.Fatal(err)
	}
	rt, mem, cid := goldenCluster(t)
	ev, err := rt.SwapOut(cid)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Format != string(wire.FormatBinary) {
		t.Fatalf("negotiated format %q, want %q", ev.Format, wire.FormatBinary)
	}
	got, err := mem.Get(context.Background(), ev.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("swap-out shipped %d bytes that differ from the %d-byte golden frame %s", len(got), len(want), goldenFrame)
	}
	cur, ok := rt.Root("head")
	if !ok {
		t.Fatal("missing head root")
	}
	for i := 0; i < goldenRecords; i++ {
		r := AsRecord(rt, cur)
		title, err := r.GetTitle()
		if err != nil {
			t.Fatal(err)
		}
		seq, err := r.GetSeq()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := r.GetBlob()
		if err != nil {
			t.Fatal(err)
		}
		if title != fmt.Sprintf("rec-%d", i) || seq != int64(i)*31-7 || len(blob) != 48+i || blob[0] != byte(i*7) {
			t.Fatalf("record %d reads back title %q, seq %d, %d-byte blob", i, title, seq, len(blob))
		}
		if cur, err = r.GetNext(); err != nil {
			t.Fatal(err)
		}
	}
}
