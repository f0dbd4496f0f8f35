package core

import (
	"bytes"
	"math/rand"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// FuzzLoadCheckpoint hardens checkpoint restoration against arbitrary
// streams (a checkpoint may live on untrusted storage).
func FuzzLoadCheckpoint(f *testing.F) {
	// Seed with a genuine checkpoint.
	{
		devices := store.NewRegistry(store.SelectMostFree)
		_ = devices.Add("d", store.NewMem(0))
		rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices))
		node := rt.MustRegisterClass(newNodeClass())
		c := rt.Manager().NewCluster()
		o, err := rt.NewObject(node, c)
		if err != nil {
			f.Fatal(err)
		}
		if err := rt.SetRoot("x", o.RefTo()); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rt.SaveCheckpoint(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`<checkpoint version="1" device="d" keyseq="0" maxid="0"></checkpoint>`))
	f.Add([]byte(`<checkpoint version="1" device="d" keyseq="0" maxid="9"><cluster id="1" swapped="true" device="x" key="k"><member id="3" class="Node"/><outbound slot="0" target="3"/></cluster></checkpoint>`))
	f.Add([]byte(`}{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		devices := store.NewRegistry(store.SelectMostFree)
		_ = devices.Add("d", store.NewMem(0))
		rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices))
		rt.MustRegisterClass(newNodeClass())
		if err := rt.LoadCheckpoint(bytes.NewReader(data)); err != nil {
			return // rejection is fine; panics and corruption are not
		}
		// Whatever was accepted must leave consistent bookkeeping.
		if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
			for _, e := range errs {
				t.Log(e)
			}
			t.Fatal("accepted checkpoint violates invariants")
		}
	})
}

// FuzzCheckpoint proves the save -> restore round trip on randomized object
// graphs, replica sets included: whatever graph shape, clustering, cross-ref
// pattern, replication factor and swapped subset the fuzzer invents, the
// restored runtime must satisfy every manager invariant, carry identical
// swapped flags and replica sets, and fault every swapped cluster back in
// intact. Run long with: go test -fuzz FuzzCheckpoint ./internal/core
func FuzzCheckpoint(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(4), uint8(2), uint8(0b1010))
	f.Add(int64(7), uint8(30), uint8(5), uint8(3), uint8(0xFF))
	f.Add(int64(42), uint8(3), uint8(1), uint8(1), uint8(0b1))
	f.Add(int64(-9), uint8(40), uint8(8), uint8(2), uint8(0b0110))

	f.Fuzz(func(t *testing.T, seed int64, n, per, k, swapMask uint8) {
		rng := rand.New(rand.NewSource(seed))
		nObj := int(n)%40 + 1
		perCluster := int(per)%8 + 1
		replicas := int(k)%3 + 1

		devices := store.NewRegistry(store.SelectMostFree)
		for _, name := range []string{"fz-a", "fz-b", "fz-c"} {
			if err := devices.Add(name, store.NewMem(0)); err != nil {
				t.Fatal(err)
			}
		}
		rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices),
			WithName("fuzz-ckpt"), WithDefaultReplicas(replicas))
		node := rt.MustRegisterClass(newNodeClass())

		// A randomized graph: clusters of random size, random payloads,
		// random (possibly cross-cluster) references mediated by the runtime.
		var clusters []ClusterID
		var objs []*heap.Object
		wantTags := map[heap.ObjID]int64{}
		for i := 0; i < nObj; i++ {
			if i%perCluster == 0 {
				clusters = append(clusters, rt.Manager().NewCluster())
			}
			o, err := rt.NewObject(node, clusters[len(clusters)-1])
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, rng.Intn(32))
			rng.Read(payload)
			o.MustSet("payload", heap.Bytes(payload))
			o.MustSet("tag", heap.Int(int64(i)))
			wantTags[o.ID()] = int64(i)
			objs = append(objs, o)
		}
		for _, o := range objs {
			if rng.Intn(2) == 0 {
				continue
			}
			tgt := objs[rng.Intn(len(objs))]
			if err := rt.SetFieldValue(o.RefTo(), "next", tgt.RefTo()); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.SetRoot("head", objs[0].RefTo()); err != nil {
			t.Fatal(err)
		}

		// Swap out the mask-selected clusters; each records a replica set.
		for i, c := range clusters {
			if swapMask&(1<<(i%8)) == 0 {
				continue
			}
			if _, err := rt.SwapOut(c); err != nil {
				t.Fatalf("swap-out cluster %d: %v", c, err)
			}
		}

		var buf bytes.Buffer
		if err := rt.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}

		// Restore into a fresh runtime sharing the donor registry.
		rt2 := NewRuntime(heap.New(0), heap.NewRegistry(), WithStores(devices),
			WithName("fuzz-ckpt"), WithDefaultReplicas(replicas))
		rt2.MustRegisterClass(newNodeClass())
		if err := rt2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("genuine checkpoint rejected: %v", err)
		}
		if errs := rt2.Manager().CheckInvariants(); len(errs) > 0 {
			for _, e := range errs {
				t.Log(e)
			}
			t.Fatal("restored runtime violates invariants")
		}
		for _, c := range clusters {
			if rt.Manager().IsSwapped(c) != rt2.Manager().IsSwapped(c) {
				t.Fatalf("cluster %d swapped flag changed across restore", c)
			}
			a, b := rt.ReplicaSet(c), rt2.ReplicaSet(c)
			if len(a) != len(b) {
				t.Fatalf("cluster %d replica set %v restored as %v", c, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("cluster %d replica set %v restored as %v", c, a, b)
				}
			}
		}

		// Every swapped cluster faults back in intact.
		var reloaded []ClusterID
		for _, c := range clusters {
			if !rt2.Manager().IsSwapped(c) {
				continue
			}
			if _, err := rt2.SwapIn(c); err != nil {
				t.Fatalf("swap-in restored cluster %d: %v", c, err)
			}
			reloaded = append(reloaded, c)
		}
		// Reloaded and not written since, those clusters are clean (the restored
		// records read their member and slot tables back from what was
		// installed): they leave and return on the frames the donors hold, any
		// number of times, and the frames stay byte-identical.
		for _, c := range reloaded {
			info, _ := rt2.Manager().Info(c)
			donor, err := devices.Lookup(info.BaseDevices[0])
			if err != nil {
				t.Fatal(err)
			}
			frame, err := donor.Get(ctx, info.BaseKey)
			if err != nil {
				t.Fatalf("cluster %d retained copy: %v", c, err)
			}
			for cycle := 0; cycle < 3; cycle++ {
				ev, err := rt2.SwapOut(c)
				if err != nil || !ev.Clean || ev.Key != info.BaseKey {
					t.Fatalf("cluster %d cycle %d: swap-out %+v, %v; want clean on %q", c, cycle, ev, err, info.BaseKey)
				}
				if _, err := rt2.SwapIn(c); err != nil {
					t.Fatalf("cluster %d cycle %d: %v", c, cycle, err)
				}
			}
			if now, err := donor.Get(ctx, info.BaseKey); err != nil || !bytes.Equal(now, frame) {
				t.Fatalf("cluster %d: donor frame changed over clean cycles (%v)", c, err)
			}
		}
		if errs := rt2.Manager().CheckInvariants(); len(errs) > 0 {
			t.Fatalf("invariants after clean cycles: %v", errs)
		}
		for id, want := range wantTags {
			o, err := rt2.Heap().Get(id)
			if err != nil {
				t.Fatalf("object %d lost across restore: %v", id, err)
			}
			tag, err := o.FieldByName("tag")
			if err != nil {
				t.Fatal(err)
			}
			if got := tag.MustInt(); got != want {
				t.Fatalf("object %d tag = %d, want %d", id, got, want)
			}
		}
	})
}
