package baseline

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

// MemoryStats summarizes the naive design's footprint.
type MemoryStats struct {
	Objects        int
	Surrogates     int
	ObjectBytes    int64
	SurrogateBytes int64
	Offloaded      int
}

// Overhead returns the surrogate bytes as a fraction of object bytes.
func (s MemoryStats) Overhead() float64 {
	if s.ObjectBytes == 0 {
		return 0
	}
	return float64(s.SurrogateBytes) / float64(s.ObjectBytes)
}

// MemoryStatsSnapshot computes the current footprint split.
func (p *PerObject) MemoryStatsSnapshot() MemoryStats {
	var st MemoryStats
	st.Offloaded = len(p.offloaded)
	for oid, pid := range p.proxy {
		if pr, err := p.h.Get(pid); err == nil {
			st.Surrogates++
			st.SurrogateBytes += pr.Size()
		}
		if o, err := p.h.Get(oid); err == nil {
			st.Objects++
			st.ObjectBytes += o.Size()
		}
	}
	return st
}

// CompressedCount reports how many payloads are currently compressed.
func (c *Compressor) CompressedCount() int { return len(c.compressed) }

func nodeClass() *heap.Class {
	c := heap.NewClass("Node",
		heap.FieldDef{Name: "payload", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
		heap.FieldDef{Name: "tag", Kind: heap.KindInt},
	)
	c.AddMethod("tag", func(call *heap.Call) ([]heap.Value, error) {
		v, _ := call.Self.FieldByName("tag")
		return []heap.Value{v}, nil
	})
	c.AddMethod("walk", func(call *heap.Call) ([]heap.Value, error) {
		depth, _ := call.Arg(0).Int()
		next, _ := call.Self.FieldByName("next")
		if next.IsNil() {
			return []heap.Value{heap.Int(depth)}, nil
		}
		return call.RT.Invoke(next, "walk", heap.Int(depth+1))
	})
	return c
}

// buildNaiveList creates an n-node list under the naive per-object runtime.
func buildNaiveList(t testing.TB, p *PerObject, cls *heap.Class, n, payload int) []heap.Value {
	t.Helper()
	refs := make([]heap.Value, n)
	for i := range refs {
		v, err := p.NewObject(cls)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = v
		if err := p.SetFieldValue(v, "tag", heap.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := p.SetFieldValue(v, "payload", heap.Bytes(make([]byte, payload))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-1; i++ {
		if err := p.SetFieldValue(refs[i], "next", refs[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return refs
}

func TestPerObjectInvocationThroughSurrogates(t *testing.T) {
	h := heap.New(0)
	reg := heap.NewRegistry()
	cls := nodeClass()
	reg.MustRegister(cls)
	p := NewPerObject(h, reg, store.NewMem(0))
	refs := buildNaiveList(t, p, cls, 20, 8)

	out, err := p.Invoke(refs[0], "walk", heap.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 20 {
		t.Fatalf("walk = %v", out[0])
	}
	if p.ProxyCount() != 20 {
		t.Fatalf("surrogates = %d", p.ProxyCount())
	}
}

func TestPerObjectMemoryOverheadIsNearDouble(t *testing.T) {
	// The paper: "Common application objects are small. So, this could
	// potentially double memory occupation when fully-loaded."
	h := heap.New(0)
	reg := heap.NewRegistry()
	cls := nodeClass()
	reg.MustRegister(cls)
	p := NewPerObject(h, reg, store.NewMem(0))
	buildNaiveList(t, p, cls, 100, 0) // tiny objects: worst case

	st := p.MemoryStatsSnapshot()
	if st.Objects != 100 || st.Surrogates != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Overhead() < 0.5 {
		t.Fatalf("surrogate overhead = %.2f, expected near-doubling for small objects", st.Overhead())
	}
}

func TestPerObjectOffloadAndFaultBack(t *testing.T) {
	h := heap.New(0)
	reg := heap.NewRegistry()
	cls := nodeClass()
	reg.MustRegister(cls)
	dev := store.NewMem(0)
	p := NewPerObject(h, reg, dev)
	refs := buildNaiveList(t, p, cls, 10, 32)

	before := h.Used()
	n, err := p.OffloadAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("offloaded %d", n)
	}
	// Surrogates remain: memory does not drop to zero (the naive design's
	// fixed cost the paper criticizes).
	st := p.MemoryStatsSnapshot()
	if st.Objects != 0 || st.Surrogates != 10 {
		t.Fatalf("after offload: %+v", st)
	}
	if h.Used() >= before || h.Used() == 0 {
		t.Fatalf("used %d (before %d): surrogates should remain", h.Used(), before)
	}
	keys, _ := dev.Keys(context.Background())
	if len(keys) != 10 {
		t.Fatalf("device holds %d shipments, want 10 (one per object)", len(keys))
	}

	// Walking the list faults every object back individually.
	out, err := p.Invoke(refs[0], "walk", heap.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].MustInt() != 10 {
		t.Fatalf("walk after offload = %v", out[0])
	}
	if p.Faults() != 10 {
		t.Fatalf("faults = %d, want 10 (one per object)", p.Faults())
	}
	// Tags intact after reload.
	tag, err := p.Invoke(refs[7], "tag")
	if err != nil || tag[0].MustInt() != 7 {
		t.Fatalf("tag = %v, %v", tag, err)
	}
}

func TestPerObjectDoubleOffloadIsNoop(t *testing.T) {
	h := heap.New(0)
	reg := heap.NewRegistry()
	cls := nodeClass()
	reg.MustRegister(cls)
	p := NewPerObject(h, reg, store.NewMem(0))
	refs := buildNaiveList(t, p, cls, 2, 8)
	if err := p.offload(refs[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.offload(refs[0]); err != nil {
		t.Fatal(err)
	}
	st := p.MemoryStatsSnapshot()
	if st.Offloaded != 1 {
		t.Fatalf("offloaded = %d", st.Offloaded)
	}
}

// TestPerObjectOffloadGolden pins one offload payload byte for byte, and shows
// that the object faulted back in offloads to the same document again, under
// its next key.
func TestPerObjectOffloadGolden(t *testing.T) {
	h := heap.New(0)
	reg := heap.NewRegistry()
	cls := nodeClass()
	reg.MustRegister(cls)
	dev := store.NewMem(0)
	p := NewPerObject(h, reg, dev)
	refs := buildNaiveList(t, p, cls, 2, 0)
	if err := p.SetFieldValue(refs[0], "payload", heap.Bytes([]byte("\x00<payload & bytes>"))); err != nil {
		t.Fatal(err)
	}
	offload := func() (string, []byte) {
		t.Helper()
		if err := p.offload(refs[0]); err != nil {
			t.Fatal(err)
		}
		pid, _ := refs[0].Ref()
		key := p.offloaded[p.obj[pid]]
		data, err := dev.Get(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		return key, data
	}

	key, got := offload()
	want, err := os.ReadFile("testdata/perobject_offload.golden.xml")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("offload payload differs from testdata/perobject_offload.golden.xml:\n got:  %s\n want: %s", got, want)
	}

	if tag, err := p.Field(refs[0], "tag"); err != nil || tag.MustInt() != 0 {
		t.Fatalf("fault back: %v, %v", tag, err)
	}
	key2, again := offload()
	if want2 := bytes.ReplaceAll(want, []byte(key), []byte(key2)); key2 == key || !bytes.Equal(again, want2) {
		t.Fatalf("offload → reload → offload changed the payload:\n got:  %s\n want: %s", again, want2)
	}
}

func TestPerObjectErrors(t *testing.T) {
	h := heap.New(0)
	reg := heap.NewRegistry()
	cls := nodeClass()
	reg.MustRegister(cls)
	p := NewPerObject(h, reg, store.NewMem(0))
	if _, err := p.Invoke(heap.Nil(), "tag"); !errors.Is(err, heap.ErrNilTarget) {
		t.Errorf("nil target: %v", err)
	}
	// A direct object reference is rejected: the naive design mediates all.
	o, _ := h.New(cls)
	if _, err := p.Invoke(o.RefTo(), "tag"); err == nil {
		t.Error("direct object reference accepted")
	}
	if err := p.offload(o.RefTo()); err == nil {
		t.Error("offload of non-surrogate accepted")
	}
	v, _ := p.NewObject(cls)
	if _, err := p.Invoke(v, "ghost"); !errors.Is(err, heap.ErrNoSuchMethod) {
		t.Errorf("missing method: %v", err)
	}
	if _, err := p.Field(v, "tag"); err != nil {
		t.Errorf("Field: %v", err)
	}
}

func TestCompressorSweepAndAccess(t *testing.T) {
	h := heap.New(0)
	cls := nodeClass()
	// Compressible payload: repetitive bytes.
	o, _ := h.New(cls)
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i % 7)
	}
	o.MustSet("payload", heap.Bytes(big))
	small, _ := h.New(cls)
	small.MustSet("payload", heap.Bytes(make([]byte, 16)))

	before := h.Used()
	c := NewCompressor(h, 1024, 0)
	st, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.Compressed != 1 {
		t.Fatalf("compressed = %d, want 1 (threshold skips small)", st.Compressed)
	}
	if st.Saved() <= 0 {
		t.Fatalf("saved = %d", st.Saved())
	}
	if h.Used() >= before {
		t.Fatalf("heap grew after compression: %d -> %d", before, h.Used())
	}
	if c.CompressedCount() != 1 {
		t.Fatalf("count = %d", c.CompressedCount())
	}

	// Second sweep is a no-op.
	st2, _ := c.Sweep()
	if st2.Compressed != 1 {
		t.Fatalf("re-sweep compressed more: %+v", st2)
	}

	// Access decompresses exactly the original payload.
	plain, err := c.Access(o.ID(), "payload")
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(big) {
		t.Fatalf("decompressed %d bytes, want %d", len(plain), len(big))
	}
	for i := range plain {
		if plain[i] != big[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
	if c.CompressedCount() != 0 {
		t.Fatal("slot still marked compressed after access")
	}
	if c.StatsSnapshot().Decompressed != 1 {
		t.Fatalf("stats = %+v", c.StatsSnapshot())
	}
	// Accessing an uncompressed slot is a plain read.
	if _, err := c.Access(small.ID(), "payload"); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if _, err := c.Access(999999, "payload"); !errors.Is(err, heap.ErrNoSuchObject) {
		t.Errorf("missing object: %v", err)
	}
	if _, err := c.Access(o.ID(), "ghost"); !errors.Is(err, heap.ErrNoSuchField) {
		t.Errorf("missing field: %v", err)
	}
}

func TestCompressorSkipsIncompressible(t *testing.T) {
	h := heap.New(0)
	cls := nodeClass()
	o, _ := h.New(cls)
	noise := make([]byte, 4096)
	r := rand.New(rand.NewSource(42))
	r.Read(noise)
	o.MustSet("payload", heap.Bytes(noise))
	c := NewCompressor(h, 1024, 0)
	st, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.Compressed != 0 {
		t.Fatalf("random noise compressed: %+v", st)
	}
	// The payload is untouched.
	v, _ := o.FieldByName("payload")
	if v.BytesLen() != 4096 {
		t.Fatalf("payload resized to %d", v.BytesLen())
	}
}

func TestCompressorRoundTripProperty(t *testing.T) {
	h := heap.New(0)
	cls := nodeClass()
	c := NewCompressor(h, 64, 0)
	r := rand.New(rand.NewSource(7))
	var objs []*heap.Object
	var want [][]byte
	for i := 0; i < 20; i++ {
		o, _ := h.New(cls)
		payload := make([]byte, 64+r.Intn(2048))
		// Mixed compressibility.
		if i%2 == 0 {
			for j := range payload {
				payload[j] = byte(j % 5)
			}
		} else {
			r.Read(payload)
		}
		o.MustSet("payload", heap.Bytes(payload))
		objs = append(objs, o)
		want = append(want, payload)
	}
	if _, err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		got, err := c.Access(o.ID(), "payload")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[i]) {
			t.Fatalf("obj %d: %d bytes, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("obj %d corrupted at byte %d", i, j)
			}
		}
	}
}
