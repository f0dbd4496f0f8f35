// Package baseline implements the comparator systems the paper evaluates
// Object-Swapping against, quantitatively reproducing its Section 5 and
// Section 6 arguments:
//
//   - PerObject — the "naive" design with one proxy per object and every
//     reference mediated (also the shape of surrogate-based offloading à la
//     Messer et al. ICDCS'02): roughly doubles the memory of small objects,
//     pays an indirection on every invocation, and leaves all proxies
//     resident even when every object has been offloaded;
//   - Compressor — in-heap compression of large objects (à la Chen et al.
//     OOPSLA'03): saves memory without a network, at a CPU price on every
//     compression/decompression.
package baseline

import (
	"context"
	"errors"
	"fmt"

	"objectswap/internal/heap"
	"objectswap/internal/store"
	"objectswap/internal/wire"
	"objectswap/internal/xmlcodec"
)

// Per-object proxy class fields.
const (
	fldTarget = "$target" // ref to the resident object, nil while offloaded
	fldObj    = "$obj"    // the object's stable identity
)

// perObjectProxyClass is the surrogate class: one instance per application
// object, permanently mediating every reference.
func perObjectProxyClass() *heap.Class {
	c := heap.NewClass("$PerObjectProxy",
		heap.FieldDef{Name: fldTarget, Kind: heap.KindRef},
		heap.FieldDef{Name: fldObj, Kind: heap.KindInt},
	)
	c.Special = heap.SpecialSurrogate
	return c
}

// PerObject is the naive swapping runtime: every application object is
// wrapped by a surrogate proxy and all references (fields, roots, method
// operands) designate surrogates, never objects.
type PerObject struct {
	h     *heap.Heap
	reg   *heap.Registry
	dev   store.Store
	cls   *heap.Class
	proxy map[heap.ObjID]heap.ObjID // object -> surrogate
	obj   map[heap.ObjID]heap.ObjID // surrogate -> object
	class map[heap.ObjID]string     // object -> class name (survives offload)

	offloaded map[heap.ObjID]string // object -> storage key
	faults    int
	keyseq    uint64

	frames heap.Frames
	depth  int
}

var _ heap.Invoker = (*PerObject)(nil)

// NewPerObject builds the naive runtime over a heap, class registry and one
// swapping device.
func NewPerObject(h *heap.Heap, reg *heap.Registry, dev store.Store) *PerObject {
	p := &PerObject{
		h:         h,
		reg:       reg,
		dev:       dev,
		cls:       perObjectProxyClass(),
		proxy:     make(map[heap.ObjID]heap.ObjID),
		obj:       make(map[heap.ObjID]heap.ObjID),
		class:     make(map[heap.ObjID]string),
		offloaded: make(map[heap.ObjID]string),
	}
	p.frames = heap.NewFrames(p)
	return p
}

// Heap implements heap.Invoker.
func (p *PerObject) Heap() *heap.Heap { return p.h }

// Faults reports how many per-object reload faults have been taken.
func (p *PerObject) Faults() int { return p.faults }

// ProxyCount reports the number of resident surrogates.
func (p *PerObject) ProxyCount() int { return len(p.obj) }

// NewObject allocates an application object plus its permanent surrogate and
// returns a reference to the surrogate (the only reference form application
// code ever sees).
func (p *PerObject) NewObject(c *heap.Class) (heap.Value, error) {
	o, err := p.h.New(c)
	if err != nil {
		return heap.Nil(), err
	}
	pr, err := p.h.NewPrivileged(p.cls)
	if err != nil {
		return heap.Nil(), err
	}
	if err := pr.SetFieldByName(fldTarget, o.RefTo()); err != nil {
		return heap.Nil(), err
	}
	if err := pr.SetFieldByName(fldObj, heap.Int(int64(o.ID()))); err != nil {
		return heap.Nil(), err
	}
	p.proxy[o.ID()] = pr.ID()
	p.obj[pr.ID()] = o.ID()
	p.class[o.ID()] = c.Name
	// The surrogate is the object's only anchor: pin it so application-held
	// references (Go-side) stay valid; the object itself is reachable
	// through the surrogate.
	p.h.Pin(pr.ID())
	return pr.RefTo(), nil
}

// resolve returns the resident object behind a surrogate reference, faulting
// it back in from the device if offloaded.
func (p *PerObject) resolve(v heap.Value) (*heap.Object, error) {
	pid, err := v.Ref()
	if err != nil {
		return nil, err
	}
	if pid == heap.NilID {
		return nil, heap.ErrNilTarget
	}
	oid, ok := p.obj[pid]
	if !ok {
		return nil, fmt.Errorf("baseline: @%d is not a surrogate", pid)
	}
	if key, away := p.offloaded[oid]; away {
		if err := p.reload(oid, key); err != nil {
			return nil, err
		}
	}
	return p.h.Get(oid)
}

// Invoke implements heap.Invoker: every invocation pays the surrogate hop.
func (p *PerObject) Invoke(target heap.Value, method string, args ...heap.Value) (res []heap.Value, err error) {
	o, err := p.resolve(target)
	if err != nil {
		return nil, err
	}
	p.depth++
	defer p.leave(&res)
	return o.Class().Invoke(method, p.frames.Enter(p.depth, o, args))
}

// leave releases the innermost Call, however its method ended, keeping the
// results *res.
func (p *PerObject) leave(res *[]heap.Value) {
	p.frames.Leave(p.depth, *res)
	p.depth--
}

// Field implements heap.Invoker.
func (p *PerObject) Field(target heap.Value, name string) (heap.Value, error) {
	o, err := p.resolve(target)
	if err != nil {
		return heap.Nil(), err
	}
	return o.FieldByName(name)
}

// SetFieldValue implements heap.Invoker. Values must already be surrogate
// references (the only form application code holds).
func (p *PerObject) SetFieldValue(target heap.Value, name string, v heap.Value) error {
	o, err := p.resolve(target)
	if err != nil {
		return err
	}
	return o.SetFieldByName(name, v)
}

// Offload ships one object to the device and removes it from the heap. Its
// surrogate remains resident — the naive design's fixed cost.
func (p *PerObject) Offload(target heap.Value) error {
	pid, err := target.Ref()
	if err != nil {
		return err
	}
	oid, ok := p.obj[pid]
	if !ok {
		return fmt.Errorf("baseline: @%d is not a surrogate", pid)
	}
	if _, away := p.offloaded[oid]; away {
		return nil
	}
	o, err := p.h.Get(oid)
	if err != nil {
		return err
	}

	// References in fields designate surrogates, which stay resident: ship
	// them as remote references naming the surrogate.
	encodeRef := func(rid heap.ObjID) (xmlcodec.Value, error) {
		if _, isSurrogate := p.obj[rid]; !isSurrogate {
			return xmlcodec.Value{}, fmt.Errorf("baseline: field holds non-surrogate reference @%d", rid)
		}
		return xmlcodec.RemoteRef(rid), nil
	}
	p.keyseq++
	key := fmt.Sprintf("obj-%d-gen%d", oid, p.keyseq)
	enc := wire.NewEncoder()
	defer enc.Release()
	data, err := enc.EncodeObjects(wire.FormatXML, key, []*heap.Object{o}, encodeRef)
	if err != nil {
		return err
	}
	if err := p.dev.Put(context.Background(), key, data); err != nil {
		return err
	}

	pr, err := p.h.Get(pid)
	if err != nil {
		return err
	}
	if err := pr.SetFieldByName(fldTarget, heap.Nil()); err != nil {
		return err
	}
	if err := p.h.Remove(oid); err != nil {
		return err
	}
	p.offloaded[oid] = key
	return nil
}

// OffloadAll ships every resident object, leaving only surrogates behind.
func (p *PerObject) OffloadAll() (int, error) {
	n := 0
	for oid, pid := range p.proxy {
		if _, away := p.offloaded[oid]; away {
			continue
		}
		if err := p.Offload(heap.Ref(pid)); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// reload faults one object back from the device.
func (p *PerObject) reload(oid heap.ObjID, key string) error {
	p.faults++
	data, err := p.dev.Get(context.Background(), key)
	if err != nil {
		return fmt.Errorf("baseline: reload @%d: %w", oid, err)
	}
	staged, err := wire.Stage(data, p.reg)
	if err != nil {
		return err
	}
	decodeRef := func(v xmlcodec.Value) (heap.Value, error) {
		if v.RefClass != xmlcodec.RefRemote {
			return heap.Nil(), errors.New("baseline: unexpected reference class")
		}
		return heap.Ref(v.Target), nil // surrogates kept their identities
	}
	_, err = staged.Install(p.h, decodeRef)
	staged.Release()
	if err != nil {
		return err
	}
	pid := p.proxy[oid]
	pr, err := p.h.Get(pid)
	if err != nil {
		return err
	}
	if err := pr.SetFieldByName(fldTarget, heap.Ref(oid)); err != nil {
		return err
	}
	delete(p.offloaded, oid)
	if err := p.dev.Drop(context.Background(), key); err != nil && !errors.Is(err, store.ErrNotFound) {
		return err
	}
	return nil
}

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
