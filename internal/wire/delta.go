package wire

import (
	"fmt"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// deltaCodec re-ships a re-swapped cluster as the set of objects dirtied
// since its base shipment plus the IDs removed from the cluster, naming the
// base key the donor is expected to still hold. A delta is NOT
// self-contained: decoding fetches the base payload (normally from the same
// donor the delta came from), decodes it recursively, and applies the
// changes. The runtime only ships a delta to donors known to hold the base
// and falls back to a full shipment otherwise — the fallback matrix is
// specified in PROTOCOL.md.
type deltaCodec struct{}

func (deltaCodec) ID() FormatID { return FormatDelta }
func (deltaCodec) Caps() Caps   { return CapDelta }

func (deltaCodec) encodeFrom(e *Encoder, dst []byte, sh shipment, opts *EncodeOpts) ([]byte, error) {
	if opts == nil || opts.BaseKey == "" {
		return nil, fmt.Errorf("%w: delta encode without a base key", ErrNeedBase)
	}
	if opts.BaseKey == sh.clusterID {
		return nil, fmt.Errorf("%w: delta base key equals shipment key %q", ErrBadFrame, sh.clusterID)
	}
	return e.frame(dst, flagDelta, sh, opts)
}

// Decode merges the delta with its base, so it yields a whole document: a
// delta is the one binary-family format Stage cannot install object by
// object.
func (deltaCodec) Decode(data []byte, opts *DecodeOpts) (*xmlcodec.Doc, error) {
	body, flags, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	if flags != flagDelta {
		return nil, fmt.Errorf("%w: flags 0x%02x on delta payload", ErrBadFrame, flags)
	}
	sink := new(docSink)
	cc := opts.classCodecs()
	baseKey, removed, err := readBody(body, true, cc != nil, cc, sink)
	if err != nil {
		return nil, err
	}
	changes := &sink.doc
	if baseKey == "" || baseKey == changes.ClusterID {
		return nil, fmt.Errorf("%w: delta names base %q", ErrBadFrame, baseKey)
	}
	if opts == nil || opts.FetchBase == nil {
		return nil, fmt.Errorf("%w: no base fetcher for %q", ErrNeedBase, baseKey)
	}
	if opts.depth >= maxDeltaDepth {
		return nil, fmt.Errorf("%w: base chain deeper than %d", ErrBadFrame, maxDeltaDepth)
	}
	baseData, err := opts.FetchBase(baseKey)
	if err != nil {
		return nil, fmt.Errorf("%w: fetch %q: %v", ErrNeedBase, baseKey, err)
	}
	baseOpts := &DecodeOpts{FetchBase: opts.FetchBase, Codecs: opts.Codecs, depth: opts.depth + 1}
	base, err := Decode(baseData, baseOpts)
	if err != nil {
		return nil, fmt.Errorf("%w: decode base %q: %v", ErrNeedBase, baseKey, err)
	}
	return applyDelta(base, changes, removed), nil
}

// applyDelta materializes base + changes: changed objects replace their base
// versions in place, removed IDs drop out, and new objects append in
// shipment order. The result carries the delta's cluster key and version.
func applyDelta(base, changes *xmlcodec.Doc, removed []heap.ObjID) *xmlcodec.Doc {
	drop := make(map[heap.ObjID]bool, len(removed))
	for _, id := range removed {
		drop[id] = true
	}
	changed := make(map[heap.ObjID]int, len(changes.Objects))
	for i := range changes.Objects {
		changed[changes.Objects[i].ID] = i
	}

	out := &xmlcodec.Doc{
		ClusterID: changes.ClusterID,
		Version:   changes.Version,
		Objects:   make([]xmlcodec.Object, 0, len(base.Objects)+len(changes.Objects)),
	}
	applied := make(map[heap.ObjID]bool, len(changes.Objects))
	for i := range base.Objects {
		o := &base.Objects[i]
		if drop[o.ID] {
			continue
		}
		if j, ok := changed[o.ID]; ok {
			out.Objects = append(out.Objects, changes.Objects[j])
			applied[o.ID] = true
			continue
		}
		out.Objects = append(out.Objects, *o)
	}
	for i := range changes.Objects {
		if !applied[changes.Objects[i].ID] {
			out.Objects = append(out.Objects, changes.Objects[i])
		}
	}
	return out
}
