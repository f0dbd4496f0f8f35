package baseline

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"time"

	"objectswap/internal/heap"
)

// Compressor implements the heap-compression comparator (Chen et al.,
// OOPSLA'03): objects whose byte payloads exceed a threshold are compressed
// in place and lazily decompressed on first access. Memory is saved without
// any network or nearby device — at a CPU (and, on a mobile device, energy)
// cost on every boundary, which is the trade-off the paper argues against.
type Compressor struct {
	h         *heap.Heap
	threshold int
	level     int

	// compressed tracks which (object, field) slots currently hold
	// compressed payloads and their original sizes.
	compressed map[slotKey]int

	stats CompressStats
}

type slotKey struct {
	obj   heap.ObjID
	field int
}

// CompressStats aggregates the compressor's activity and cost.
type CompressStats struct {
	Compressed    int   // payloads currently compressed
	BytesBefore   int64 // original payload bytes of everything compressed so far
	BytesAfter    int64 // compressed payload bytes
	Decompressed  int
	CompressCPU   time.Duration
	DecompressCPU time.Duration
}

// Saved returns the net bytes saved by the payloads currently compressed.
func (s CompressStats) Saved() int64 { return s.BytesBefore - s.BytesAfter }

// NewCompressor builds a compressor over a heap. Payloads of at least
// threshold bytes are eligible (Chen et al. used 1.5 KB; the default here is
// 1024). level is a flate level (flate.DefaultCompression when 0).
func NewCompressor(h *heap.Heap, threshold, level int) *Compressor {
	if threshold <= 0 {
		threshold = 1024
	}
	if level == 0 {
		level = flate.DefaultCompression
	}
	return &Compressor{
		h:          h,
		threshold:  threshold,
		level:      level,
		compressed: make(map[slotKey]int),
	}
}

// StatsSnapshot returns a copy of the counters.
func (c *Compressor) StatsSnapshot() CompressStats { return c.stats }

// Sweep compresses every eligible byte payload in the heap, returning the
// stats after the pass. Already-compressed slots are skipped.
func (c *Compressor) Sweep() (CompressStats, error) {
	for _, oid := range c.h.IDs() {
		o, err := c.h.Get(oid)
		if err != nil {
			continue
		}
		if o.Class().Special != heap.SpecialNone {
			continue
		}
		for i := 0; i < o.NumFields(); i++ {
			key := slotKey{obj: oid, field: i}
			if _, done := c.compressed[key]; done {
				continue
			}
			v := o.Field(i)
			if v.Kind() != heap.KindBytes || v.BytesLen() < c.threshold {
				continue
			}
			raw, err := v.Bytes()
			if err != nil {
				continue
			}
			start := time.Now()
			packed, err := deflate(raw, c.level)
			c.stats.CompressCPU += time.Since(start)
			if err != nil {
				return c.stats, fmt.Errorf("baseline: compress @%d: %w", oid, err)
			}
			if len(packed) >= len(raw) {
				continue // incompressible; keep raw
			}
			if err := o.SetField(i, heap.Bytes(packed)); err != nil {
				return c.stats, err
			}
			c.compressed[key] = len(raw)
			c.stats.Compressed++
			c.stats.BytesBefore += int64(len(raw))
			c.stats.BytesAfter += int64(len(packed))
		}
	}
	return c.stats, nil
}

// Access materializes the named field of an object, decompressing it if
// needed, and returns the raw payload. It models an application read hitting
// a compressed object.
func (c *Compressor) Access(oid heap.ObjID, field string) ([]byte, error) {
	o, err := c.h.Get(oid)
	if err != nil {
		return nil, err
	}
	idx, ok := o.Class().FieldIndex(field)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", heap.ErrNoSuchField, o.Class().Name, field)
	}
	v := o.Field(idx)
	raw, err := v.Bytes()
	if err != nil {
		return nil, err
	}
	key := slotKey{obj: oid, field: idx}
	origSize, packed := c.compressed[key]
	if !packed {
		return raw, nil
	}
	start := time.Now()
	plain, err := inflate(raw, origSize)
	c.stats.DecompressCPU += time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("baseline: decompress @%d: %w", oid, err)
	}
	if err := o.SetField(idx, heap.Bytes(plain)); err != nil {
		return nil, err
	}
	delete(c.compressed, key)
	c.stats.Compressed--
	c.stats.BytesBefore -= int64(origSize)
	c.stats.BytesAfter -= int64(len(raw))
	c.stats.Decompressed++
	return plain, nil
}

func deflate(raw []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(raw); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func inflate(packed []byte, sizeHint int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(packed))
	defer r.Close()
	out := bytes.NewBuffer(make([]byte, 0, sizeHint))
	if _, err := io.Copy(out, r); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}
