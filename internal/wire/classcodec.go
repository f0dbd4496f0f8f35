package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// ClassCodec is a per-class specialization of the OBW binary frame's field
// section. A registered class (normally one with generated ClassOps) can
// supply a codec that encodes and decodes its OWN field list with static,
// unrolled code instead of the generic per-value switch.
//
// Byte-identity is a hard contract: a class codec MUST produce exactly the
// bytes the generic path would produce for the same object, because wire
// formats are negotiated per shipment and a donor (or a repair peer) may
// decode a frame with or without the codec available. The Enc/Dec surfaces
// below make that contract structural — every helper emits or
// consumes precisely one generic-path encoding step, and the Value/Fields
// fallbacks ARE the generic path — so a codec composed from them cannot
// diverge. FuzzCrossClassCodec enforces it anyway.
//
// The codec covers only the field section of one object record. The object
// header (id, class name, field count) stays generic: the decoder must read
// the class name before it can pick a codec.
type ClassCodec interface {
	// ClassName names the class this codec specializes.
	ClassName() string
	// Encode appends o's fields (names and values) through e.
	Encode(e Enc, o *xmlcodec.Object) error
	// Decode fills o.Fields (already sliced to the frame's field count) with
	// names and values read through d.
	Decode(d Dec, o *xmlcodec.Object) error
}

// ClassCodecProvider is implemented by heap.ClassOps whose generator also
// emitted a wire codec. Runtime registration probes for it and binds the
// codec into the runtime's ClassCodecs set.
type ClassCodecProvider interface {
	WireCodec() ClassCodec
}

// ClassCodecs is one runtime's set of bound class codecs, passed to the
// binary-family codecs through EncodeOpts/DecodeOpts. It is deliberately NOT
// a process-global registry: distinct runtimes (and tests) register distinct
// classes under identical names, and a codec for someone else's layout would
// corrupt frames. A nil *ClassCodecs is valid and empty.
type ClassCodecs struct {
	mu      sync.RWMutex
	byClass map[string]ClassCodec
}

// NewClassCodecs returns an empty codec set.
func NewClassCodecs() *ClassCodecs {
	return &ClassCodecs{byClass: make(map[string]ClassCodec)}
}

// Bind adds (or replaces) the codec for its class.
func (s *ClassCodecs) Bind(c ClassCodec) {
	if c == nil {
		panic("wire: Bind(nil ClassCodec)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byClass == nil {
		s.byClass = make(map[string]ClassCodec)
	}
	s.byClass[c.ClassName()] = c
}

// Lookup returns the codec bound for a class name, if any. Safe on nil.
func (s *ClassCodecs) Lookup(class string) (ClassCodec, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.byClass[class]
	return c, ok
}

// Len reports the number of bound codecs. Safe on nil.
func (s *ClassCodecs) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byClass)
}

// Enc is the encoding surface handed to ClassCodec.Encode. Each helper emits
// exactly the generic path's bytes for that shape.
type Enc struct{ e *frameEncoder }

// Field emits one field name.
func (x Enc) Field(name string) { x.e.str(name) }

// Nil emits a nil value.
func (x Enc) Nil() { x.e.out = append(x.e.out, bNil) }

// Int emits an int value.
func (x Enc) Int(i int64) {
	x.e.out = append(x.e.out, bInt)
	x.e.uvarint(zigzag(i))
}

// Float emits a float value.
func (x Enc) Float(f float64) {
	x.e.out = append(x.e.out, bFloat)
	x.e.out = binary.LittleEndian.AppendUint64(x.e.out, math.Float64bits(f))
}

// Bool emits a bool value.
func (x Enc) Bool(b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	x.e.out = append(x.e.out, bBool, v)
}

// Str emits a string value.
func (x Enc) Str(s string) {
	x.e.out = append(x.e.out, bString)
	x.e.str(s)
}

// Bytes emits a bytes value.
func (x Enc) Bytes(b []byte) {
	x.e.out = append(x.e.out, bBytes)
	x.e.uvarint(uint64(len(b)))
	x.e.blob = append(x.e.blob, b...)
}

// Value emits any value through the generic path.
func (x Enc) Value(v *xmlcodec.Value) error { return x.e.value(v) }

// Fields emits a whole field list through the generic path.
func (x Enc) Fields(fs []xmlcodec.Field) error {
	for j := range fs {
		x.e.str(fs[j].Name)
		if err := x.e.value(&fs[j].Value); err != nil {
			return err
		}
	}
	return nil
}

// Dec is the decoding surface handed to ClassCodec.Decode. Typed readers
// consume the value's kind tag and decode in place when the frame matches the
// expected kind, falling back to the generic body reader otherwise — a frame
// whose field kinds drifted from the generated layout still decodes exactly
// as the generic path would.
type Dec struct{ d *frameDecoder }

// Name reads one field name.
func (x Dec) Name() (string, error) { return x.d.str() }

// Value reads any value through the generic path.
func (x Dec) Value(v *xmlcodec.Value) error { return x.d.value(v) }

// Fields reads a whole field list through the generic path.
func (x Dec) Fields(fs []xmlcodec.Field) error {
	for j := range fs {
		f := &fs[j]
		var err error
		if f.Name, err = x.d.str(); err != nil {
			return err
		}
		if err := x.d.value(&f.Value); err != nil {
			return err
		}
	}
	return nil
}

func (x Dec) tag() (byte, error) {
	if len(x.d.tree) == 0 {
		return 0, fmt.Errorf("%w: truncated value", ErrBadFrame)
	}
	t := x.d.tree[0]
	x.d.tree = x.d.tree[1:]
	return t, nil
}

// Int reads a value expected to be an int.
func (x Dec) Int(v *xmlcodec.Value) error {
	t, err := x.tag()
	if err != nil {
		return err
	}
	if t == bInt {
		u, err := x.d.uvarint()
		if err != nil {
			return err
		}
		v.Kind, v.I = heap.KindInt, unzigzag(u)
		return nil
	}
	return x.d.valueBody(t, v)
}

// Float reads a value expected to be a float.
func (x Dec) Float(v *xmlcodec.Value) error {
	t, err := x.tag()
	if err != nil {
		return err
	}
	if t == bFloat {
		if len(x.d.tree) < 8 {
			return fmt.Errorf("%w: truncated float", ErrBadFrame)
		}
		v.Kind = heap.KindFloat
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(x.d.tree))
		x.d.tree = x.d.tree[8:]
		return nil
	}
	return x.d.valueBody(t, v)
}

// Bool reads a value expected to be a bool.
func (x Dec) Bool(v *xmlcodec.Value) error {
	t, err := x.tag()
	if err != nil {
		return err
	}
	if t == bBool {
		if len(x.d.tree) < 1 {
			return fmt.Errorf("%w: truncated bool", ErrBadFrame)
		}
		v.Kind, v.B = heap.KindBool, x.d.tree[0] != 0
		x.d.tree = x.d.tree[1:]
		return nil
	}
	return x.d.valueBody(t, v)
}

// Str reads a value expected to be a string.
func (x Dec) Str(v *xmlcodec.Value) error {
	t, err := x.tag()
	if err != nil {
		return err
	}
	if t == bString {
		s, err := x.d.str()
		if err != nil {
			return err
		}
		v.Kind, v.S = heap.KindString, s
		return nil
	}
	return x.d.valueBody(t, v)
}

// Bytes reads a value expected to be bytes.
func (x Dec) Bytes(v *xmlcodec.Value) error {
	t, err := x.tag()
	if err != nil {
		return err
	}
	if t == bBytes {
		b, err := x.d.bytes()
		if err != nil {
			return err
		}
		v.Kind, v.Data = heap.KindBytes, b
		return nil
	}
	return x.d.valueBody(t, v)
}
