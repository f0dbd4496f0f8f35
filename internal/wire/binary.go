package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// Binary frame layout (all multi-byte integers are unsigned LEB128 varints
// unless noted; PROTOCOL.md §"Wire formats v2" is the normative spec):
//
//	magic   "OBW"                    3 bytes
//	version 0x01                     1 byte
//	flags                            1 byte  (bit0 deflate; the rest reserved)
//	bodyLen uvarint                  length of everything that follows
//	body:
//	  header: clusterIDLen docVersion nObjects nFields nListItems
//	          strBytes blobBytes
//	  tree:   per object: id classLen fieldCount, then per field:
//	          nameLen value
//	  string arena  (clusterID, then tree strings in order)
//	  blob arena    (bytes payloads in tree order)
//
// Values are a kind byte followed by a kind-specific payload:
//
//	0 nil | 1 int (zigzag) | 2 float (8B LE IEEE754) | 3 bool (1B)
//	4 string (len→str arena) | 5 bytes (len→blob arena)
//	6 internal ref (target) | 7 slot ref (slot)
//	8 remote ref (target, classLen→str arena) | 9 list (count, items)
//
// Strings and blobs are split into trailing arenas so the decoder can
// materialize every string of a document from ONE string conversion and
// every byte payload from ONE copy — the decode side drops from ~12k allocs
// per shipment (reflection XML) to a handful, which is the point: swap-in is
// the latency-critical direction on a re-faulting constrained device.

const (
	magic0, magic1, magic2 = 'O', 'B', 'W'
	frameVersion           = 1

	flagFlate byte = 1 << 0

	// frameHeaderLen is magic+version+flags: the minimum prefix Detect needs.
	frameHeaderLen = 5
)

// value kind tags on the wire.
const (
	bNil byte = iota
	bInt
	bFloat
	bBool
	bString
	bBytes
	bRefInternal
	bRefSlot
	bRefRemote
	bList
)

// binaryCodec is the plain length-prefixed binary framing.
type binaryCodec struct{}

func (binaryCodec) ID() FormatID { return FormatBinary }

func (binaryCodec) encodeFrom(e *Encoder, dst []byte, sh shipment) ([]byte, error) {
	return e.frame(dst, 0, sh)
}

func (c binaryCodec) Decode(data []byte) (*xmlcodec.Doc, error) {
	return decodeDoc(c, data)
}

func (binaryCodec) openBody(data []byte) ([]byte, error) {
	body, flags, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: flags 0x%02x on plain binary payload", ErrBadFrame, flags)
	}
	return body, nil
}

func zigzag(i int64) uint64   { return uint64(i<<1) ^ uint64(i>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// A shipment is what a format's writer walks: the cluster key, the wrapper
// version and the objects, one record at a time. The two sources are a Doc
// (docSource) and the heap itself (heapSource), so a cluster being swapped
// out is never materialized as a document.
type shipment struct {
	clusterID string
	version   int
	objects   objectSource
}

// objectSource yields a shipment's records in order.
type objectSource interface {
	// count is the number of records next yields.
	count() int
	// next returns the following record, valid until the call after it.
	next() (*xmlcodec.Object, error)
}

// docSource yields a document's own records.
type docSource struct {
	doc *xmlcodec.Doc
	i   int
}

func docShipment(doc *xmlcodec.Doc) shipment {
	return shipment{doc.ClusterID, doc.Version, &docSource{doc: doc}}
}

func (s *docSource) count() int { return len(s.doc.Objects) }

func (s *docSource) next() (*xmlcodec.Object, error) {
	o := &s.doc.Objects[s.i]
	s.i++
	return o, nil
}

// heapSource wraps resident objects one at a time into the encoder's reused
// record.
type heapSource struct {
	objs      []*heap.Object
	encodeRef xmlcodec.RefEncoder
	wrap      *xmlcodec.Wrapper
	i         int
}

func (s *heapSource) count() int { return len(s.objs) }

func (s *heapSource) next() (*xmlcodec.Object, error) {
	o := s.objs[s.i]
	s.i++
	return s.wrap.Wrap(o, s.encodeRef)
}

// frameEncoder writes the three sections of a frame body in one walk: the
// tree into out, strings and byte payloads into their arenas, counting list
// items for the header as it goes.
type frameEncoder struct {
	out       []byte
	strs      []byte
	blob      []byte
	listItems int
}

func (e *frameEncoder) uvarint(x uint64) { e.out = binary.AppendUvarint(e.out, x) }

func (e *frameEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.strs = append(e.strs, s...)
}

func (e *frameEncoder) value(v *xmlcodec.Value) error {
	switch v.Kind {
	case heap.KindNil:
		e.out = append(e.out, bNil)
	case heap.KindInt:
		e.out = append(e.out, bInt)
		e.uvarint(zigzag(v.I))
	case heap.KindFloat:
		e.out = append(e.out, bFloat)
		e.out = binary.LittleEndian.AppendUint64(e.out, math.Float64bits(v.F))
	case heap.KindBool:
		b := byte(0)
		if v.B {
			b = 1
		}
		e.out = append(e.out, bBool, b)
	case heap.KindString:
		e.out = append(e.out, bString)
		e.str(v.S)
	case heap.KindBytes:
		e.out = append(e.out, bBytes)
		e.uvarint(uint64(len(v.Data)))
		e.blob = append(e.blob, v.Data...)
	case heap.KindRef:
		switch v.RefClass {
		case xmlcodec.RefInternal:
			e.out = append(e.out, bRefInternal)
			e.uvarint(uint64(v.Target))
		case xmlcodec.RefSlot:
			e.out = append(e.out, bRefSlot)
			e.uvarint(uint64(v.Slot))
		case xmlcodec.RefRemote:
			e.out = append(e.out, bRefRemote)
			e.uvarint(uint64(v.Target))
			e.str(v.Class)
		default:
			return fmt.Errorf("%w: ref class %d", ErrBadFrame, v.RefClass)
		}
	case heap.KindList:
		e.out = append(e.out, bList)
		e.uvarint(uint64(len(v.List)))
		e.listItems += len(v.List)
		for i := range v.List {
			if err := e.value(&v.List[i]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("wire: cannot encode kind %v", v.Kind)
	}
	return nil
}

// Encoder is the reusable state of frame encoding: the body sections, the
// record heap objects are wrapped into, and the buffer EncodeObjects
// assembles its frame in. Encoders are pooled; take one with NewEncoder and
// Release it when the frame it returned is no longer needed.
type Encoder struct {
	frameEncoder
	head []byte // body header, written last: its counts come from the walk
	wrap xmlcodec.Wrapper
	buf  []byte // the frame EncodeObjects returned
}

var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// NewEncoder takes an encoder from the pool.
func NewEncoder() *Encoder { return encoders.Get().(*Encoder) }

// Release returns the encoder, and with it the frame its last EncodeObjects
// returned, to the pool.
func (e *Encoder) Release() { encoders.Put(e) }

// EncodeObjects renders the resident objects objs as one shipment keyed key
// in the named format, straight from the heap: each object is wrapped into
// one reused record (references classified by encodeRef) and written into the
// payload, byte for byte what Encode gives for xmlcodec.EncodeObjects of the
// same objects. The returned payload is the encoder's own buffer, valid until
// Release or the next EncodeObjects — a store must not keep it (see
// store.Store).
func (e *Encoder) EncodeObjects(format FormatID, key string, objs []*heap.Object,
	encodeRef xmlcodec.RefEncoder) ([]byte, error) {
	c, err := Lookup(format)
	if err != nil {
		return nil, err
	}
	src := &heapSource{objs: objs, encodeRef: encodeRef, wrap: &e.wrap}
	frame, err := c.encodeFrom(e, e.buf[:0], shipment{key, xmlcodec.Version, src})
	if err != nil {
		return nil, err
	}
	e.buf = frame
	return frame, nil
}

// walk writes the shipment's body sections — header, tree, string arena,
// blob arena — into the encoder in one pass over its objects.
// It is the only writer of the OBW tree.
func (e *Encoder) walk(sh shipment) error {
	e.out, e.strs, e.blob, e.listItems = e.out[:0], e.strs[:0], e.blob[:0], 0

	// The string arena opens with the cluster key.
	e.strs = append(e.strs, sh.clusterID...)
	n, fields := sh.objects.count(), 0
	for i := 0; i < n; i++ {
		o, err := sh.objects.next()
		if err != nil {
			return err
		}
		e.uvarint(uint64(o.ID))
		e.str(o.Class)
		e.uvarint(uint64(len(o.Fields)))
		fields += len(o.Fields)
		for j := range o.Fields {
			f := &o.Fields[j]
			e.str(f.Name)
			if err := e.value(&f.Value); err != nil {
				return err
			}
		}
	}

	h := binary.AppendUvarint(e.head[:0], uint64(len(sh.clusterID)))
	h = binary.AppendUvarint(h, uint64(sh.version))
	h = binary.AppendUvarint(h, uint64(n))
	h = binary.AppendUvarint(h, uint64(fields))
	h = binary.AppendUvarint(h, uint64(e.listItems))
	h = binary.AppendUvarint(h, uint64(len(e.strs)))
	h = binary.AppendUvarint(h, uint64(len(e.blob)))
	e.head = h
	return nil
}

// body lists the sections walk wrote, in frame order.
func (e *Encoder) body() [][]byte { return [][]byte{e.head, e.out, e.strs, e.blob} }

// frame appends the shipment's OBW frame to dst, each section copied once
// from the encoder behind the length prefix.
func (e *Encoder) frame(dst []byte, flags byte, sh shipment) ([]byte, error) {
	if err := e.walk(sh); err != nil {
		return nil, err
	}
	return appendFrame(dst, flags, e.body()...), nil
}

// appendFrame wraps parts, together the frame body, in the OBW frame header.
func appendFrame(dst []byte, flags byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	dst = slices.Grow(dst, frameHeaderLen+binary.MaxVarintLen64+n)
	dst = append(dst, magic0, magic1, magic2, frameVersion, flags)
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// openFrame validates magic, version and the body length prefix, returning
// the body and the flag byte.
func openFrame(data []byte) ([]byte, byte, error) {
	if len(data) < frameHeaderLen {
		return nil, 0, fmt.Errorf("%w: short frame (%d bytes)", ErrBadFrame, len(data))
	}
	if data[0] != magic0 || data[1] != magic1 || data[2] != magic2 {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if data[3] != frameVersion {
		return nil, 0, fmt.Errorf("%w: frame version %d", ErrBadFrame, data[3])
	}
	flags := data[4]
	rest := data[frameHeaderLen:]
	bodyLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: bad body length", ErrBadFrame)
	}
	rest = rest[n:]
	if uint64(len(rest)) != bodyLen {
		return nil, 0, fmt.Errorf("%w: body length %d, have %d bytes", ErrBadFrame, bodyLen, len(rest))
	}
	return rest, flags, nil
}

// frameDecoder walks the tree while consuming the arenas sequentially.
type frameDecoder struct {
	tree []byte // header+tree remainder
	strs string // string arena (one conversion for the whole document)
	blob []byte // blob arena (one copy for the whole document)

	values []xmlcodec.Value // arena for list items
}

func (d *frameDecoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.tree)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrBadFrame)
	}
	d.tree = d.tree[n:]
	return x, nil
}

func (d *frameDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.strs)) {
		return "", fmt.Errorf("%w: string arena exhausted", ErrBadFrame)
	}
	s := d.strs[:n]
	d.strs = d.strs[n:]
	return s, nil
}

func (d *frameDecoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.blob)) {
		return nil, fmt.Errorf("%w: blob arena exhausted", ErrBadFrame)
	}
	b := d.blob[:n:n]
	d.blob = d.blob[n:]
	return b, nil
}

func (d *frameDecoder) value(v *xmlcodec.Value) error {
	if len(d.tree) == 0 {
		return fmt.Errorf("%w: truncated value", ErrBadFrame)
	}
	kind := d.tree[0]
	d.tree = d.tree[1:]
	switch kind {
	case bNil:
		v.Kind = heap.KindNil
	case bInt:
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		v.Kind, v.I = heap.KindInt, unzigzag(u)
	case bFloat:
		if len(d.tree) < 8 {
			return fmt.Errorf("%w: truncated float", ErrBadFrame)
		}
		v.Kind = heap.KindFloat
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(d.tree))
		d.tree = d.tree[8:]
	case bBool:
		if len(d.tree) < 1 {
			return fmt.Errorf("%w: truncated bool", ErrBadFrame)
		}
		v.Kind, v.B = heap.KindBool, d.tree[0] != 0
		d.tree = d.tree[1:]
	case bString:
		s, err := d.str()
		if err != nil {
			return err
		}
		v.Kind, v.S = heap.KindString, s
	case bBytes:
		b, err := d.bytes()
		if err != nil {
			return err
		}
		v.Kind, v.Data = heap.KindBytes, b
	case bRefInternal:
		t, err := d.uvarint()
		if err != nil {
			return err
		}
		v.Kind, v.RefClass, v.Target = heap.KindRef, xmlcodec.RefInternal, heap.ObjID(t)
	case bRefSlot:
		s, err := d.uvarint()
		if err != nil {
			return err
		}
		v.Kind, v.RefClass, v.Slot = heap.KindRef, xmlcodec.RefSlot, int(s)
	case bRefRemote:
		t, err := d.uvarint()
		if err != nil {
			return err
		}
		cls, err := d.str()
		if err != nil {
			return err
		}
		v.Kind, v.RefClass, v.Target, v.Class = heap.KindRef, xmlcodec.RefRemote, heap.ObjID(t), cls
	case bList:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(d.values)) {
			return fmt.Errorf("%w: list arena exhausted", ErrBadFrame)
		}
		v.Kind = heap.KindList
		v.List = d.values[:n:n]
		d.values = d.values[n:]
		for i := range v.List {
			if err := d.value(&v.List[i]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: value kind 0x%02x", ErrBadFrame, kind)
	}
	return nil
}

// objectSink receives a shipment from the tree reader, one record at a time.
// The two sinks are a Doc (docSink) and an Installer staging heap objects
// (heapSink), so a cluster being swapped in is never materialized as a
// document.
type objectSink interface {
	// begin announces the shipment and returns storage for listItems list
	// items, which the reader fills while the sink's records refer to it.
	begin(clusterID string, version, objects, fields, listItems int) ([]xmlcodec.Value, error)
	// next returns the record to decode the following object into; its Fields
	// has nf entries.
	next(nf int) *xmlcodec.Object
	// put hands the decoded record over.
	put(o *xmlcodec.Object) error
}

// docSink collects the records into a document, each decoded in place into
// arenas sized from the frame header.
type docSink struct {
	doc    xmlcodec.Doc // the sink escapes with its document: one allocation
	fields []xmlcodec.Field
	i      int
}

func (s *docSink) begin(clusterID string, version, objects, fields, listItems int) ([]xmlcodec.Value, error) {
	s.doc = xmlcodec.Doc{
		ClusterID: clusterID,
		Version:   version,
		Objects:   make([]xmlcodec.Object, objects),
	}
	s.fields = make([]xmlcodec.Field, fields)
	return make([]xmlcodec.Value, listItems), nil
}

func (s *docSink) next(nf int) *xmlcodec.Object {
	o := &s.doc.Objects[s.i]
	s.i++
	o.Fields = s.fields[:nf:nf]
	s.fields = s.fields[nf:]
	return o
}

func (s *docSink) put(*xmlcodec.Object) error { return nil }

// heapSink stages each record into the heap object it will become the moment
// it is decoded, in a staging slab sized from the header's nFields, which
// readBody has already bounded by the body's length; the record and the list
// storage are scratch, reused per object and pooled across shipments.
type heapSink struct {
	reg     *heap.Registry
	in      *xmlcodec.Installer
	scratch *stageScratch
}

// stageScratch is the reusable decode state of Stage.
type stageScratch struct {
	rec   xmlcodec.Object
	lists []xmlcodec.Value
}

var stageScratches = sync.Pool{New: func() any { return new(stageScratch) }}

func (s *heapSink) begin(clusterID string, version, objects, fields, listItems int) ([]xmlcodec.Value, error) {
	var err error
	if s.in, err = xmlcodec.NewInstaller(s.reg, clusterID, version, objects, fields); err != nil {
		return nil, err
	}
	sc := s.scratch
	if cap(sc.lists) < listItems {
		sc.lists = make([]xmlcodec.Value, listItems)
	}
	sc.lists = sc.lists[:listItems]
	return sc.lists, nil
}

func (s *heapSink) next(nf int) *xmlcodec.Object {
	rec := &s.scratch.rec
	if cap(rec.Fields) < nf {
		rec.Fields = make([]xmlcodec.Field, nf)
	}
	rec.Fields = rec.Fields[:nf]
	clear(rec.Fields) // the reader sets only what a value's kind uses
	return rec
}

func (s *heapSink) put(o *xmlcodec.Object) error { return s.in.Add(o) }

// readBody parses a frame body into sink — the only reader of the OBW tree.
//
// borrow selects the borrowed-blob contract: byte payloads alias the input
// buffer instead of a defensive copy (one allocation fewer per decode). That
// is right for a sink that copies on its own, as the heap does on
// installation; a document keeps the copy.
func readBody(body []byte, borrow bool, sink objectSink) error {
	d := frameDecoder{tree: body}
	clusterIDLen, err := d.uvarint()
	if err != nil {
		return err
	}
	docVersion, err := d.uvarint()
	if err != nil {
		return err
	}
	nObjects, err := d.uvarint()
	if err != nil {
		return err
	}
	nFields, err := d.uvarint()
	if err != nil {
		return err
	}
	nListItems, err := d.uvarint()
	if err != nil {
		return err
	}
	strBytes, err := d.uvarint()
	if err != nil {
		return err
	}
	blobBytes, err := d.uvarint()
	if err != nil {
		return err
	}

	// Sanity: every count costs at least one tree byte, and the arenas
	// cannot exceed what remains — reject counts a hostile payload inflates.
	// The arena lengths are compared individually before summing so a crafted
	// strBytes+blobBytes cannot wrap around uint64 past the check.
	remaining := uint64(len(d.tree))
	if strBytes > remaining || blobBytes > remaining-strBytes ||
		nObjects > remaining || nFields > remaining ||
		nListItems > remaining || clusterIDLen > strBytes {
		return fmt.Errorf("%w: header counts exceed body", ErrBadFrame)
	}

	// Split off the arenas; the tree is what's left in the middle.
	arenaStart := remaining - strBytes - blobBytes
	arena := d.tree[arenaStart:]
	d.tree = d.tree[:arenaStart]
	d.strs = string(arena[:strBytes])
	if borrow {
		d.blob = arena[strBytes:]
	} else {
		d.blob = append([]byte(nil), arena[strBytes:]...)
	}

	clusterID := d.strs[:clusterIDLen]
	d.strs = d.strs[clusterIDLen:]

	if d.values, err = sink.begin(clusterID, int(docVersion), int(nObjects), int(nFields), int(nListItems)); err != nil {
		return err
	}
	fieldsLeft := nFields
	for i := uint64(0); i < nObjects; i++ {
		id, err := d.uvarint()
		if err != nil {
			return err
		}
		class, err := d.str()
		if err != nil {
			return err
		}
		nf, err := d.uvarint()
		if err != nil {
			return err
		}
		if nf > fieldsLeft {
			return fmt.Errorf("%w: field arena exhausted", ErrBadFrame)
		}
		fieldsLeft -= nf
		o := sink.next(int(nf))
		o.ID, o.Class = heap.ObjID(id), class
		for j := range o.Fields {
			f := &o.Fields[j]
			if f.Name, err = d.str(); err != nil {
				return err
			}
			if err = d.value(&f.Value); err != nil {
				return err
			}
		}
		if err := sink.put(o); err != nil {
			return err
		}
	}
	if len(d.tree) != 0 {
		return fmt.Errorf("%w: %d trailing tree bytes", ErrBadFrame, len(d.tree))
	}
	return nil
}

// bodyCodec is a binary-family format: its payload opens to one plain frame
// body.
type bodyCodec interface {
	openBody(data []byte) ([]byte, error)
}

// decodeDoc is Codec.Decode for the binary family: the document is one more
// object sink.
func decodeDoc(c bodyCodec, data []byte) (*xmlcodec.Doc, error) {
	body, err := c.openBody(data)
	if err != nil {
		return nil, err
	}
	sink := new(docSink)
	if err := readBody(body, false, sink); err != nil {
		return nil, err
	}
	return &sink.doc, nil
}

// Stage validates a fetched payload of any format and converts it, object by
// object, into staged heap objects: everything Decode and Doc.Install would
// check — framing, bounds, counts, wrapper version, known classes and fields,
// value kinds, internal references — is checked here, with no heap touched
// and no lock needed. The returned Installer makes the cluster resident in
// one step. Binary frames go straight from bytes to the objects' field slots;
// XML text decodes to a Doc first and stages that. Nothing in the Installer
// aliases data.
func Stage(data []byte, reg *heap.Registry) (*xmlcodec.Installer, error) {
	id, err := Detect(data)
	if err != nil {
		return nil, err
	}
	c, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	bc, ok := c.(bodyCodec)
	if !ok {
		doc, err := c.Decode(data)
		if err != nil {
			return nil, err
		}
		return doc.Stage(reg)
	}
	body, err := bc.openBody(data)
	if err != nil {
		return nil, err
	}
	sink := heapSink{reg: reg, scratch: stageScratches.Get().(*stageScratch)}
	err = readBody(body, true, &sink)
	sink.scratch.release()
	if err != nil {
		return nil, err
	}
	if err := sink.in.Verify(); err != nil {
		return nil, err
	}
	return sink.in, nil
}

// release drops the scratch's references into the decoded frame and returns
// it to the pool.
func (sc *stageScratch) release() {
	clear(sc.rec.Fields[:cap(sc.rec.Fields)])
	clear(sc.lists)
	sc.rec.Class = ""
	stageScratches.Put(sc)
}
