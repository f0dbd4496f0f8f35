// Package wire defines the negotiated shipment formats a constrained device
// can use to move swap-clusters to nearby donors.
//
// The paper ships every swap-cluster as self-describing XML text so that a
// donor needs no VM and no middleware — "they simply must be able to store
// and provide XML text". That portability claim survives here as the
// universal fallback: every donor accepts Version=1 XML wrapper documents,
// and a donor that advertises nothing else still interoperates. But the
// fault path is asymmetric on a constrained device: swap-in re-faults over a
// ~700 Kbps Bluetooth-class link and then pays the decode cost, so this
// package adds negotiated alternatives behind one Codec interface —
// a length-prefixed binary framing (decode within ~2x of encode), optional
// DEFLATE compression of the binary body, and delta re-shipment for
// re-swapped clusters that ships only the objects dirtied since the last
// checkpointed shipment.
//
// All formats carry the same model — a cluster as a sequence of xmlcodec.Object
// records — so format choice is a per-shipment transport decision, never a
// semantic one. Donors advertise the formats they accept on their Stats
// surface and the constrained device picks the first mutually supported entry
// of its preference list — all K replicas of one shipment always use one
// format.
//
// A record is also the unit of materialization. The binary family has one
// tree writer (Encoder.walk) and one tree reader (readBody), each driven from
// either of two ends: a whole xmlcodec.Doc (Encode, Decode — what replication,
// checkpoints, repair tooling and the XML oracle work with), or the heap
// itself (Encoder.EncodeObjects, Stage — the swap path, which wraps and
// stages one reused record at a time and never builds a document). Formats
// that do need the whole document, the XML text and a delta's merge with its
// base, plug a Doc into those same ends here.
package wire

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// FormatID names one wire format. IDs are the strings donors advertise in
// store.Stats.Formats and the HTTP bridge carries as content-type suffixes.
type FormatID string

// The built-in formats.
const (
	// FormatXML is the paper's Version=1 XML wrapper document — the
	// universal fallback every donor accepts, and the compatibility oracle
	// the other codecs are fuzzed against.
	FormatXML FormatID = "xml"
	// FormatBinary is the length-prefixed binary framing: same document
	// model, arena-decoded so swap-in no longer pays ~18x the encode cost.
	FormatBinary FormatID = "binary"
	// FormatFlate is the binary framing with the body DEFLATE-compressed
	// (reusing the baseline compressor), for links where bytes dominate.
	FormatFlate FormatID = "binary+flate"
	// FormatDelta re-ships a re-swapped cluster as only the objects dirtied
	// since its base shipment, naming the base key the donor already holds.
	FormatDelta FormatID = "delta"
)

// Caps describes what a codec can do, so negotiation and the ship path can
// reason about formats without switching on IDs.
type Caps uint8

const (
	// CapSelfContained marks formats whose payload decodes without any other
	// shipment (everything except delta).
	CapSelfContained Caps = 1 << iota
	// CapCompressed marks formats that compress the payload body.
	CapCompressed
	// CapDelta marks formats that encode against a base shipment.
	CapDelta
)

// Errors reported by the wire layer.
var (
	// ErrUnknownFormat reports a format ID no registered codec claims.
	ErrUnknownFormat = errors.New("wire: unknown format")
	// ErrBadFrame reports a payload that fails framing validation
	// (bad magic, truncated sections, lying length prefix).
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrNeedBase reports a delta decode attempted without a base fetcher,
	// or whose base fetch failed.
	ErrNeedBase = errors.New("wire: delta requires base shipment")
)

// EncodeOpts carries per-shipment encoding parameters. Self-contained codecs
// accept nil; only the delta codec requires one.
type EncodeOpts struct {
	// BaseKey names the base shipment a delta encodes against. The donor
	// receiving the delta must already hold this key.
	BaseKey string
	// Removed lists base member object IDs absent from the new shipment.
	Removed []heap.ObjID
	// Codecs optionally supplies the runtime's per-class codec set. Binary-
	// family formats route matching objects through their class codec; the
	// bytes produced are identical either way (the ClassCodec contract).
	Codecs *ClassCodecs
}

// DecodeOpts carries per-shipment decoding parameters. Self-contained codecs
// accept nil; only the delta codec requires one.
type DecodeOpts struct {
	// FetchBase returns the payload bytes of the named base shipment,
	// normally a Get against the same donor the delta came from.
	FetchBase func(key string) ([]byte, error)

	// Codecs optionally supplies the runtime's per-class codec set. Setting
	// it also opts into the borrowed-blob decode contract: bytes values in
	// the returned document alias the input payload, so the caller must
	// install (or copy) the document before reusing the buffer.
	Codecs *ClassCodecs

	// depth guards against delta-of-delta recursion.
	depth int
}

// classCodecs returns the codec set of a possibly-nil opts.
func (o *EncodeOpts) classCodecs() *ClassCodecs {
	if o == nil {
		return nil
	}
	return o.Codecs
}

// classCodecs returns the codec set of a possibly-nil opts.
func (o *DecodeOpts) classCodecs() *ClassCodecs {
	if o == nil {
		return nil
	}
	return o.Codecs
}

// maxDeltaDepth bounds base-chain recursion; the runtime only ever deltas
// against a full shipment, so anything deeper than a short chain is a
// malformed or adversarial payload.
const maxDeltaDepth = 4

// Codec converts between the document model and one wire format.
type Codec interface {
	// ID is the format's negotiation identifier.
	ID() FormatID
	// Caps reports the format's capabilities.
	Caps() Caps
	// Encode renders doc into this format.
	Encode(doc *xmlcodec.Doc, opts *EncodeOpts) ([]byte, error)
	// Decode parses a payload of this format back into the document model.
	Decode(data []byte, opts *DecodeOpts) (*xmlcodec.Doc, error)
}

var (
	regMu  sync.RWMutex
	codecs = map[FormatID]Codec{}
)

// Register adds a codec to the format registry. Registering a duplicate ID
// panics: formats are protocol identifiers, not interchangeable plugins.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := codecs[c.ID()]; dup {
		panic(fmt.Sprintf("wire: duplicate codec %q", c.ID()))
	}
	codecs[c.ID()] = c
}

// Lookup returns the codec registered for id.
func Lookup(id FormatID) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := codecs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFormat, id)
	}
	return c, nil
}

// Formats lists every registered format ID, sorted, suitable for a donor's
// Stats advertisement.
func Formats() []FormatID {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]FormatID, 0, len(codecs))
	for id := range codecs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FormatStrings is Formats as plain strings (the type store.Stats carries).
func FormatStrings() []string {
	ids := Formats()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

// Detect sniffs a payload's format from its leading bytes. XML documents
// start with '<' (optionally after insignificant whitespace); every binary
// family frame starts with the OBW magic whose flag byte distinguishes
// plain, compressed and delta payloads.
func Detect(data []byte) (FormatID, error) {
	if len(data) >= frameHeaderLen && data[0] == magic0 && data[1] == magic1 && data[2] == magic2 {
		if data[3] != frameVersion {
			return "", fmt.Errorf("%w: frame version %d", ErrBadFrame, data[3])
		}
		flags := data[4]
		switch {
		case flags&flagDelta != 0:
			return FormatDelta, nil
		case flags&flagFlate != 0:
			return FormatFlate, nil
		default:
			return FormatBinary, nil
		}
	}
	for _, b := range data {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '<':
			return FormatXML, nil
		default:
			return "", fmt.Errorf("%w: unrecognized leading byte 0x%02x", ErrBadFrame, b)
		}
	}
	return "", fmt.Errorf("%w: empty payload", ErrBadFrame)
}

// Decode sniffs data's format and decodes it through the matching codec.
// This is the swap-in entry point: stored payloads are self-describing, so
// a reloading device never depends on out-of-band format metadata.
func Decode(data []byte, opts *DecodeOpts) (*xmlcodec.Doc, error) {
	id, err := Detect(data)
	if err != nil {
		return nil, err
	}
	c, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return c.Decode(data, opts)
}

// Encode renders doc in the named format.
func Encode(id FormatID, doc *xmlcodec.Doc, opts *EncodeOpts) ([]byte, error) {
	c, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return c.Encode(doc, opts)
}
