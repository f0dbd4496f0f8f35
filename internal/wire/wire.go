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
// package adds negotiated alternatives behind one Codec interface — a
// length-prefixed binary framing (decode within ~2x of encode) and optional
// DEFLATE compression of the binary body.
//
// All formats carry the same model — a cluster as a sequence of xmlcodec.Object
// records — so format choice is a per-shipment transport decision, never a
// semantic one, and every payload decodes on its own: a donor only stores,
// returns and drops it. Donors advertise the formats they accept on their Stats
// surface and the constrained device picks the first mutually supported entry
// of its preference list — all K replicas of one shipment always use one
// format.
//
// A record is also the unit of materialization. Every format has one writer
// that takes a shipment one record at a time (Encoder.walk for the binary
// family, xmlcodec.AppendObject for XML) and the binary family one tree
// reader (readBody). Each is driven from either of two ends: the heap itself
// (Encoder.EncodeObjects, Stage — the swap path, checkpoints and the
// per-object baseline, which wrap and stage one reused record at a time), or
// a whole xmlcodec.Doc (Encode, Decode — what replication and the XML oracle
// work with). The one reader that needs the whole document, the XML token
// decoder, builds one inside Stage.
package wire

import (
	"errors"
	"fmt"

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
	// FormatFlate is the binary framing with the body DEFLATE-compressed,
	// for links where bytes dominate.
	FormatFlate FormatID = "binary+flate"
)

// Errors reported by the wire layer.
var (
	// ErrUnknownFormat reports a format ID no codec claims.
	ErrUnknownFormat = errors.New("wire: unknown format")
	// ErrBadFrame reports a payload that fails framing validation
	// (bad magic, reserved flag bits, truncated sections, lying length
	// prefix).
	ErrBadFrame = errors.New("wire: malformed frame")
)

// EncodeOpts and DecodeOpts carry no option. They exist only so Encode and
// Decode keep the signatures benchmark/layers.go calls them with (passing nil).
type (
	EncodeOpts struct{}
	DecodeOpts struct{}
)

// Codec is one wire format: its negotiation identity, one writer from any
// record source and one reader to the document model.
type Codec interface {
	// ID is the format's negotiation identifier.
	ID() FormatID
	// encodeFrom appends the shipment's payload to dst, using e's reusable
	// state. A shipment's records come from a Doc (Encode) or straight from
	// the heap (Encoder.EncodeObjects); the bytes are the same either way.
	encodeFrom(e *Encoder, dst []byte, sh shipment) ([]byte, error)
	// Decode parses a payload of this format back into the document model.
	Decode(data []byte) (*xmlcodec.Doc, error)
}

// codecs is every format, in ID order. Formats are protocol identifiers, not
// interchangeable plugins, so the table is fixed.
var codecs = [...]Codec{binaryCodec{}, flateCodec{}, xmlCodec{}}

// Lookup returns the codec of format id.
func Lookup(id FormatID) (Codec, error) {
	for _, c := range codecs {
		if c.ID() == id {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownFormat, id)
}

// Formats lists every format ID, sorted, suitable for a donor's Stats
// advertisement.
func Formats() []FormatID {
	out := make([]FormatID, len(codecs))
	for i, c := range codecs {
		out[i] = c.ID()
	}
	return out
}

// Detect sniffs a payload's format from its leading bytes. XML documents
// start with '<' (optionally after insignificant whitespace); every binary
// family frame starts with the OBW magic whose flag byte distinguishes plain
// from compressed payloads. Every other flag bit is reserved and refused, so
// a frame no codec here wrote never reaches one.
func Detect(data []byte) (FormatID, error) {
	if len(data) >= frameHeaderLen && data[0] == magic0 && data[1] == magic1 && data[2] == magic2 {
		if data[3] != frameVersion {
			return "", fmt.Errorf("%w: frame version %d", ErrBadFrame, data[3])
		}
		switch flags := data[4]; flags {
		case 0:
			return FormatBinary, nil
		case flagFlate:
			return FormatFlate, nil
		default:
			return "", fmt.Errorf("%w: reserved flags 0x%02x", ErrBadFrame, flags)
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
func Decode(data []byte, _ *DecodeOpts) (*xmlcodec.Doc, error) {
	id, err := Detect(data)
	if err != nil {
		return nil, err
	}
	c, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return c.Decode(data)
}

// Encode renders doc in the named format: the document is one more record
// source for the format's writer, and the payload is the caller's own.
func Encode(id FormatID, doc *xmlcodec.Doc, _ *EncodeOpts) ([]byte, error) {
	c, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	e := NewEncoder()
	defer e.Release()
	return c.encodeFrom(e, nil, docShipment(doc))
}
