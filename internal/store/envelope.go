package store

import (
	"context"
	"errors"
	"fmt"
)

// This file makes stores format-aware. The paper's donors hold opaque keyed
// text; with negotiated wire formats a payload's format becomes part of the
// storage contract — carried as an explicit envelope field (the HTTP bridge
// maps it onto Content-Type), never sniffed out of payload bytes by the
// donor. Stores that don't implement the Envelope extension only accept the
// universal XML fallback, which is exactly what pre-negotiation donors did.

// FormatXML names the universal fallback format every donor accepts. The
// constant mirrors wire.FormatXML; store deliberately does not import the
// wire package (donors store bytes, they never decode them).
const FormatXML = "xml"

// BuiltinFormats lists the wire formats the in-tree stores accept, mirroring
// the wire package's registry (asserted equal by a wire test).
var BuiltinFormats = []string{"binary", "binary+flate", "delta", "xml"}

// ErrUnsupportedFormat reports a Put whose declared format the device does
// not accept. The constrained device reacts by renegotiating down —
// ultimately to XML, which every donor accepts.
var ErrUnsupportedFormat = errors.New("store: unsupported wire format")

// PutOpts is the envelope accompanying a stored payload.
type PutOpts struct {
	// Format names the payload's wire format (a wire.FormatID string).
	// Empty means unspecified, which donors treat as the XML fallback.
	Format string
}

// Envelope is the optional format-aware store extension. Stores that
// implement it persist the envelope alongside the payload and return it on
// read; stores that don't are XML-only donors.
type Envelope interface {
	// PutEnvelope stores data under key with its envelope, replacing any
	// previous payload. A device that does not accept opts.Format fails with
	// ErrUnsupportedFormat and stores nothing. Like Put, it does not retain
	// data.
	PutEnvelope(ctx context.Context, key string, data []byte, opts PutOpts) error
	// GetEnvelope returns the payload, in a slice the caller owns, and the
	// envelope it was stored with.
	GetEnvelope(ctx context.Context, key string) ([]byte, PutOpts, error)
}

// PutWith stores data on s with its envelope: through the Envelope extension
// when s implements it, through plain Put when the payload is XML (the only
// format a legacy donor can hold). Shipping a non-XML payload to a donor
// without the extension is a negotiation bug and fails without storing.
func PutWith(ctx context.Context, s Store, key string, data []byte, opts PutOpts) error {
	if e, ok := s.(Envelope); ok {
		return e.PutEnvelope(ctx, key, data, opts)
	}
	if opts.Format == "" || opts.Format == FormatXML {
		return s.Put(ctx, key, data)
	}
	return fmt.Errorf("%w: %q on a legacy store", ErrUnsupportedFormat, opts.Format)
}

// GetWith fetches a payload and its envelope from s. Legacy stores report
// the XML fallback format.
func GetWith(ctx context.Context, s Store, key string) ([]byte, PutOpts, error) {
	if e, ok := s.(Envelope); ok {
		return e.GetEnvelope(ctx, key)
	}
	data, err := s.Get(ctx, key)
	if err != nil {
		return nil, PutOpts{}, err
	}
	return data, PutOpts{Format: FormatXML}, nil
}

// formatAccepted reports whether a device advertising the given formats
// accepts format. The XML fallback (and an unspecified format) is always
// accepted — it is what makes old and new devices interoperate.
func formatAccepted(advertised []string, format string) bool {
	if format == "" || format == FormatXML {
		return true
	}
	for _, f := range advertised {
		if f == format {
			return true
		}
	}
	return false
}
