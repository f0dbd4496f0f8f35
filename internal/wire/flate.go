package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"objectswap/internal/xmlcodec"
)

// flateCodec is the binary framing with the body DEFLATE-compressed at the
// default level. The frame header stays cleartext so Detect works;
// the body is a uvarint raw length (the decoder's inflate size hint — one
// output allocation, no growth copies) followed by the deflate stream of the
// plain binary body.
type flateCodec struct{}

func (flateCodec) ID() FormatID { return FormatFlate }

func (flateCodec) encodeFrom(e *Encoder, dst []byte, sh shipment) ([]byte, error) {
	if err := e.walk(sh); err != nil {
		return nil, err
	}
	body := slices.Concat(e.body()...)
	var packed bytes.Buffer
	fw, err := flate.NewWriter(&packed, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(body); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	var rawLen [binary.MaxVarintLen64]byte
	return appendFrame(dst, flagFlate, binary.AppendUvarint(rawLen[:0], uint64(len(body))), packed.Bytes()), nil
}

func (c flateCodec) Decode(data []byte) (*xmlcodec.Doc, error) {
	return decodeDoc(c, data)
}

// openBody inflates the payload to the plain binary body it wraps.
func (flateCodec) openBody(data []byte) ([]byte, error) {
	packed, flags, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	if flags != flagFlate {
		return nil, fmt.Errorf("%w: flags 0x%02x on compressed payload", ErrBadFrame, flags)
	}
	rawLen, n := binary.Uvarint(packed)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad raw length", ErrBadFrame)
	}
	// An honest raw length is bounded by the achievable flate ratio (~1032x)
	// and by what a constrained device could ever hold; reject anything else
	// before allocating, and inflate EXACTLY the declared length — a stream
	// that runs short or long is a lying frame, not a resize.
	if rawLen > uint64(len(packed))*1032+64 || rawLen > maxInflate {
		return nil, fmt.Errorf("%w: implausible raw length %d", ErrBadFrame, rawLen)
	}
	fr := flate.NewReader(bytes.NewReader(packed[n:]))
	defer fr.Close()
	// Stage hands the body over as the storage of the strings it installs:
	// it must be this call's own allocation. A pooled body would need a copy.
	body := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, body); err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrBadFrame, err)
	}
	var probe [1]byte
	if m, _ := fr.Read(probe[:]); m != 0 {
		return nil, fmt.Errorf("%w: body longer than declared", ErrBadFrame)
	}
	return body, nil
}

// maxInflate caps a compressed body's declared raw size: far above any real
// shipment from a constrained device, far below a decompression bomb.
const maxInflate = 1 << 26
