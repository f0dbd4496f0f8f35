package wire

import "objectswap/internal/xmlcodec"

// xmlCodec adapts the paper's Version=1 XML wrapper documents to the Codec
// interface. It is the universal fallback — a donor that advertises no
// formats still stores and returns this — and the compatibility oracle the
// binary family is cross-fuzzed against.
type xmlCodec struct{}

func (xmlCodec) ID() FormatID { return FormatXML }

// encodeFrom appends the shipment's XML text to dst, one record at a time.
func (xmlCodec) encodeFrom(_ *Encoder, dst []byte, sh shipment) ([]byte, error) {
	dst = xmlcodec.AppendHeader(dst, sh.clusterID, sh.version)
	for n := sh.objects.count(); n > 0; n-- {
		o, err := sh.objects.next()
		if err != nil {
			return nil, err
		}
		if dst, err = xmlcodec.AppendObject(dst, o); err != nil {
			return nil, err
		}
	}
	return xmlcodec.AppendTrailer(dst), nil
}

func (xmlCodec) Decode(data []byte) (*xmlcodec.Doc, error) {
	return xmlcodec.Decode(data)
}
