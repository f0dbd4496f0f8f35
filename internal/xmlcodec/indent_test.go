package xmlcodec

import (
	"encoding/xml"
	"fmt"
)

// EncodeIndent renders the document in the historical pretty-printed form
// (two-space indentation, reflection-marshaled). It is byte-for-byte what the
// original encoder shipped; the tests use it as a second, independent
// rendering. Shipments negotiate their format through the wire package: the
// indented rendering is never what a donor stores.
func (d *Doc) EncodeIndent() ([]byte, error) {
	wire := xmlDoc{ID: d.ClusterID, Version: d.Version}
	for _, eo := range d.Objects {
		xo := xmlObj{ID: uint64(eo.ID), Class: eo.Class}
		for _, f := range eo.Fields {
			kind, target, slot, class, body, items, err := valueToWire(f.Value)
			if err != nil {
				return nil, err
			}
			xo.Fields = append(xo.Fields, xmlField{
				Name: f.Name, Kind: kind, Target: target, Slot: slot, Class: class,
				Body: body, Items: items,
			})
		}
		wire.Objects = append(wire.Objects, xo)
	}
	out, err := xml.MarshalIndent(&wire, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlcodec: marshal: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}
