package xmlcodec

import (
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"strconv"

	"objectswap/internal/heap"
)

// This file keeps the original reflection-based wire path: its wire structs,
// which the tests' EncodeIndent renders into the human-readable
// pretty-printed form (the historical on-device format that the streaming
// decoder must keep accepting), and decodeLegacy, which anchors the
// compatibility tests and benchmarks that prove the streaming codec
// round-trips with it. Nothing on the swap hot path uses reflection anymore.

type xmlDoc struct {
	XMLName xml.Name `xml:"swapcluster"`
	ID      string   `xml:"id,attr"`
	Version int      `xml:"version,attr"`
	Objects []xmlObj `xml:"object"`
}

type xmlObj struct {
	ID     uint64     `xml:"id,attr"`
	Class  string     `xml:"class,attr"`
	Fields []xmlField `xml:"field"`
}

type xmlField struct {
	Name   string    `xml:"name,attr"`
	Kind   string    `xml:"kind,attr"`
	Target string    `xml:"target,attr,omitempty"`
	Slot   string    `xml:"slot,attr,omitempty"`
	Class  string    `xml:"class,attr,omitempty"`
	Body   string    `xml:",chardata"`
	Items  []xmlItem `xml:"item"`
}

type xmlItem struct {
	Kind   string    `xml:"kind,attr"`
	Target string    `xml:"target,attr,omitempty"`
	Slot   string    `xml:"slot,attr,omitempty"`
	Class  string    `xml:"class,attr,omitempty"`
	Body   string    `xml:",chardata"`
	Items  []xmlItem `xml:"item"`
}

// kindTag returns the wire tag for an encoded value, distinguishing the three
// reference flavors.
func kindTag(v Value) string {
	if v.Kind == heap.KindRef {
		switch v.RefClass {
		case RefSlot:
			return "xref"
		case RefRemote:
			return "rref"
		default:
			return "ref"
		}
	}
	return v.Kind.String()
}

func valueToWire(v Value) (kind, target, slot, class, body string, items []xmlItem, err error) {
	kind = kindTag(v)
	if v.Kind == heap.KindRef && v.RefClass == RefRemote {
		class = v.Class
	}
	switch v.Kind {
	case heap.KindNil:
	case heap.KindInt:
		body = strconv.FormatInt(v.I, 10)
	case heap.KindFloat:
		body = strconv.FormatFloat(v.F, 'g', -1, 64)
	case heap.KindBool:
		body = strconv.FormatBool(v.B)
	case heap.KindString:
		body = v.S
	case heap.KindBytes:
		body = base64.StdEncoding.EncodeToString(v.Data)
	case heap.KindRef:
		switch v.RefClass {
		case RefSlot:
			slot = strconv.Itoa(v.Slot)
		default:
			target = strconv.FormatUint(uint64(v.Target), 10)
		}
	case heap.KindList:
		for _, e := range v.List {
			k, tg, sl, cl, b, sub, werr := valueToWire(e)
			if werr != nil {
				return "", "", "", "", "", nil, werr
			}
			items = append(items, xmlItem{Kind: k, Target: tg, Slot: sl, Class: cl, Body: b, Items: sub})
		}
	default:
		err = fmt.Errorf("xmlcodec: unencodable kind %s", v.Kind)
	}
	return kind, target, slot, class, body, items, err
}

func valueFromWire(kind, target, slot, class, body string, items []xmlItem) (Value, error) {
	sub := make([]Value, 0, len(items))
	for _, it := range items {
		ev, err := valueFromWire(it.Kind, it.Target, it.Slot, it.Class, it.Body, it.Items)
		if err != nil {
			return Value{}, err
		}
		sub = append(sub, ev)
	}
	if len(items) == 0 {
		sub = nil
	}
	return wireValue(kind, target, slot, class, body, sub)
}

// trimWS strips the whitespace encoding/xml accumulates around chardata when
// documents are pretty-printed.
func trimWS(s string) string {
	start, end := 0, len(s)
	for start < end && isSpace(s[start]) {
		start++
	}
	for end > start && isSpace(s[end-1]) {
		end--
	}
	return s[start:end]
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// decodeLegacy parses XML text through the original reflection path
// (xml.Unmarshal into wire structs). Retained as the compatibility oracle
// for tests and benchmarks against decodeFrom.
func decodeLegacy(data []byte) (*Doc, error) {
	var wire xmlDoc
	if err := xml.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
	}
	if wire.Version != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, wire.Version)
	}
	doc := &Doc{ClusterID: wire.ID, Version: wire.Version}
	for _, xo := range wire.Objects {
		eo := Object{ID: heap.ObjID(xo.ID), Class: xo.Class}
		if eo.ID == heap.NilID {
			return nil, fmt.Errorf("%w: object with nil id", ErrBadDocument)
		}
		if eo.Class == "" {
			return nil, fmt.Errorf("%w: object @%d without class", ErrBadDocument, eo.ID)
		}
		for _, xf := range xo.Fields {
			ev, err := valueFromWire(xf.Kind, xf.Target, xf.Slot, xf.Class, xf.Body, xf.Items)
			if err != nil {
				return nil, fmt.Errorf("object @%d field %s: %w", eo.ID, xf.Name, err)
			}
			eo.Fields = append(eo.Fields, Field{Name: xf.Name, Value: ev})
		}
		doc.Objects = append(doc.Objects, eo)
	}
	return doc, nil
}
