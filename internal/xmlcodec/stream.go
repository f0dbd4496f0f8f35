package xmlcodec

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"objectswap/internal/heap"
)

// This file is the streaming wire layer: a hand-rolled compact encoder that
// appends XML text to the caller's buffer one record at a time (no
// reflection, no intermediate wire structs) and a token-streaming decoder
// built on xml.Decoder. The compact form is semantically identical to the
// pretty-printed form the original reflection encoder produced (same element
// names, attributes and Version); it only drops the indentation whitespace,
// which a 700 Kbps link otherwise has to carry on every shipment. The decoder
// accepts both forms — and, like the reflection decoder before it, tolerates
// unknown attributes and skips unknown elements, so lenient third-party
// producers interoperate.

// ---- streaming encoder ------------------------------------------------

// A shipment is AppendHeader, one AppendObject per record, AppendTrailer.
// Doc.Encode drives the three over a document's objects; the wire package's
// XML codec drives them straight from the heap, one reused record at a time.

// AppendHeader appends the XML declaration and the opening wrapper element
// of the shipment keyed clusterID to dst.
func AppendHeader(dst []byte, clusterID string, version int) []byte {
	dst = append(dst, xml.Header...)
	dst = append(dst, `<swapcluster id="`...)
	dst = appendEscaped(dst, clusterID, true)
	dst = append(dst, `" version="`...)
	dst = strconv.AppendInt(dst, int64(version), 10)
	return append(dst, `">`...)
}

// AppendObject appends the element of one record to dst.
func AppendObject(dst []byte, o *Object) ([]byte, error) {
	dst = append(dst, `<object id="`...)
	dst = strconv.AppendUint(dst, uint64(o.ID), 10)
	dst = append(dst, `" class="`...)
	dst = appendEscaped(dst, o.Class, true)
	dst = append(dst, `">`...)
	for i := range o.Fields {
		f := &o.Fields[i]
		var err error
		if dst, err = appendValue(dst, "field", f.Name, &f.Value); err != nil {
			return nil, err
		}
	}
	return append(dst, "</object>"...), nil
}

// AppendTrailer appends the closing wrapper element to dst.
func AppendTrailer(dst []byte) []byte { return append(dst, "</swapcluster>"...) }

// encodeBufs recycles the buffers Doc.Encode renders into, so a document is
// copied out once at its exact size instead of growing from empty.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Encode renders the document as compact XML text.
func (d *Doc) Encode() ([]byte, error) {
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	out := AppendHeader((*buf)[:0], d.ClusterID, d.Version)
	for i := range d.Objects {
		var err error
		if out, err = AppendObject(out, &d.Objects[i]); err != nil {
			return nil, err
		}
	}
	*buf = AppendTrailer(out)
	return bytes.Clone(*buf), nil
}

// appendValue renders one encoded value as a <field> or <item> element.
// Elements with no body self-close; the decoders (both of them) treat the two
// forms identically.
func appendValue(dst []byte, tag, name string, v *Value) ([]byte, error) {
	dst = append(dst, '<')
	dst = append(dst, tag...)
	if tag == "field" {
		dst = append(dst, ` name="`...)
		dst = appendEscaped(dst, name, true)
		dst = append(dst, '"')
	}
	dst = append(dst, ` kind="`...)
	dst = append(dst, kindTag(*v)...)
	dst = append(dst, '"')

	switch v.Kind {
	case heap.KindNil:
		return append(dst, "/>"...), nil
	case heap.KindInt:
		dst = strconv.AppendInt(append(dst, '>'), v.I, 10)
	case heap.KindFloat:
		dst = strconv.AppendFloat(append(dst, '>'), v.F, 'g', -1, 64)
	case heap.KindBool:
		dst = strconv.AppendBool(append(dst, '>'), v.B)
	case heap.KindString:
		if v.S == "" {
			return append(dst, "/>"...), nil
		}
		dst = appendEscaped(append(dst, '>'), v.S, false)
	case heap.KindBytes:
		if len(v.Data) == 0 {
			return append(dst, "/>"...), nil
		}
		dst = base64.StdEncoding.AppendEncode(append(dst, '>'), v.Data)
	case heap.KindRef:
		switch v.RefClass {
		case RefSlot:
			dst = append(dst, ` slot="`...)
			dst = strconv.AppendInt(dst, int64(v.Slot), 10)
		case RefRemote:
			dst = append(dst, ` target="`...)
			dst = strconv.AppendUint(dst, uint64(v.Target), 10)
			if v.Class != "" {
				dst = append(dst, `" class="`...)
				dst = appendEscaped(dst, v.Class, true)
			}
		default:
			dst = append(dst, ` target="`...)
			dst = strconv.AppendUint(dst, uint64(v.Target), 10)
		}
		return append(dst, `"/>`...), nil
	case heap.KindList:
		if len(v.List) == 0 {
			return append(dst, "/>"...), nil
		}
		dst = append(dst, '>')
		for i := range v.List {
			var err error
			if dst, err = appendValue(dst, "item", "", &v.List[i]); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("xmlcodec: unencodable kind %s", v.Kind)
	}
	dst = append(dst, "</"...)
	dst = append(dst, tag...)
	return append(dst, '>'), nil
}

// appendEscaped appends s with XML escaping, matching encoding/xml's
// escapeText semantics: &, <, > and \r are always escaped; attribute text
// additionally escapes quotes, tabs and newlines; runes XML cannot carry
// (control characters, invalid UTF-8, surrogates) are replaced with U+FFFD —
// exactly what the reflection encoder produced, so either encoder yields the
// same decoded value.
func appendEscaped(dst []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			var repl string
			switch c {
			case '&':
				repl = "&amp;"
			case '<':
				repl = "&lt;"
			case '>':
				repl = "&gt;"
			case '\r':
				repl = "&#xD;"
			case '"':
				if attr {
					repl = "&#34;"
				}
			case '\t':
				if attr {
					repl = "&#x9;"
				}
			case '\n':
				if attr {
					repl = "&#xA;"
				}
			default:
				if c < 0x20 {
					repl = "\uFFFD"
				}
			}
			if repl == "" {
				i++
				continue
			}
			dst = append(dst, s[last:i]...)
			dst = append(dst, repl...)
			i++
			last = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || !validXMLRune(r) {
			dst = append(dst, s[last:i]...)
			dst = append(dst, "\uFFFD"...)
			i += size
			last = i
			continue
		}
		i += size
	}
	return append(dst, s[last:]...)
}

// validXMLRune reports whether XML 1.0 can carry r (the stdlib isInCharacterRange).
func validXMLRune(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}

// ---- streaming decoder ------------------------------------------------

// Decode parses XML text produced by either encoder (compact or indented).
// It is the XML codec's reader; a payload fetched from a donor goes through
// wire.Decode or wire.Stage, which detect its format first.
func Decode(data []byte) (*Doc, error) {
	return decodeFrom(bytes.NewReader(data))
}

// decodeFrom parses one wrapper document from r, token by token, without
// reflection and without materializing intermediate wire structs. Reading
// stops at the root element's end tag; trailing bytes are not consumed.
func decodeFrom(r io.Reader) (*Doc, error) {
	dec := xml.NewDecoder(r)

	// Locate the root element, skipping prolog, comments and directives.
	var root xml.StartElement
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			root = se
			break
		}
	}
	if root.Name.Local != "swapcluster" {
		return nil, fmt.Errorf("%w: root element <%s>", ErrBadDocument, root.Name.Local)
	}

	doc := &Doc{}
	for _, a := range root.Attr {
		switch a.Name.Local {
		case "id":
			doc.ClusterID = a.Value
		case "version":
			v, err := strconv.Atoi(trimWS(a.Value))
			if err != nil {
				return nil, fmt.Errorf("%w: bad version %q", ErrBadDocument, a.Value)
			}
			doc.Version = v
		}
	}
	if doc.Version != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, doc.Version)
	}

	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "object" {
				if err := dec.Skip(); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
				}
				continue
			}
			eo, err := decodeObject(dec, t)
			if err != nil {
				return nil, err
			}
			doc.Objects = append(doc.Objects, eo)
		case xml.EndElement:
			return doc, nil
		}
	}
}

func decodeObject(dec *xml.Decoder, start xml.StartElement) (Object, error) {
	var eo Object
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "id":
			id, err := strconv.ParseUint(trimWS(a.Value), 10, 64)
			if err != nil {
				return Object{}, fmt.Errorf("%w: bad object id %q", ErrBadDocument, a.Value)
			}
			eo.ID = heap.ObjID(id)
		case "class":
			eo.Class = a.Value
		}
	}
	if eo.ID == heap.NilID {
		return Object{}, fmt.Errorf("%w: object with nil id", ErrBadDocument)
	}
	if eo.Class == "" {
		return Object{}, fmt.Errorf("%w: object @%d without class", ErrBadDocument, eo.ID)
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return Object{}, fmt.Errorf("%w: %v", ErrBadDocument, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "field" {
				if err := dec.Skip(); err != nil {
					return Object{}, fmt.Errorf("%w: %v", ErrBadDocument, err)
				}
				continue
			}
			name, v, err := decodeValue(dec, t)
			if err != nil {
				return Object{}, fmt.Errorf("object @%d field %s: %w", eo.ID, name, err)
			}
			eo.Fields = append(eo.Fields, Field{Name: name, Value: v})
		case xml.EndElement:
			return eo, nil
		}
	}
}

// decodeValue parses one <field> or <item> element (and its nested items)
// into an encoded Value.
func decodeValue(dec *xml.Decoder, start xml.StartElement) (string, Value, error) {
	var name, kind, target, slot, class string
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "name":
			name = a.Value
		case "kind":
			kind = a.Value
		case "target":
			target = a.Value
		case "slot":
			slot = a.Value
		case "class":
			class = a.Value
		}
	}
	var body []byte
	var items []Value
	for {
		tok, err := dec.Token()
		if err != nil {
			return name, Value{}, fmt.Errorf("%w: %v", ErrBadDocument, err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			body = append(body, t...)
		case xml.StartElement:
			if t.Name.Local != "item" {
				if err := dec.Skip(); err != nil {
					return name, Value{}, fmt.Errorf("%w: %v", ErrBadDocument, err)
				}
				continue
			}
			_, item, err := decodeValue(dec, t)
			if err != nil {
				return name, Value{}, err
			}
			items = append(items, item)
		case xml.EndElement:
			v, err := wireValue(kind, target, slot, class, string(body), items)
			return name, v, err
		}
	}
}

// wireValue builds an encoded Value from its wire constituents. It is the
// single source of truth for body/attribute parsing rules, shared by the
// streaming decoder and the legacy reflection path.
func wireValue(kind, target, slot, class, body string, items []Value) (Value, error) {
	switch kind {
	case "nil":
		return Value{Kind: heap.KindNil}, nil
	case "int":
		i, err := strconv.ParseInt(trimWS(body), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad int %q", ErrBadDocument, body)
		}
		return Value{Kind: heap.KindInt, I: i}, nil
	case "float":
		f, err := strconv.ParseFloat(trimWS(body), 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad float %q", ErrBadDocument, body)
		}
		return Value{Kind: heap.KindFloat, F: f}, nil
	case "bool":
		b, err := strconv.ParseBool(trimWS(body))
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad bool %q", ErrBadDocument, body)
		}
		return Value{Kind: heap.KindBool, B: b}, nil
	case "string":
		return Value{Kind: heap.KindString, S: body}, nil
	case "bytes":
		data, err := base64.StdEncoding.DecodeString(trimWS(body))
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad base64", ErrBadDocument)
		}
		return Value{Kind: heap.KindBytes, Data: data}, nil
	case "ref", "rref":
		t, err := strconv.ParseUint(trimWS(target), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad target %q", ErrBadDocument, target)
		}
		rc := RefInternal
		if kind == "rref" {
			rc = RefRemote
		}
		return Value{Kind: heap.KindRef, RefClass: rc, Target: heap.ObjID(t), Class: class}, nil
	case "xref":
		s, err := strconv.Atoi(trimWS(slot))
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad slot %q", ErrBadDocument, slot)
		}
		return Value{Kind: heap.KindRef, RefClass: RefSlot, Slot: s}, nil
	case "list":
		return Value{Kind: heap.KindList, List: items}, nil
	default:
		return Value{}, fmt.Errorf("%w: unknown kind %q", ErrBadDocument, kind)
	}
}
