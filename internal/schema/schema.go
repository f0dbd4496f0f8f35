// Package schema implements the obicomp front half: it parses XML class
// schemas describing application types and generates the Go boilerplate that
// the OBIWAN compiler produced for Java/C# — class declarations plus
// swapping-safe accessor methods for every field.
//
// In the paper, obicomp processes application classes and emits, per class,
// a proxy type implementing the class's public interface plus the
// ISwapClusterProxy plumbing. In this reproduction the proxy half is one
// middleware class for every application class, whose dispatch invokes the
// target's own methods (internal/core); what remains mechanical — and what this package generates — is the class
// definition itself with get/set accessors that route writes through the
// runtime's reference interception, so hand-written code cannot accidentally
// store un-mediated cross-cluster references.
//
// Schema shape:
//
//	<classes package="model">
//	  <class name="Photo">
//	    <field name="thumb" kind="bytes"/>
//	    <field name="caption" kind="string"/>
//	    <field name="next" kind="ref"/>
//	  </class>
//	</classes>
package schema

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"

	"objectswap/internal/heap"
)

// ErrBadSchema reports a malformed schema document.
var ErrBadSchema = errors.New("schema: malformed class schema")

// Field is one declared field.
type Field struct {
	Name string
	Kind heap.Kind
}

// Class is one declared application class.
type Class struct {
	Name   string
	Fields []Field
}

// Schema is a parsed class-schema document.
type Schema struct {
	Package string
	Classes []Class
}

type xmlSchema struct {
	XMLName xml.Name   `xml:"classes"`
	Package string     `xml:"package,attr"`
	Classes []xmlClass `xml:"class"`
}

type xmlClass struct {
	Name   string     `xml:"name,attr"`
	Fields []xmlField `xml:"field"`
}

type xmlField struct {
	Name string `xml:"name,attr"`
	Kind string `xml:"kind,attr"`
}

// Parse reads and validates a schema document.
func Parse(data []byte) (*Schema, error) {
	var doc xmlSchema
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSchema, err)
	}
	if doc.Package == "" {
		return nil, fmt.Errorf("%w: missing package attribute", ErrBadSchema)
	}
	if !isIdent(doc.Package) {
		return nil, fmt.Errorf("%w: package %q is not a valid identifier", ErrBadSchema, doc.Package)
	}
	if len(doc.Classes) == 0 {
		return nil, fmt.Errorf("%w: no classes", ErrBadSchema)
	}
	out := &Schema{Package: doc.Package}
	seenClass := make(map[string]bool)
	for _, xc := range doc.Classes {
		if xc.Name == "" || !isIdent(xc.Name) {
			return nil, fmt.Errorf("%w: class name %q", ErrBadSchema, xc.Name)
		}
		if seenClass[xc.Name] {
			return nil, fmt.Errorf("%w: duplicate class %q", ErrBadSchema, xc.Name)
		}
		seenClass[xc.Name] = true
		c := Class{Name: xc.Name}
		seenField := make(map[string]bool)
		for _, xf := range xc.Fields {
			if xf.Name == "" || !isIdent(xf.Name) {
				return nil, fmt.Errorf("%w: class %s: field name %q", ErrBadSchema, xc.Name, xf.Name)
			}
			if seenField[xf.Name] {
				return nil, fmt.Errorf("%w: class %s: duplicate field %q", ErrBadSchema, xc.Name, xf.Name)
			}
			seenField[xf.Name] = true
			kind, err := heap.KindFromString(xf.Kind)
			if err != nil || kind == heap.KindNil {
				return nil, fmt.Errorf("%w: class %s: field %s: bad kind %q",
					ErrBadSchema, xc.Name, xf.Name, xf.Kind)
			}
			c.Fields = append(c.Fields, Field{Name: xf.Name, Kind: kind})
		}
		if len(c.Fields) == 0 {
			return nil, fmt.Errorf("%w: class %s has no fields", ErrBadSchema, xc.Name)
		}
		out.Classes = append(out.Classes, c)
	}
	return out, nil
}

// isIdent reports whether s is a plausible Go identifier fragment.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// export upper-cases the first letter for generated Go identifiers.
func export(s string) string {
	return strings.ToUpper(s[:1]) + s[1:]
}

// kindExpr renders a heap.Kind constant expression.
func kindExpr(k heap.Kind) string {
	switch k {
	case heap.KindInt:
		return "heap.KindInt"
	case heap.KindFloat:
		return "heap.KindFloat"
	case heap.KindBool:
		return "heap.KindBool"
	case heap.KindString:
		return "heap.KindString"
	case heap.KindBytes:
		return "heap.KindBytes"
	case heap.KindRef:
		return "heap.KindRef"
	case heap.KindList:
		return "heap.KindList"
	default:
		return "heap.KindNil"
	}
}
