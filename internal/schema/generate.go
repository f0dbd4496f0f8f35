package schema

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"strings"

	"objectswap/internal/heap"
)

// GeneratedFile is one output of the obicomp back half.
type GeneratedFile struct {
	// Name is the file's base name (e.g. "contact_gen.go", "schema_gen.xml").
	Name string
	// Data is the rendered content; Go files are gofmt-formatted and
	// parse-checked before they are returned.
	Data []byte
}

// GenerateFiles renders the full obicomp output for a parsed schema:
//
//   - per class, <class>_gen.go: the compiled field layout, a constructor
//     that builds an ordinary heap.Class (one AddMethod per get<Field> and
//     set<Field> accessor), and a typed proxy-stub wrapper <Class>Ref whose
//     every access routes through the Invoker;
//   - register_gen.go: the ClassRegistrar interface and RegisterAll;
//   - schema_gen.xml: the normalized schema document, so a Go-source scan
//     and an XML schema stay interchangeable inputs.
//
// Every Go file must survive go/format.Source and go/parser.ParseFile or
// GenerateFiles fails — obicomp never emits broken Go.
func GenerateFiles(s *Schema) ([]GeneratedFile, error) {
	var out []GeneratedFile
	for i := range s.Classes {
		c := &s.Classes[i]
		src, err := renderClassFile(s.Package, c)
		if err != nil {
			return nil, err
		}
		out = append(out, GeneratedFile{Name: strings.ToLower(c.Name) + "_gen.go", Data: src})
	}
	reg, err := renderRegisterFile(s)
	if err != nil {
		return nil, err
	}
	out = append(out, GeneratedFile{Name: "register_gen.go", Data: reg})
	out = append(out, GeneratedFile{Name: "schema_gen.xml", Data: schemaXML(s)})
	return out, nil
}

// schemaXML renders the normalized schema document.
func schemaXML(s *Schema) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "<!-- Code generated by obicomp; DO NOT EDIT. -->\n")
	fmt.Fprintf(&b, "<classes package=%q>\n", s.Package)
	for _, c := range s.Classes {
		fmt.Fprintf(&b, "  <class name=%q>\n", c.Name)
		for _, f := range c.Fields {
			fmt.Fprintf(&b, "    <field name=%q kind=%q/>\n", f.Name, f.Kind.String())
		}
		fmt.Fprintf(&b, "  </class>\n")
	}
	fmt.Fprintf(&b, "</classes>\n")
	return b.Bytes()
}

// finishGo formats and parse-checks one generated Go file.
func finishGo(name string, b *bytes.Buffer) ([]byte, error) {
	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("schema: %s does not format: %w", name, err)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, name, src, parser.AllErrors); err != nil {
		return nil, fmt.Errorf("schema: %s does not parse: %w", name, err)
	}
	return src, nil
}

// lowerFirst lower-cases the first letter for unexported identifiers.
func lowerFirst(s string) string {
	return strings.ToLower(s[:1]) + s[1:]
}

// goType maps a field kind to the typed-wrapper Go type.
func goType(k heap.Kind) string {
	switch k {
	case heap.KindInt:
		return "int64"
	case heap.KindFloat:
		return "float64"
	case heap.KindBool:
		return "bool"
	case heap.KindString:
		return "string"
	case heap.KindBytes:
		return "[]byte"
	case heap.KindList:
		return "[]heap.Value"
	default: // ref
		return "heap.Value"
	}
}

func renderClassFile(pkg string, c *Class) ([]byte, error) {
	p := lowerFirst(c.Name) // unexported identifier prefix
	e := export(c.Name)
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by obicomp; DO NOT EDIT.\n//\n")
	fmt.Fprintf(&b, "// Class %s: its compiled field layout, a constructor whose method table\n", c.Name)
	fmt.Fprintf(&b, "// holds one get and one set accessor per field, and a typed proxy-stub\n// wrapper.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	fmt.Fprintf(&b, "import \"objectswap/internal/heap\"\n\n")

	// Compiled layout.
	fmt.Fprintf(&b, "// Field slots of %s.\nconst (\n", c.Name)
	for i, f := range c.Fields {
		fmt.Fprintf(&b, "\t%sSlot%s = %d\n", p, export(f.Name), i)
	}
	fmt.Fprintf(&b, ")\n\n")
	fmt.Fprintf(&b, "// %sFieldDefs is the compiled field layout of %s.\n", p, c.Name)
	fmt.Fprintf(&b, "var %sFieldDefs = [%d]heap.FieldDef{\n", p, len(c.Fields))
	for _, f := range c.Fields {
		fmt.Fprintf(&b, "\t{Name: %q, Kind: %s},\n", f.Name, kindExpr(f.Kind))
	}
	fmt.Fprintf(&b, "}\n\n")

	// Constructor: an ordinary method table, built as a hand-written class is.
	fmt.Fprintf(&b, "// New%sClass builds the %s class with its generated accessors.\n", e, c.Name)
	fmt.Fprintf(&b, "func New%sClass() *heap.Class {\n", e)
	fmt.Fprintf(&b, "\tc := heap.NewClass(%q, %sFieldDefs[:]...)\n", c.Name, p)
	for _, f := range c.Fields {
		fe := export(f.Name)
		fmt.Fprintf(&b, "\tc.AddMethod(%q, func(call *heap.Call) ([]heap.Value, error) {\n", "get"+fe)
		fmt.Fprintf(&b, "\t\treturn call.Return(call.Self.Field(%sSlot%s)), nil\n\t})\n", p, fe)
		fmt.Fprintf(&b, "\tc.AddMethod(%q, func(call *heap.Call) ([]heap.Value, error) {\n", "set"+fe)
		fmt.Fprintf(&b, "\t\treturn nil, call.RT.SetFieldValue(call.Self.RefTo(), %q, call.Arg(0))\n\t})\n", f.Name)
	}
	fmt.Fprintf(&b, "\treturn c\n}\n\n")

	// Typed wrapper (the proxy stub).
	fmt.Fprintf(&b, "// %sRef is the generated typed handle on a %s instance — the proxy-stub\n", e, c.Name)
	fmt.Fprintf(&b, "// surface application code uses instead of stringly-typed Invoke. Every\n")
	fmt.Fprintf(&b, "// access routes through the Invoker, so swap-cluster-proxy interception\n")
	fmt.Fprintf(&b, "// applies exactly as for hand-written dispatch.\n")
	fmt.Fprintf(&b, "type %sRef struct {\n\tRT  heap.Invoker\n\tRef heap.Value\n}\n\n", e)
	fmt.Fprintf(&b, "// As%s wraps a reference in the typed handle.\n", e)
	fmt.Fprintf(&b, "func As%s(rt heap.Invoker, ref heap.Value) %sRef {\n\treturn %sRef{RT: rt, Ref: ref}\n}\n\n", e, e, e)
	for _, f := range c.Fields {
		fe := export(f.Name)
		gt := goType(f.Kind)
		zero := map[heap.Kind]string{
			heap.KindInt:    "0",
			heap.KindFloat:  "0",
			heap.KindBool:   "false",
			heap.KindString: `""`,
			heap.KindBytes:  "nil",
			heap.KindList:   "nil",
			heap.KindRef:    "heap.Nil()",
		}[f.Kind]
		fmt.Fprintf(&b, "// Get%s invokes the generated accessor get%s.\n", fe, fe)
		fmt.Fprintf(&b, "func (r %sRef) Get%s() (%s, error) {\n", e, fe, gt)
		fmt.Fprintf(&b, "\tout, err := r.RT.Invoke(r.Ref, %q)\n\tif err != nil {\n\t\treturn %s, err\n\t}\n", "get"+fe, zero)
		switch f.Kind {
		case heap.KindInt:
			fmt.Fprintf(&b, "\treturn out[0].Int()\n}\n\n")
		case heap.KindFloat:
			fmt.Fprintf(&b, "\treturn out[0].Float()\n}\n\n")
		case heap.KindBool:
			fmt.Fprintf(&b, "\treturn out[0].Bool()\n}\n\n")
		case heap.KindString:
			fmt.Fprintf(&b, "\treturn out[0].Str()\n}\n\n")
		case heap.KindBytes:
			fmt.Fprintf(&b, "\treturn out[0].Bytes()\n}\n\n")
		case heap.KindList:
			fmt.Fprintf(&b, "\treturn out[0].List()\n}\n\n")
		default:
			fmt.Fprintf(&b, "\treturn out[0], nil\n}\n\n")
		}
		arg := map[heap.Kind]string{
			heap.KindInt:    "heap.Int(v)",
			heap.KindFloat:  "heap.Float(v)",
			heap.KindBool:   "heap.Bool(v)",
			heap.KindString: "heap.Str(v)",
			heap.KindBytes:  "heap.Bytes(v)",
			heap.KindList:   "heap.List(v...)",
			heap.KindRef:    "v",
		}[f.Kind]
		fmt.Fprintf(&b, "// Set%s invokes the generated accessor set%s (writes are mediated by\n", fe, fe)
		fmt.Fprintf(&b, "// the runtime's reference interception).\n")
		fmt.Fprintf(&b, "func (r %sRef) Set%s(v %s) error {\n", e, fe, gt)
		fmt.Fprintf(&b, "\t_, err := r.RT.Invoke(r.Ref, %q, %s)\n\treturn err\n}\n", "set"+fe, arg)
		fmt.Fprintf(&b, "\n")
	}

	return finishGo(strings.ToLower(c.Name)+"_gen.go", &b)
}

func renderRegisterFile(s *Schema) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by obicomp; DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", s.Package)
	fmt.Fprintf(&b, "import (\n\t\"objectswap/internal/heap\"\n)\n\n")
	fmt.Fprintf(&b, "// ClassRegistrar registers application classes (satisfied by\n")
	fmt.Fprintf(&b, "// core.Runtime and objectswap.System).\n")
	fmt.Fprintf(&b, "type ClassRegistrar interface {\n\tRegisterClass(*heap.Class) error\n}\n\n")
	fmt.Fprintf(&b, "// RegisterAll registers every generated class.\n")
	fmt.Fprintf(&b, "func RegisterAll(r ClassRegistrar) error {\n")
	for _, c := range s.Classes {
		fmt.Fprintf(&b, "\tif err := r.RegisterClass(New%sClass()); err != nil {\n\t\treturn err\n\t}\n", export(c.Name))
	}
	fmt.Fprintf(&b, "\treturn nil\n}\n")
	return finishGo("register_gen.go", &b)
}
