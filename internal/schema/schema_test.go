package schema

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

const sample = `<classes package="model">
  <class name="Photo">
    <field name="thumb" kind="bytes"/>
    <field name="caption" kind="string"/>
    <field name="next" kind="ref"/>
  </class>
  <class name="Album">
    <field name="title" kind="string"/>
    <field name="first" kind="ref"/>
    <field name="count" kind="int"/>
  </class>
</classes>`

func TestParseSample(t *testing.T) {
	s, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s.Package != "model" || len(s.Classes) != 2 {
		t.Fatalf("schema = %+v", s)
	}
	photo := s.Classes[0]
	if photo.Name != "Photo" || len(photo.Fields) != 3 {
		t.Fatalf("photo = %+v", photo)
	}
	if photo.Fields[0].Kind != heap.KindBytes || photo.Fields[2].Kind != heap.KindRef {
		t.Fatalf("kinds = %+v", photo.Fields)
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"not xml":         `}{`,
		"no package":      `<classes><class name="A"><field name="x" kind="int"/></class></classes>`,
		"bad package":     `<classes package="9x"><class name="A"><field name="x" kind="int"/></class></classes>`,
		"no classes":      `<classes package="p"></classes>`,
		"no class name":   `<classes package="p"><class><field name="x" kind="int"/></class></classes>`,
		"bad class name":  `<classes package="p"><class name="A-B"><field name="x" kind="int"/></class></classes>`,
		"dup class":       `<classes package="p"><class name="A"><field name="x" kind="int"/></class><class name="A"><field name="x" kind="int"/></class></classes>`,
		"no fields":       `<classes package="p"><class name="A"></class></classes>`,
		"no field name":   `<classes package="p"><class name="A"><field kind="int"/></class></classes>`,
		"dup field":       `<classes package="p"><class name="A"><field name="x" kind="int"/><field name="x" kind="int"/></class></classes>`,
		"bad kind":        `<classes package="p"><class name="A"><field name="x" kind="wat"/></class></classes>`,
		"nil kind":        `<classes package="p"><class name="A"><field name="x" kind="nil"/></class></classes>`,
		"bad field ident": `<classes package="p"><class name="A"><field name="x y" kind="int"/></class></classes>`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse([]byte(doc)); !errors.Is(err, ErrBadSchema) {
				t.Fatalf("accepted %s: %v", name, err)
			}
		})
	}
}

func TestGenerateProducesValidGo(t *testing.T) {
	s, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	files, err := GenerateFiles(s)
	if err != nil {
		t.Fatal(err)
	}
	code := map[string]string{}
	for _, f := range files {
		code[f.Name] = string(f.Data)
	}
	if len(code) != 4 {
		t.Fatalf("generated %d files, want photo_gen.go, album_gen.go, register_gen.go and schema_gen.xml", len(code))
	}
	for _, c := range s.Classes {
		name := strings.ToLower(c.Name) + "_gen.go"
		src, ok := code[name]
		if !ok {
			t.Fatalf("no %s", name)
		}
		for _, want := range []string{
			"package model",
			"Code generated by obicomp; DO NOT EDIT.",
			"func New" + c.Name + "Class() *heap.Class",
			"type " + c.Name + "Ref struct",
		} {
			if !strings.Contains(src, want) {
				t.Fatalf("%s missing %q:\n%s", name, want, src)
			}
		}
		// Behaviour is the class's method table: one get and one set
		// accessor per field, and no second dispatch or codec plane.
		for _, f := range c.Fields {
			for _, m := range []string{"get" + export(f.Name), "set" + export(f.Name)} {
				if n := strings.Count(src, `c.AddMethod("`+m+`"`); n != 1 {
					t.Fatalf("%s adds %s %d times, want once:\n%s", name, m, n, src)
				}
			}
		}
		if n, want := strings.Count(src, `AddMethod("get`), len(c.Fields); n != want {
			t.Fatalf("%s adds %d getters for %d fields", name, n, want)
		}
		// The typed stub is the only type the file declares, and it imports
		// only the heap: no generated ops type bound to the class, no wire
		// codec beside it.
		f, err := parser.ParseFile(token.NewFileSet(), name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value != `"objectswap/internal/heap"` {
				t.Fatalf("%s imports %s", name, imp.Path.Value)
			}
		}
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.TYPE {
				continue
			}
			for _, spec := range g.Specs {
				if ts := spec.(*ast.TypeSpec); ts.Name.Name != c.Name+"Ref" {
					t.Fatalf("%s declares type %s beside %sRef", name, ts.Name.Name, c.Name)
				}
			}
		}
	}
	if !strings.Contains(code["register_gen.go"], "func RegisterAll(r ClassRegistrar) error") {
		t.Fatalf("register_gen.go has no RegisterAll:\n%s", code["register_gen.go"])
	}
}

// TestGeneratedSemantics mirrors what the generated code does by building
// the same class shape through the same code path the template emits, then
// exercises the accessors under the swapping runtime — proving that the
// generated set-accessor routes cross-cluster references through
// interception.
func TestGeneratedSemantics(t *testing.T) {
	// Hand-expanded equivalent of the generated NewPhotoClass body.
	c := heap.NewClass("Photo",
		heap.FieldDef{Name: "thumb", Kind: heap.KindBytes},
		heap.FieldDef{Name: "caption", Kind: heap.KindString},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
	c.AddMethod("getCaption", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("caption")
		if err != nil {
			return nil, err
		}
		return []heap.Value{v}, nil
	})
	c.AddMethod("setNext", func(call *heap.Call) ([]heap.Value, error) {
		return nil, call.RT.SetFieldValue(call.Self.RefTo(), "next", call.Arg(0))
	})
	c.AddMethod("getNext", func(call *heap.Call) ([]heap.Value, error) {
		v, err := call.Self.FieldByName("next")
		if err != nil {
			return nil, err
		}
		return []heap.Value{v}, nil
	})

	devices := store.NewRegistry(store.SelectMostFree)
	_ = devices.Add("d", store.NewMem(0))
	rt := core.NewRuntime(heap.New(0), heap.NewRegistry(), core.WithStores(devices))
	rt.MustRegisterClass(c)

	c1, c2 := rt.Manager().NewCluster(), rt.Manager().NewCluster()
	a, _ := rt.NewObject(c, c1)
	b, _ := rt.NewObject(c, c2)
	_ = a.MustSet("caption", heap.Str("A"))
	_ = b.MustSet("caption", heap.Str("B"))

	// setNext through the accessor: the raw direct reference to b must be
	// mediated because a and b live in different clusters.
	if _, err := rt.Invoke(a.RefTo(), "setNext", b.RefTo()); err != nil {
		t.Fatal(err)
	}
	nv, _ := a.FieldByName("next")
	if !rt.IsProxyRef(nv) {
		t.Fatalf("generated set-accessor stored an un-mediated reference: %v", nv)
	}
	// getNext + getCaption across the boundary still reach b.
	out, err := rt.Invoke(a.RefTo(), "getNext")
	if err != nil {
		t.Fatal(err)
	}
	cap2, err := rt.Invoke(out[0], "getCaption")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := cap2[0].Str(); s != "B" {
		t.Fatalf("caption via accessors = %q", s)
	}
}

func TestIsIdent(t *testing.T) {
	for _, good := range []string{"a", "A9", "x_y", "_z"} {
		if !isIdent(good) {
			t.Errorf("isIdent(%q) = false", good)
		}
	}
	for _, bad := range []string{"", "9a", "a-b", "a b", "é"} {
		if isIdent(bad) {
			t.Errorf("isIdent(%q) = true", bad)
		}
	}
}
