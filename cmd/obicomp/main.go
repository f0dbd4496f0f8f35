// Command obicomp is the reproduction's analogue of the OBIWAN compiler: it
// processes application class declarations — XML class schemas and/or Go
// structs annotated //obiswap:class — and generates, per class, the code the
// paper's compiler produced for Java/C#:
//
//   - the class definition: its field layout and a constructor that builds an
//     ordinary heap.Class, one get<Field> and one set<Field> method per field
//     in its method table — behaviour is the class's method table, exactly as
//     for a class built by hand;
//   - a typed proxy-stub wrapper (<Class>Ref) whose every access routes
//     through the runtime's reference interception;
//
// plus register_gen.go (RegisterAll) and schema_gen.xml (the normalized
// schema document). Frames on the wire are the same whichever way a class
// was built: the wire codecs know nothing of obicomp.
//
// obicomp never emits broken Go: every generated file must pass
// go/format.Source and parse cleanly, or obicomp exits non-zero without
// writing anything (outputs are staged to temp files and renamed only after
// the whole set validated).
//
// Usage:
//
//	obicomp -dir ./contacts                # scan + regenerate in place (go:generate)
//	obicomp -in classes.xml -out ./model   # one schema file into a directory
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"objectswap/internal/schema"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obicomp:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("in", "", "input class schema (.xml) or annotated Go source (.go)")
	out := flag.String("out", "", "output directory for the per-class files (required with -in)")
	dir := flag.String("dir", "", "scan this directory for schemas and annotated structs, regenerate in place")
	flag.Parse()

	switch {
	case *dir != "":
		if *in != "" || *out != "" {
			return fmt.Errorf("-dir does not combine with -in/-out")
		}
		s, err := scanDir(*dir)
		if err != nil {
			return err
		}
		return emitDir(s, *dir)
	case *in != "":
		if *out == "" {
			return fmt.Errorf("-in needs an -out directory")
		}
		s, err := parseInput(*in)
		if err != nil {
			return err
		}
		if len(s.Classes) == 0 {
			return fmt.Errorf("%s declares no classes", *in)
		}
		return emitDir(s, *out)
	default:
		return fmt.Errorf("missing -in file or -dir directory")
	}
}

// parseInput reads one schema source, XML or Go.
func parseInput(path string) (*schema.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".go") {
		return schema.ParseGoSource(path, data)
	}
	return schema.Parse(data)
}

// scanDir collects every class declaration in dir: XML schemas (except
// generated ones) and annotated structs in Go sources (except generated and
// test files). Classes merge into one schema; declaring the same class twice
// or mixing package names is an error.
func scanDir(dir string) (*schema.Schema, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	merged := &schema.Schema{}
	classSource := make(map[string]string)
	xmlPackage := ""
	add := func(src string, s *schema.Schema, fromGo bool) error {
		if len(s.Classes) == 0 {
			return nil
		}
		if fromGo {
			if merged.Package != "" && merged.Package != s.Package {
				return fmt.Errorf("package %q in %s conflicts with %q", s.Package, src, merged.Package)
			}
			merged.Package = s.Package
		} else {
			if xmlPackage != "" && xmlPackage != s.Package {
				return fmt.Errorf("package %q in %s conflicts with %q", s.Package, src, xmlPackage)
			}
			xmlPackage = s.Package
		}
		for _, c := range s.Classes {
			if prev, dup := classSource[c.Name]; dup {
				return fmt.Errorf("class %q declared in both %s and %s", c.Name, prev, src)
			}
			classSource[c.Name] = src
			merged.Classes = append(merged.Classes, c)
		}
		return nil
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, ".xml") && !strings.HasSuffix(name, "_gen.xml"):
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			s, err := schema.Parse(data)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if err := add(path, s, false); err != nil {
				return nil, err
			}
		case strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_gen.go") && !strings.HasSuffix(name, "_test.go"):
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			s, err := schema.ParseGoSource(path, data)
			if err != nil {
				return nil, err
			}
			if err := add(path, s, true); err != nil {
				return nil, err
			}
		}
	}
	if len(merged.Classes) == 0 {
		return nil, fmt.Errorf("no class declarations found in %s", dir)
	}
	if merged.Package == "" {
		merged.Package = xmlPackage
	} else if xmlPackage != "" && xmlPackage != merged.Package {
		return nil, fmt.Errorf("XML schema package %q conflicts with Go package %q", xmlPackage, merged.Package)
	}
	sort.Slice(merged.Classes, func(i, j int) bool {
		return merged.Classes[i].Name < merged.Classes[j].Name
	})
	return merged, nil
}

// emitDir generates the per-class file set into dir. The whole set is
// rendered and validated before the first byte hits a final path.
func emitDir(s *schema.Schema, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files, err := schema.GenerateFiles(s)
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := writeAtomic(filepath.Join(dir, f.Name), f.Data); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "obicomp: generated %d classes (%d files) into %s\n",
		len(s.Classes), len(files), dir)
	return nil
}

// writeAtomic stages data next to path and renames it into place, so a
// failure mid-write can never leave a truncated generated file.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
