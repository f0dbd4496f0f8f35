package objectswap

// examples_test smoke-runs every example binary end to end, so the shipped
// documentation code is continuously verified.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are subprocess smoke tests; skipped with -short")
	}
	cases := []struct {
		dir  string
		want []string // substrings the output must contain
	}{
		{"./examples/quickstart", []string{"swapped cluster", "note #9", "after transparent reload"}},
		{"./examples/photoalbum", []string{"imported album 7", "demoted to desktop", "viewed 12 photos"}},
		{"./examples/fieldsurvey", []string{"records arrived", "observations captured", "species-110 @ grid-11"}},
		{"./examples/contactbook", []string{"swapped to laptop", "group family", "12 contacts"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.dir, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", tc.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("example failed: %v\n%s", err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestCommandsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests; skipped with -short")
	}
	t.Run("fig5", func(t *testing.T) {
		t.Parallel()
		out, err := exec.Command("go", "run", "./cmd/fig5", "-n", "200", "-runs", "1").CombinedOutput()
		if err != nil {
			t.Fatalf("fig5 failed: %v\n%s", err, out)
		}
		for _, want := range []string{"Figure 5", "NO SWAP-CLUSTERS", "B2"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("fig5 output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("obiswap", func(t *testing.T) {
		t.Parallel()
		out, err := exec.Command("go", "run", "./cmd/obiswap",
			"-heap", "32768", "-clusters", "6", "-per", "20").CombinedOutput()
		if err != nil {
			t.Fatalf("obiswap failed: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "checksum") || !strings.Contains(string(out), "true") {
			t.Fatalf("obiswap checksum missing:\n%s", out)
		}
	})
	t.Run("obicomp", func(t *testing.T) {
		t.Parallel()
		// -in with -out writes the same file set -dir regenerates in place.
		const pkg = "examples/contactbook/contacts"
		dir := t.TempDir()
		out, err := exec.Command("go", "run", "./cmd/obicomp",
			"-in", pkg+"/schema.xml", "-out", dir).CombinedOutput()
		if err != nil {
			t.Fatalf("obicomp failed: %v\n%s", err, out)
		}
		for _, name := range []string{"contact_gen.go", "group_gen.go", "register_gen.go", "schema_gen.xml"} {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(pkg, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("obicomp -in -out wrote a %s that differs from the committed one", name)
			}
		}
		if out, err := exec.Command("go", "run", "./cmd/obicomp", "-in", pkg+"/schema.xml").CombinedOutput(); err == nil {
			t.Fatalf("obicomp -in without -out succeeded:\n%s", out)
		}
	})
}

func TestFieldnotesExample(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	out, err := exec.Command("go", "run", "./examples/fieldnotes").CombinedOutput()
	if err != nil {
		t.Fatalf("fieldnotes failed: %v\n%s", err, out)
	}
	for _, want := range []string{"hoarded 60 notes", "pushed 9 updated notes", "— true"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestNeighborhoodSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	for _, seed := range []string{"1", "42"} {
		out, err := exec.Command("go", "run", "./cmd/neighborhood",
			"-rounds", "10", "-seed", seed).CombinedOutput()
		if err != nil {
			t.Fatalf("neighborhood seed %s failed: %v\n%s", seed, err, out)
		}
		if !strings.Contains(string(out), "all chains intact") {
			t.Fatalf("seed %s: correctness sweep missing:\n%s", seed, out)
		}
	}
}
