package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schemaName)
	}
	return &doc, nil
}

// Verdicts of one workload × end-to-end metric pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // the spread is wider than the bound
)

func boundOf(m metricValue) float64 {
	if m.Bound == nil {
		return 0
	}
	return *m.Bound
}

// judge compares one metric's medians. change is how much worse the new value
// is as a share of the old one (negative: better).
func judge(old, cur metricValue) (change float64, verdict string) {
	if old.Value != 0 {
		change = (cur.Value - old.Value) / math.Abs(old.Value)
	} else if cur.Value != 0 {
		change = math.Inf(1)
	}
	if old.Better == "higher" {
		change = -change
	}
	bound := boundOf(old)
	switch {
	case change > bound:
		return change, verdictWorse
	case math.Max(old.Spread, cur.Spread) > bound && bound > 0:
		return change, verdictUnresolved
	}
	return change, verdictOK
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// relative change, the metric's bound and a verdict. It returns non-zero on a
// worse metric or a larger failed_share, and refuses documents that measured
// different work.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var docs [2]*document
	for i, path := range []string{oldPath, newPath} {
		doc, err := readDocument(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		docs[i] = doc
	}
	if err := sameWork(docs[0], docs[1]); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareDocuments(docs[0], docs[1], stdout)
}

// sameWork reports why two documents cannot be compared: the op counts are
// constants scaled by -seconds, so only documents taken with the same seed,
// seconds, repetitions and pass measured identical work.
func sameWork(a, b *document) error {
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Reps != b.Reps || a.EndToEndScale != b.EndToEndScale {
		return fmt.Errorf("the documents measured different work: seed %d / %d, seconds %g / %g, repetitions %d / %d, end-to-end scale %g / %g",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Reps, b.Reps, a.EndToEndScale, b.EndToEndScale)
	}
	return nil
}

func compareDocuments(oldDoc, newDoc *document, w io.Writer) int {
	cur := map[string]workloadResult{}
	for _, wl := range newDoc.Workloads {
		cur[wl.Name] = wl
	}
	worse, unresolved := 0, 0
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, o := range oldDoc.Workloads {
		n, ok := cur[o.Name]
		if !ok {
			fmt.Fprintf(w, "%-18s missing from the new file\n", o.Name)
			worse++
			continue
		}
		for _, d := range endToEnd {
			ov, inOld := o.EndToEnd[d.Name]
			nv, inNew := n.EndToEnd[d.Name]
			if !inOld {
				continue
			}
			if !inNew {
				fmt.Fprintf(w, "%-18s %-22s missing from the new file\n", o.Name, d.Name)
				worse++
				continue
			}
			change, verdict := judge(ov, nv)
			switch verdict {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
				verdict = fmt.Sprintf("%s (spread %.1f%% / %.1f%%)", verdict, 100*ov.Spread, 100*nv.Spread)
			}
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %+8.1f%% %6.1f%%  %s\n",
				o.Name, d.Name, ov.Value, nv.Value, 100*change, 100*boundOf(ov), verdict)
		}
		if d := n.Failed - o.Failed; d != 0 || n.Attempted != o.Attempted {
			fmt.Fprintf(w, "%-18s attempted %d → %d, failed %d → %d\n", o.Name, o.Attempted, n.Attempted, o.Failed, n.Failed)
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}
