package opshttp

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"objectswap/internal/obs"
	"objectswap/internal/telemetry"
)

// TestMetricsPageParses is the check.sh exposition gate: it starts a real
// ops server whose registry carries every family kind (counters, gauges,
// histograms, vectors with adversarial label values, telemetry families),
// scrapes /metrics over HTTP, and validates the page line by line with the
// self-contained parser below. A page that a strict Prometheus scraper
// would reject must fail here.
func TestMetricsPageParses(t *testing.T) {
	clock := obs.NewVirtualClock(time.Unix(0, 0))
	reg := obs.NewRegistry(clock)
	reg.Counter("objectswap_parse_total", "A counter.").Add(3)
	reg.Gauge("objectswap_parse_gauge", "A gauge with a\nnewline in help.").Set(-2.5)
	reg.HistogramVec("objectswap_parse_seconds", "A histogram vec.", nil, "op").
		With("swap_out").Observe(0.125)
	labeled := reg.GaugeVec("objectswap_parse_labels", "Adversarial label values.", "val")
	labeled.With(`quote"and back\slash`).Set(1)
	labeled.With("tab\tand\nnewline").Set(2)

	tr := telemetry.New(reg, telemetry.Options{})
	one := telemetry.Ledger{Touches: 1, Crossings: 1, SwapOuts: 1}
	tr.Touch(&one, tr.Now())
	tr.Watch(func(visit func(uint32, *telemetry.Ledger, func() int64)) {
		visit(1, &one, func() int64 { return 64 })
	})
	tr.RecordFault("swap_out", "explicit", 0.25)

	srv, err := Start("127.0.0.1:0", NewHandler(Options{Metrics: reg, Telemetry: tr}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	series, err := parseExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition parse: %v\npage:\n%s", err, body)
	}
	for _, name := range []string{
		"objectswap_parse_total",
		"objectswap_parse_gauge",
		"objectswap_parse_seconds_bucket",
		"objectswap_parse_seconds_count",
		"objectswap_cluster_heat",
		"objectswap_thrash_score",
		"objectswap_fault_seconds_count",
		"objectswap_wss_clusters",
	} {
		if series[name] == 0 {
			t.Fatalf("no parsed series for %s; page:\n%s", name, body)
		}
	}
	// The adversarial label values must round-trip through the escaper.
	if series["objectswap_parse_labels"] != 2 {
		t.Fatalf("parse_labels series = %d, want 2", series["objectswap_parse_labels"])
	}
}

// parseExposition is a deliberately strict, self-contained parser for the
// Prometheus text exposition format (version 0.0.4) subset the registry
// emits. It returns the number of sample lines per metric name and fails on
// anything malformed: unknown escapes in label values, unquoted values,
// unparsable numbers, or junk after a sample.
func parseExposition(r io.Reader) (map[string]int, error) {
	series := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			if len(strings.Fields(line)) < 4 {
				return nil, fmt.Errorf("line %d: truncated comment %q", lineNo, line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("line %d: unknown comment %q", lineNo, line)
		}
		name, rest, err := parseName(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if strings.HasPrefix(rest, "{") {
			rest, err = parseLabels(rest)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		val := strings.TrimPrefix(rest, " ")
		if val == rest {
			return nil, fmt.Errorf("line %d: missing space before value in %q", lineNo, line)
		}
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, val, err)
			}
		}
		series[name]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return series, nil
}

func parseName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9') {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return "", "", fmt.Errorf("no metric name in %q", line)
	}
	return line[:i], line[i:], nil
}

// parseLabels consumes a {name="value",...} block, enforcing that label
// values only use the three legal escapes: \\, \" and \n.
func parseLabels(s string) (rest string, err error) {
	s = s[1:] // consume '{'
	for {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return "", fmt.Errorf("label without name=value in %q", s)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return "", fmt.Errorf("unquoted label value at %q", s)
		}
		s = s[1:]
		for {
			if len(s) == 0 {
				return "", fmt.Errorf("unterminated label value")
			}
			switch s[0] {
			case '\\':
				if len(s) < 2 {
					return "", fmt.Errorf("dangling backslash")
				}
				if c := s[1]; c != '\\' && c != '"' && c != 'n' {
					return "", fmt.Errorf("illegal escape \\%c in label value", c)
				}
				s = s[2:]
				continue
			case '"':
				s = s[1:]
			default:
				s = s[1:]
				continue
			}
			break
		}
		if len(s) == 0 {
			return "", fmt.Errorf("unterminated label block")
		}
		switch s[0] {
		case ',':
			s = s[1:]
			continue
		case '}':
			return s[1:], nil
		default:
			return "", fmt.Errorf("junk %q after label value", s)
		}
	}
}

// The telemetry endpoints render well-formed JSON with ranked heat and a
// windowed WSS series, and reject malformed windows.
func TestHeatAndWSSEndpoints(t *testing.T) {
	clock := obs.NewVirtualClock(time.Unix(0, 0))
	reg := obs.NewRegistry(clock)
	tr := telemetry.New(reg, telemetry.Options{})
	ledgers := map[uint32]*telemetry.Ledger{2: {Touches: 5, Crossings: 5}, 9: {Touches: 1}}
	tr.Watch(func(visit func(uint32, *telemetry.Ledger, func() int64)) {
		for id, l := range ledgers {
			visit(id, l, func() int64 { return 128 })
		}
	})
	for i := 0; i < 5; i++ {
		tr.Touch(ledgers[2], tr.Now())
	}
	tr.Touch(ledgers[9], tr.Now())
	h := NewHandler(Options{Telemetry: tr, Checks: []Check{
		{Name: "thrash", Probe: func(context.Context) error { return tr.HealthCheck() }},
	}})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/heat?n=1", nil))
	var heat struct {
		Hot         int                     `json:"hot"`
		Cold        int                     `json:"cold"`
		ThrashScore float64                 `json:"thrash_score"`
		Degraded    bool                    `json:"degraded"`
		Clusters    []telemetry.ClusterHeat `json:"clusters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &heat); err != nil {
		t.Fatalf("heat body: %v\n%s", err, rec.Body.String())
	}
	if rec.Code != http.StatusOK || len(heat.Clusters) != 1 || heat.Clusters[0].Cluster != 2 {
		t.Fatalf("heat: code %d body %+v, want top-ranked cluster 2", rec.Code, heat)
	}
	if heat.Clusters[0].Class != telemetry.ClassHot || heat.Hot != 1 {
		t.Fatalf("heat class: %+v", heat)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/wss?window=30s", nil))
	var wss struct {
		WindowSeconds float64               `json:"window_seconds"`
		Clusters      int                   `json:"clusters"`
		Bytes         int64                 `json:"bytes"`
		Samples       []telemetry.WSSSample `json:"samples"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &wss); err != nil {
		t.Fatalf("wss body: %v\n%s", err, rec.Body.String())
	}
	if wss.WindowSeconds != 30 || wss.Clusters != 2 || wss.Bytes != 256 || len(wss.Samples) == 0 {
		t.Fatalf("wss: %+v, want 2 clusters / 256 bytes over 30s", wss)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/wss?window=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus window: code %d, want 400", rec.Code)
	}
}
