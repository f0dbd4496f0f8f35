package opshttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"objectswap/internal/fault"
	"objectswap/internal/obs"
	"objectswap/internal/telemetry"
)

// TestSmoke starts a real listener on :0 and asserts 200 on /metrics and
// /healthz — the check.sh gate for the ops surface.
func TestSmoke(t *testing.T) {
	reg := obs.NewRegistry(nil)
	reg.Counter("objectswap_smoke_total", "Smoke counter.").Inc()
	engine := fault.New(fault.Config{
		PrefetchDepth: 2,
		Neighbors:     func(_ uint32, _ int, buf []uint32) []uint32 { return append(buf[:0], 4, 2) },
	})
	defer engine.Stop()
	srv, err := Start("127.0.0.1:0", NewHandler(Options{
		Metrics:   reg,
		Recorder:  obs.NewRecorder(0, 0),
		Telemetry: telemetry.New(reg),
		Prefetch:  prefetcher{engine},
		Checks:    []Check{{Name: "always", Probe: func(context.Context) error { return nil }}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, path := range []string{"/metrics", "/healthz", "/debug/traces", "/debug/events",
		"/debug/heat", "/debug/wss", "/debug/prefetch", "/debug/prefetch?cluster=1&k=2"} {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", path, resp.StatusCode, body)
		}
		if path == "/metrics" && !strings.Contains(string(body), "objectswap_smoke_total 1") {
			t.Fatalf("/metrics missing counter:\n%s", body)
		}
	}
}

// prefetcher serves /debug/prefetch from an engine whose graph needs no lock.
type prefetcher struct{ e *fault.Engine }

func (p prefetcher) FaultEngine() *fault.Engine { return p.e }

func (p prefetcher) PrefetchWindow(cluster uint32, k int) []uint32 {
	return p.e.Rank(cluster, k)
}

func TestHealthzDegraded(t *testing.T) {
	broken := errors.New("breaker open: neighbor")
	failing := false
	h := NewHandler(Options{Checks: []Check{
		{Name: "heap", Probe: func(context.Context) error { return nil }},
		{Name: "breakers", Probe: func(context.Context) error {
			if failing {
				return broken
			}
			return nil
		}},
	}})

	get := func() (int, HealthResponse) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var hr HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
			t.Fatalf("healthz body: %v\n%s", err, rec.Body.String())
		}
		return rec.Code, hr
	}

	if code, hr := get(); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthy: code %d, %+v", code, hr)
	}
	failing = true
	code, hr := get()
	if code != http.StatusServiceUnavailable || hr.Status != "degraded" {
		t.Fatalf("degraded: code %d, %+v", code, hr)
	}
	if len(hr.Checks) != 2 || hr.Checks[0].Name != "heap" || !hr.Checks[0].OK ||
		hr.Checks[1].Name != "breakers" || hr.Checks[1].OK ||
		hr.Checks[1].Error != broken.Error() {
		t.Fatalf("checks: %+v", hr.Checks)
	}
	failing = false
	if code, hr := get(); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("recovered: code %d, %+v", code, hr)
	}
}

func TestHealthzPanickingCheck(t *testing.T) {
	h := NewHandler(Options{Checks: []Check{
		{Name: "bad", Probe: func(context.Context) error { panic("boom") }},
	}})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "check panicked: boom") {
		t.Fatalf("body %s", rec.Body.String())
	}
}

func TestDebugTracesQueries(t *testing.T) {
	flight := obs.NewRecorder(16, 16)
	start := time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)
	for i := 1; i <= 5; i++ {
		sr := obs.SpanRecord{
			Op: "swap_out", Trace: fmt.Sprintf("dev1-%08x", i), Cluster: uint32(i),
			Outcome: "ok", Start: start, DurationNS: int64(i) * 1000,
			Phases: []obs.PhaseRecord{{Name: "ship", DurationNS: int64(i) * 800, Bytes: 64}},
		}
		if i == 3 {
			sr.Outcome = "error"
			sr.Error = "device gone"
		}
		flight.RecordSpan(sr)
	}
	h := NewHandler(Options{Recorder: flight})

	get := func(path string) (int, map[string]json.RawMessage, []obs.SpanRecord) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var top map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, rec.Body.String())
		}
		var spans []obs.SpanRecord
		if raw, ok := top["spans"]; ok {
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatalf("GET %s spans: %v", path, err)
			}
		}
		return rec.Code, top, spans
	}

	// Round-trip through encoding/json: the dump re-parses into SpanRecord.
	code, top, spans := get("/debug/traces")
	if code != http.StatusOK || len(spans) != 5 {
		t.Fatalf("code %d, %d spans", code, len(spans))
	}
	var total uint64
	if err := json.Unmarshal(top["spans_total"], &total); err != nil || total != 5 {
		t.Fatalf("spans_total: %v %d", err, total)
	}
	if spans[0].Trace != "dev1-00000005" || spans[0].Phases[0].Bytes != 64 ||
		!spans[0].Start.Equal(start) {
		t.Fatalf("most recent span wrong: %+v", spans[0])
	}

	_, _, limited := get("/debug/traces?n=2")
	if len(limited) != 2 || limited[0].Cluster != 5 {
		t.Fatalf("n=2: %+v", limited)
	}
	_, _, slowest := get("/debug/traces?slowest=2")
	if len(slowest) != 2 || slowest[0].DurationNS != 5000 || slowest[1].DurationNS != 4000 {
		t.Fatalf("slowest: %+v", slowest)
	}
	_, _, errSpans := get("/debug/traces?errors=5")
	if len(errSpans) != 1 || errSpans[0].Error != "device gone" {
		t.Fatalf("errors: %+v", errSpans)
	}
}

func TestDebugEvents(t *testing.T) {
	flight := obs.NewRecorder(4, 4)
	for i := 1; i <= 6; i++ {
		flight.RecordEvent(obs.EventRecord{BusSeq: uint64(i), Topic: "swap.out"})
	}
	h := NewHandler(Options{Recorder: flight})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events?n=3", nil))
	var body struct {
		EventsTotal uint64            `json:"events_total"`
		Events      []obs.EventRecord `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.EventsTotal != 6 || len(body.Events) != 3 || body.Events[0].BusSeq != 6 {
		t.Fatalf("events: %+v", body)
	}
}

func TestPprofMounted(t *testing.T) {
	h := NewHandler(Options{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	NewHandler(Options{DisablePprof: true}).
		ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("disabled pprof: %d", rec.Code)
	}
}
