package objectswap

// Facade-level tests of the operator surface: /healthz tracking the circuit
// breakers, and a swap trace ID propagating from the constrained device's
// flight recorder across the HTTP store boundary into the serving side's
// access log.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"objectswap/internal/event"
	"objectswap/internal/obs"
	"objectswap/internal/opshttp"
	"objectswap/internal/store"
)

// getHealth hits /healthz on the system's ops handler.
func getHealth(t *testing.T, sys *System) (int, opshttp.HealthResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	sys.OpsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hr opshttp.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, rec.Body.String())
	}
	return rec.Code, hr
}

func checkNamed(t *testing.T, hr opshttp.HealthResponse, name string) opshttp.CheckResult {
	t.Helper()
	for _, c := range hr.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no %q check in %+v", name, hr.Checks)
	return opshttp.CheckResult{}
}

// TestHealthzTracksBreaker drives /healthz through a breaker trip and the
// ProbeDevices recovery sweep: 200 while healthy, 503 naming the open
// breaker's device while tripped, 200 again once the sweep closes it.
func TestHealthzTracksBreaker(t *testing.T) {
	sys, err := New(Config{
		HeapCapacity: 1 << 20,
		Transport:    TransportPolicy{MaxAttempts: 1, BreakerThreshold: 1, OpTimeout: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	dead := store.NewFlaky(store.NewMem(0), 1)
	if err := sys.AttachDevice("a-dead", dead); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice("b-good", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 1)

	if code, hr := getHealth(t, sys); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthy system: code %d, %+v", code, hr)
	}

	// Kill the link; the selection probe trips a-dead's breaker.
	dead.FailNext(store.OpPut, -1)
	dead.FailNext(store.OpStats, -1)
	if _, err := sys.SwapOut(clusters[0]); err != nil {
		t.Fatal(err)
	}
	if !sys.TransportSnapshot().Devices["a-dead"].BreakerOpen {
		t.Fatal("breaker not open after failed selection probe")
	}
	code, hr := getHealth(t, sys)
	if code != http.StatusServiceUnavailable || hr.Status != "degraded" {
		t.Fatalf("tripped breaker: code %d, %+v", code, hr)
	}
	breakers := checkNamed(t, hr, "breakers")
	if breakers.OK || !strings.Contains(breakers.Error, "a-dead") {
		t.Fatalf("breakers check should name a-dead: %+v", breakers)
	}

	// The link returns; one recovery sweep closes the breaker and /healthz
	// goes green again.
	dead.FailNext(store.OpPut, 0)
	dead.FailNext(store.OpStats, 0)
	if got := sys.ProbeDevices(context.Background()); len(got) != 1 || got[0] != "a-dead" {
		t.Fatalf("recovered = %v", got)
	}
	if code, hr := getHealth(t, sys); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("recovered system: code %d, %+v", code, hr)
	}
}

// stallPolicy runs the swap-out action on an event only the test emits, so
// memory pressure alone starts no policy walk.
const stallPolicy = `<policies>
  <policy name="swap-on-stall" category="machine">
    <on event="test.stall"/>
    <action do="swap-out" strategy="coldest" count="1" collect="false"/>
  </policy>
</policies>`

// ctxStore hands the store it wraps the test's context on every shipment.
// Neither eviction trigger carries a caller context, so this is how the test
// cancels a hung one.
type ctxStore struct {
	*store.Flaky
	ctx context.Context
}

func (c ctxStore) PutEnvelope(_ context.Context, key string, data []byte, opts store.PutOpts) error {
	return c.Flaky.PutEnvelope(c.ctx, key, data, opts)
}

// TestHealthzNamesStalledEviction hangs the first shipment of an eviction
// walk, once behind each trigger of the walk: the policy engine's swap-out
// action and the evictor's pass behind a failed allocation. The evictor check
// stays ok while the victim is young, degrades /healthz and names the stalled
// walk once the virtual clock passes evictorStuckAfter, and is ok again, with
// EvictingSince idle, once the shipment's context is cancelled.
func TestHealthzNamesStalledEviction(t *testing.T) {
	for _, trigger := range []string{"policy", "evictor"} {
		t.Run(trigger, func(t *testing.T) {
			// Not the epoch: a zero start time reads as no mark at all.
			clock := obs.NewVirtualClock(time.Unix(1000, 0))
			capacity := int64(1 << 20)
			if trigger == "evictor" {
				capacity = 16 << 10
			}
			sys, err := New(Config{
				HeapCapacity: capacity,
				Clock:        clock,
				Policies:     []byte(stallPolicy),
				Transport:    TransportPolicy{MaxAttempts: 1, OpTimeout: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			flaky := store.NewFlaky(store.NewMem(0), 1)
			flaky.HangOn(store.OpPut, 1)
			if err := sys.AttachDevice("stalled", ctxStore{flaky, ctx}); err != nil {
				t.Fatal(err)
			}
			cls := sys.MustRegisterClass(taskClass())

			walked := make(chan error, 1)
			if trigger == "policy" {
				buildClusters(t, sys, cls, 2)
				go func() {
					sys.Bus().Emit(event.Topic("test.stall"), nil)
					walked <- nil
				}()
			} else {
				// Root one object per cluster until an allocation fails and
				// runs the evictor.
				go func() {
					for i := 0; ; i++ {
						o, err := sys.NewObject(cls, sys.NewCluster())
						if err == nil {
							err = sys.SetRoot(fmt.Sprintf("r%d", i), o.RefTo())
						}
						if err != nil {
							walked <- err
							return
						}
					}
				}()
			}
			for flaky.Calls(store.OpPut) == 0 {
				select {
				case err := <-walked:
					t.Fatalf("walk ended before shipping a victim: %v", err)
				case <-time.After(time.Millisecond):
				}
			}

			if _, hr := getHealth(t, sys); !checkNamed(t, hr, "evictor").OK {
				t.Fatalf("a victim in flight for no time already fails the check: %+v", hr)
			}
			clock.Advance(evictorStuckAfter + time.Second)
			code, hr := getHealth(t, sys)
			if code != http.StatusServiceUnavailable || hr.Status != "degraded" {
				t.Fatalf("stalled walk: code %d, %+v, want degraded", code, hr)
			}
			if c := checkNamed(t, hr, "evictor"); c.OK || !strings.Contains(c.Error, "eviction walk stalled") {
				t.Fatalf("evictor check does not name the stalled walk: %+v", c)
			}

			cancel()
			<-walked
			if _, hr := getHealth(t, sys); !checkNamed(t, hr, "evictor").OK {
				t.Fatalf("evictor check still failing after the walk ended: %+v", hr)
			}
			if since, running := sys.rt.EvictingSince(); running {
				t.Fatalf("EvictingSince = %v after the walk ended, want idle", since)
			}
		})
	}
}

// dropTime removes a record's time attribute, so a test's log reads the same
// on every run.
func dropTime(groups []string, a slog.Attr) slog.Attr {
	if len(groups) == 0 && a.Key == slog.TimeKey {
		return slog.Attr{}
	}
	return a
}

// TestSwapRecordsKeepTheirFields attaches a JSON logger through
// Config.Logger and checks that the swap-out and swap-in records name the
// cluster, key, format, byte count and trace ID their SwapEvents report.
func TestSwapRecordsKeepTheirFields(t *testing.T) {
	var logBuf bytes.Buffer
	lg := slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{ReplaceAttr: dropTime}))
	sys, err := New(Config{HeapCapacity: 1 << 20, Logger: lg})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("neighbor", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	id := buildClusters(t, sys, cls, 1)[0]
	out, err := sys.SwapOut(id)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.SwapIn(id)
	if err != nil {
		t.Fatal(err)
	}

	records := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSON record %q: %v", line, err)
		}
		records[rec["msg"].(string)] = rec
	}
	for msg, ev := range map[string]SwapEvent{"swap-out": out, "swap-in": in} {
		rec, ok := records[msg]
		if !ok {
			t.Fatalf("no %q record in:\n%s", msg, logBuf.String())
		}
		if ev.Trace == "" || ev.Bytes == 0 {
			t.Fatalf("%s event %+v: want a trace ID and a payload", msg, ev)
		}
		want := map[string]any{"level": "INFO", "cluster": float64(ev.Cluster), "key": ev.Key,
			"format": ev.Format, "bytes": float64(ev.Bytes), "trace": ev.Trace}
		for k, v := range want {
			if rec[k] != v {
				t.Errorf("%s record: %s = %v, want %v (record %v)", msg, k, rec[k], v, rec)
			}
		}
	}
}

// traceCapture wraps the store handler the way cmd/swapstore does: it
// records each request's X-Obiswap-Trace header and emits a structured
// access-log line carrying the trace when present.
type traceCapture struct {
	next http.Handler
	lg   *slog.Logger

	mu     sync.Mutex
	traces []string
}

func (tc *traceCapture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace := r.Header.Get(obs.TraceHeader)
	tc.mu.Lock()
	tc.traces = append(tc.traces, trace)
	tc.mu.Unlock()
	pairs := []any{"method", r.Method, "path", r.URL.Path}
	if trace != "" {
		pairs = append(pairs, "trace", trace)
	}
	tc.lg.Info("request", pairs...)
	tc.next.ServeHTTP(w, r)
}

// TestTracePropagatesToStoreLog runs one swap-out against an HTTP store and
// follows its trace ID end to end: the span in the constrained device's
// /debug/traces dump, the X-Obiswap-Trace header observed by the serving
// side, and the serving side's structured access-log line all carry the same
// ID.
func TestTracePropagatesToStoreLog(t *testing.T) {
	var logBuf bytes.Buffer
	capture := &traceCapture{
		next: store.NewHandler(store.NewMem(0)),
		lg:   slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{ReplaceAttr: dropTime})),
	}
	srv := httptest.NewServer(capture)
	defer srv.Close()

	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice("lan-pc", store.NewClient(srv.URL)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 1)
	ev, err := sys.SwapOut(clusters[0])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Trace == "" {
		t.Fatal("swap event carries no trace ID")
	}

	// The constrained device's flight recorder has the span, under the same
	// trace ID the event reported.
	rec := httptest.NewRecorder()
	sys.OpsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	var dump struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/debug/traces: %v\n%s", err, rec.Body.String())
	}
	var span *obs.SpanRecord
	for i := range dump.Spans {
		if dump.Spans[i].Op == "swap_out" && dump.Spans[i].Trace == ev.Trace {
			span = &dump.Spans[i]
		}
	}
	if span == nil {
		t.Fatalf("no swap_out span with trace %q in %+v", ev.Trace, dump.Spans)
	}
	if span.Outcome != "ok" || len(span.Phases) == 0 {
		t.Fatalf("span missing phase timings: %+v", span)
	}

	// The serving side saw the same ID on the wire…
	capture.mu.Lock()
	traces := append([]string(nil), capture.traces...)
	capture.mu.Unlock()
	shipped := false
	for _, tr := range traces {
		if tr == ev.Trace {
			shipped = true
		}
	}
	if !shipped {
		t.Fatalf("store never saw header %s=%q (got %v)", obs.TraceHeader, ev.Trace, traces)
	}

	// …and its access log carries it.
	if !strings.Contains(logBuf.String(), "trace="+ev.Trace) {
		t.Fatalf("store access log missing trace %q:\n%s", ev.Trace, logBuf.String())
	}
}
