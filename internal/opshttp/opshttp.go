// Package opshttp is the middleware's operator-facing HTTP surface: the
// Prometheus exposition, structured health checks, flight-recorder dumps and
// pprof, mounted on one mux so a single -ops :PORT flag makes an obiswap or
// swapstore process operable.
//
// Endpoints:
//
//	GET /metrics        Prometheus text exposition (obs.Registry)
//	GET /healthz        per-check JSON; 200 when every check passes, 503
//	                    otherwise ({"status":"ok|degraded","checks":[...]})
//	GET /debug/traces   flight-recorder span dump; ?n= limits, ?slowest=N
//	                    orders by duration, ?errors=N filters failed spans
//	GET /debug/events   flight-recorder bus-event dump; ?n= limits
//	GET /debug/heat     ranked cluster heat snapshot (telemetry); ?n= limits
//	GET /debug/wss      working-set time series (telemetry); ?window=30s
//	GET /debug/prefetch fault-engine snapshot: coalescing counters, prefetch
//	                    accuracy and inventory; ?cluster=N&k=8 adds that
//	                    cluster's current prefetch window
//	GET /debug/pprof/…  net/http/pprof (unless disabled)
package opshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"objectswap/internal/fault"
	"objectswap/internal/obs"
	olog "objectswap/internal/obs/log"
	"objectswap/internal/telemetry"
)

// Check is one named health probe. Probe returns nil when the subsystem is
// healthy; the error text is surfaced verbatim in the /healthz JSON.
type Check struct {
	Name  string
	Probe func(ctx context.Context) error
}

// Options configures the ops handler. Every field is optional: omitted
// pieces simply unmount their endpoints.
type Options struct {
	// Metrics serves GET /metrics from this registry.
	Metrics *obs.Registry
	// Recorder serves GET /debug/traces and /debug/events from this flight
	// recorder.
	Recorder *obs.Recorder
	// Checks are evaluated, in order, on GET /healthz.
	Checks []Check
	// Logger records one structured line per ops request (nil logs nothing).
	Logger *olog.Logger
	// CheckTimeout bounds each health probe (0 = 2s).
	CheckTimeout time.Duration
	// DisablePprof unmounts /debug/pprof.
	DisablePprof bool
	// Telemetry serves GET /debug/heat and /debug/wss from the access
	// telemetry plane.
	Telemetry *telemetry.Tracker
	// Prefetch serves GET /debug/prefetch from the asynchronous fault
	// engine (coalescing counters, prefetch accuracy, the current inventory
	// and on-demand prefetch windows).
	Prefetch *fault.Engine
}

// CheckResult is one health probe's outcome in the /healthz JSON.
type CheckResult struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status string        `json:"status"` // "ok" or "degraded"
	Checks []CheckResult `json:"checks"`
}

// NewHandler builds the ops mux.
func NewHandler(o Options) http.Handler {
	mux := http.NewServeMux()
	if o.Metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = o.Metrics.WriteMetrics(w)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		serveHealth(w, r, o)
	})
	if o.Recorder != nil {
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			serveTraces(w, r, o.Recorder)
		})
		mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
			serveEvents(w, r, o.Recorder)
		})
	}
	if o.Telemetry != nil {
		mux.HandleFunc("/debug/heat", func(w http.ResponseWriter, r *http.Request) {
			serveHeat(w, r, o.Telemetry)
		})
		mux.HandleFunc("/debug/wss", func(w http.ResponseWriter, r *http.Request) {
			serveWSS(w, r, o.Telemetry)
		})
	}
	if o.Prefetch != nil {
		mux.HandleFunc("/debug/prefetch", func(w http.ResponseWriter, r *http.Request) {
			servePrefetch(w, r, o.Prefetch)
		})
	}
	if !o.DisablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if o.Logger == nil {
		return mux
	}
	return logRequests(o.Logger, mux)
}

// logRequests emits one structured line per request.
func logRequests(lg *olog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		lg.Debug("ops request", "method", r.Method, "path", r.URL.Path,
			"status", sw.status)
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func serveHealth(w http.ResponseWriter, r *http.Request, o Options) {
	timeout := o.CheckTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	resp := HealthResponse{Status: "ok", Checks: make([]CheckResult, 0, len(o.Checks))}
	for _, c := range o.Checks {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		err := runProbe(ctx, c)
		cancel()
		res := CheckResult{Name: c.Name, OK: err == nil}
		if err != nil {
			res.Error = err.Error()
			resp.Status = "degraded"
		}
		resp.Checks = append(resp.Checks, res)
	}
	code := http.StatusOK
	if resp.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// runProbe shields the handler from a panicking check: a broken probe reports
// as failed instead of killing the ops server.
func runProbe(ctx context.Context, c Check) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check panicked: %v", r)
		}
	}()
	if c.Probe == nil {
		return fmt.Errorf("check %q has no probe", c.Name)
	}
	return c.Probe(ctx)
}

func serveTraces(w http.ResponseWriter, r *http.Request, rec *obs.Recorder) {
	q := r.URL.Query()
	var spans []obs.SpanRecord
	switch {
	case q.Get("slowest") != "":
		spans = rec.Slowest(intParam(q.Get("slowest")))
	case q.Get("errors") != "":
		spans = rec.RecentErrors(intParam(q.Get("errors")))
	default:
		spans = rec.Spans()
		if n := intParam(q.Get("n")); n > 0 && n < len(spans) {
			spans = spans[:n]
		}
	}
	if spans == nil {
		spans = []obs.SpanRecord{}
	}
	total, _ := rec.Totals()
	writeJSON(w, http.StatusOK, struct {
		SpansTotal uint64           `json:"spans_total"`
		Spans      []obs.SpanRecord `json:"spans"`
	}{total, spans})
}

func serveEvents(w http.ResponseWriter, r *http.Request, rec *obs.Recorder) {
	events := rec.Events()
	if n := intParam(r.URL.Query().Get("n")); n > 0 && n < len(events) {
		events = events[:n]
	}
	if events == nil {
		events = []obs.EventRecord{}
	}
	_, total := rec.Totals()
	writeJSON(w, http.StatusOK, struct {
		EventsTotal uint64            `json:"events_total"`
		Events      []obs.EventRecord `json:"events"`
	}{total, events})
}

// serveHeat renders the ranked cluster heat snapshot: hottest first, with
// per-class totals and the thrash state. ?n= limits the ranking.
func serveHeat(w http.ResponseWriter, r *http.Request, t *telemetry.Tracker) {
	clusters := t.HeatSnapshot()
	if n := intParam(r.URL.Query().Get("n")); n > 0 && n < len(clusters) {
		clusters = clusters[:n]
	}
	if clusters == nil {
		clusters = []telemetry.ClusterHeat{}
	}
	hot, warm, cold := t.Counts()
	score, degraded := t.ThrashState()
	writeJSON(w, http.StatusOK, struct {
		Hot         int                     `json:"hot"`
		Warm        int                     `json:"warm"`
		Cold        int                     `json:"cold"`
		ThrashScore float64                 `json:"thrash_score"`
		Degraded    bool                    `json:"degraded"`
		Clusters    []telemetry.ClusterHeat `json:"clusters"`
	}{hot, warm, cold, score, degraded, clusters})
}

// serveWSS renders the working-set estimate: the windowed aggregate plus the
// per-interval time series (paper Fig. 5 shape). ?window= accepts a Go
// duration ("30s", "5m"); absent or invalid selects the tracker default.
func serveWSS(w http.ResponseWriter, r *http.Request, t *telemetry.Tracker) {
	window := time.Duration(0)
	if s := r.URL.Query().Get("window"); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d > 0 {
			window = d
		} else {
			writeJSON(w, http.StatusBadRequest, struct {
				Error string `json:"error"`
			}{fmt.Sprintf("bad window %q: want a Go duration like 30s", s)})
			return
		}
	}
	if window <= 0 {
		window = t.Window()
	}
	clusters, bytes := t.WSS(window)
	samples := t.WSSSeries(window)
	if samples == nil {
		samples = []telemetry.WSSSample{}
	}
	writeJSON(w, http.StatusOK, struct {
		WindowSeconds float64               `json:"window_seconds"`
		Clusters      int                   `json:"clusters"`
		Bytes         int64                 `json:"bytes"`
		Samples       []telemetry.WSSSample `json:"samples"`
	}{window.Seconds(), clusters, bytes, samples})
}

// servePrefetch renders the fault engine's snapshot — coalesced waiters,
// prefetch accuracy/waste and the current prefetched-but-untouched
// inventory. With ?cluster=N (and optional ?k=, default 8) the response adds
// that cluster's live prefetch window, walked as the prefetcher walks it: the
// clusters it would keep in flight right now, in order.
func servePrefetch(w http.ResponseWriter, r *http.Request, e *fault.Engine) {
	snap := e.Snapshot()
	resp := struct {
		fault.Snapshot
		Accuracy    float64   `json:"accuracy"`
		RankCluster *uint32   `json:"rank_cluster,omitempty"`
		Ranking     *[]uint32 `json:"ranking,omitempty"`
	}{Snapshot: snap, Accuracy: snap.Accuracy()}
	if s := r.URL.Query().Get("cluster"); s != "" {
		id, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, struct {
				Error string `json:"error"`
			}{fmt.Sprintf("bad cluster %q: want a cluster id", s)})
			return
		}
		k := intParam(r.URL.Query().Get("k"))
		if k <= 0 {
			k = 8
		}
		cluster := uint32(id)
		resp.RankCluster = &cluster
		ranking := e.Rank(cluster, k)
		if ranking == nil {
			ranking = []uint32{}
		}
		resp.Ranking = &ranking
	}
	writeJSON(w, http.StatusOK, resp)
}

// intParam parses a query count ("" or junk yields 0 = unlimited).
func intParam(s string) int {
	n, _ := strconv.Atoi(s)
	if n < 0 {
		n = 0
	}
	return n
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running ops listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start serves h on addr (e.g. ":9982", "127.0.0.1:0") and returns once the
// listener is bound, so callers can read Addr immediately.
func Start(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("opshttp: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (resolving ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the listener down, waiting briefly for in-flight requests.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
