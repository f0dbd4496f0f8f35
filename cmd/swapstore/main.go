// Command swapstore runs a nearby swapping device: a node that needs no VM
// and no middleware — it only stores, returns and drops keyed XML text, over
// the HTTP web-services bridge.
//
// Usage:
//
//	swapstore [-addr :9980] [-dir path] [-capacity bytes] [-formats xml,...]
//	          [-keep N] [-lease-ttl 30s] [-ops :9981] [-log-level info] [-log-json]
//
// With -dir, shipments persist as files (a desktop PC holding swap files);
// otherwise they are held in memory (another PDA's RAM). The store's Stats
// endpoint advertises real remaining capacity (-capacity minus bytes held),
// which constrained devices feed into rendezvous placement as the donor's
// weight — so a filling donor attracts proportionally fewer shipments.
// Every request is access-logged through the structured logger, carrying the
// requesting device's X-Obiswap-Trace ID when present, and retained in a
// flight recorder; -ops serves /metrics, /healthz and /debug/traces on a side
// port so the serving side of a swap is as observable as the constrained
// device.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"objectswap/internal/obs"
	"objectswap/internal/opshttp"
	"objectswap/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "swapstore:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":9980", "listen address")
	dir := flag.String("dir", "", "persist shipments under this directory (default: in-memory)")
	capacity := flag.Int64("capacity", 0, "byte capacity offered to neighbors (0 = unlimited)")
	keep := flag.Int("keep", -1, "archive up to N replaced/dropped generations per key (-1 = off, 0 = unlimited)")
	leaseTTL := flag.Duration("lease-ttl", 0, "expire shipments whose owner has not renewed within this TTL (0 = keep forever); lapsed replicas are archived, not destroyed")
	formats := flag.String("formats", "", "wire formats to advertise, comma-separated (default: all built-in; e.g. \"xml\" models a legacy XML-only donor)")
	ops := flag.String("ops", "", "serve the ops surface (/metrics, /healthz, /debug/traces) on this address, e.g. :9981")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of key=value")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return err
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, opts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, opts)
	}
	logger := slog.New(handler)

	var s store.Store
	if *dir != "" {
		d, derr := store.NewDisk(*dir, *capacity)
		if derr != nil {
			return derr
		}
		if *formats != "" {
			d.SetFormats(splitFormats(*formats)...)
		}
		s = d
		logger.Info("disk store ready", "dir", *dir, "capacity", *capacity)
	} else {
		m := store.NewMem(*capacity)
		if *formats != "" {
			m.SetFormats(splitFormats(*formats)...)
		}
		s = m
		logger.Info("in-memory store ready", "capacity", *capacity)
	}
	if *formats != "" {
		logger.Info("format advertisement narrowed", "formats", *formats)
	}

	if *keep >= 0 {
		s = store.NewVersioned(s, *keep)
		logger.Info("versioning enabled", "keep", *keep)
	} else if *leaseTTL > 0 {
		// Lease expiry must be non-destructive: without an explicit -keep the
		// GC drops through a one-generation archive, so a lapsed replica is
		// recoverable as <key>#v1 rather than gone.
		s = store.NewVersioned(s, 1)
		logger.Info("versioning enabled for lease GC", "keep", 1)
	}

	var leases *store.LeaseGC
	if *leaseTTL > 0 {
		leases = store.NewLeaseGC(s, *leaseTTL, nil)
		s = leases
		logger.Info("lease GC enabled", "ttl", *leaseTTL)
	}

	reg := obs.NewRegistry(nil)
	recorder := obs.NewRecorder(0, 0)
	requests := reg.CounterVec("swapstore_requests_total",
		"Requests served, by method and status.", "method", "status")

	if leases != nil {
		expired := reg.Counter("swapstore_leases_expired_total",
			"Shipments archived because their owner's lease lapsed.")
		every := *leaseTTL / 4
		if every < time.Second {
			every = time.Second
		}
		go func() {
			ticker := time.NewTicker(every)
			defer ticker.Stop()
			for range ticker.C {
				ctx, cancel := context.WithTimeout(context.Background(), every)
				lapsed, err := leases.ExpireLapsed(ctx)
				cancel()
				if err != nil {
					logger.Warn("lease sweep", "err", err)
				}
				if len(lapsed) > 0 {
					expired.Add(float64(len(lapsed)))
					logger.Info("leases expired", "keys", len(lapsed))
				}
			}
		}()
	}

	// Advertise the donor's live capacity on the metrics page, mirroring what
	// the Stats endpoint reports to constrained devices for HRW weighting.
	capGauge := reg.GaugeVec("swapstore_capacity_bytes",
		"Advertised donor capacity, the placement weight neighbors see.", "stat")
	capGauge.WithFunc(func() float64 {
		st, err := s.Stats(context.Background())
		if err != nil {
			return -1
		}
		return float64(st.Free())
	}, "free")
	capGauge.WithFunc(func() float64 {
		st, err := s.Stats(context.Background())
		if err != nil {
			return -1
		}
		return float64(st.Used)
	}, "used")
	if st, err := s.Stats(context.Background()); err == nil {
		logger.Info("advertising capacity", "capacity", st.Capacity, "free", st.Free(),
			"used", st.Used, "items", st.Items)
	}

	if *ops != "" {
		opsSrv, err := opshttp.Start(*ops, opshttp.NewHandler(opshttp.Options{
			Metrics:  reg,
			Recorder: recorder,
			Checks: []opshttp.Check{{Name: "store", Probe: func(ctx context.Context) error {
				_, err := s.Stats(ctx)
				return err
			}}},
			Logger: logger,
		}))
		if err != nil {
			return err
		}
		defer opsSrv.Close()
		logger.Info("ops server listening", "url", opsSrv.URL())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           accessLog(logger, recorder, requests, store.NewHandler(s)),
		ReadHeaderTimeout: 10 * time.Second,
	}
	logger.Info("listening", "addr", *addr)
	return srv.ListenAndServe()
}

// accessLog wraps the store handler with one structured access-log line per
// request — carrying the requesting device's swap trace ID when the request
// has one — and retains each request as a span in the flight recorder.
func accessLog(lg *slog.Logger, rec *obs.Recorder, requests *obs.CounterVec, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		trace := r.Header.Get(obs.TraceHeader)

		pairs := []any{"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "dur", dur.Round(time.Microsecond)}
		if trace != "" {
			pairs = append(pairs, "trace", trace)
		}
		lg.Info("request", pairs...)

		requests.With(r.Method, fmt.Sprint(sw.status)).Inc()
		outcome, errText := "ok", ""
		if sw.status >= http.StatusBadRequest {
			outcome = "error"
			errText = fmt.Sprintf("status %d", sw.status)
		}
		rec.RecordSpan(obs.SpanRecord{
			Op:         "http." + r.Method,
			Trace:      trace,
			Key:        r.URL.Path,
			Outcome:    outcome,
			Error:      errText,
			Start:      start,
			DurationNS: dur.Nanoseconds(),
		})
	})
}

// splitFormats parses the -formats flag value into its format list.
func splitFormats(v string) []string {
	var out []string
	for _, f := range strings.Split(v, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
