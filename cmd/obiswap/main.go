// Command obiswap demonstrates the full middleware loop on one simulated
// constrained device: it builds object clusters until memory pressure makes
// the policy engine swap cold clusters to a nearby device, then touches the
// swapped data to fault it back, printing every middleware event as it
// happens.
//
// Usage:
//
//	obiswap [-heap bytes] [-clusters N] [-per N] [-payload bytes]
//	        [-device url[,url...]] [-replicas K] [-threshold 0.75] [-metrics]
//	        [-prefetch N] [-prefetch-workers N]
//	        [-ops :9982] [-linger 30s] [-watch 1s] [-log-level info] [-log-json]
//
// With -device, shipments go to running swapstores over HTTP (comma-separate
// several URLs to form a donor pool); otherwise in-process memory devices are
// used. With -replicas K > 1, every swap-out ships to K rendezvous-ranked
// donors and a background repair loop restores lost copies. With -ops, the
// operator surface (/metrics, /healthz, /debug/traces, /debug/events,
// /debug/pprof) is served on a side port; -linger keeps the process alive
// after the run so the endpoints can be inspected, and -watch renders a live
// top-like heat/WSS/thrash view from the telemetry plane while it lingers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"objectswap"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	olog "objectswap/internal/obs/log"
	"objectswap/internal/opshttp"
	"objectswap/internal/store"
	"objectswap/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obiswap:", err)
		os.Exit(1)
	}
}

func run() error {
	heapBytes := flag.Int64("heap", 64<<10, "device heap capacity in bytes")
	clusters := flag.Int("clusters", 12, "swap-clusters to build")
	per := flag.Int("per", 50, "objects per swap-cluster")
	payload := flag.Int("payload", 64, "payload bytes per object")
	device := flag.String("device", "", "comma-separated swapstore URLs to use (default: in-process memory)")
	replicas := flag.Int("replicas", 1, "replication factor: ship each swapped cluster to K donors")
	wire := flag.String("wire", "binary,xml", "shipment wire-format preference order negotiated with donors (binary, binary+flate, delta, xml)")
	prefetch := flag.Int("prefetch", 0, "graph-driven prefetch depth: speculatively swap in up to N neighbor clusters after each demand fault (0 = off)")
	prefetchWorkers := flag.Int("prefetch-workers", 0, "background prefetch swap-in goroutines (0 = default)")
	threshold := flag.Float64("threshold", 0.75, "memory pressure threshold fraction")
	dot := flag.Bool("dot", false, "after building, dump the object graph as Graphviz DOT to stdout and exit")
	metrics := flag.Bool("metrics", false, "after the run, dump the full metrics page (Prometheus text format) to stdout")
	ops := flag.String("ops", "", "serve the ops surface (/metrics, /healthz, /debug/traces, /debug/pprof) on this address, e.g. :9982")
	linger := flag.Duration("linger", 0, "keep the process (and ops server) alive this long after the run")
	watch := flag.Duration("watch", 0, "after the run, render a live top-like heat/WSS/thrash view refreshing at this interval (for -linger, default 30s)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of key=value")
	flag.Parse()

	level, err := olog.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	format := olog.FormatKV
	if *logJSON {
		format = olog.FormatJSON
	}
	logger := olog.New(os.Stderr, olog.WithLevel(level), olog.WithFormat(format))

	var wireFormats []string
	for _, f := range strings.Split(*wire, ",") {
		if f = strings.TrimSpace(f); f != "" {
			wireFormats = append(wireFormats, f)
		}
	}
	sys, err := objectswap.New(objectswap.Config{
		HeapCapacity:    *heapBytes,
		MemoryThreshold: *threshold,
		Replicas:        *replicas,
		WireFormats:     wireFormats,
		Prefetch:        objectswap.PrefetchConfig{Depth: *prefetch, Workers: *prefetchWorkers},
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	if *ops != "" {
		srv, err := opshttp.Start(*ops, sys.OpsHandler())
		if err != nil {
			return err
		}
		defer srv.Close()
		logger.Info("ops server listening", "url", srv.URL())
	}

	// Assemble the donor pool: one store.Client per swapstore URL, or enough
	// in-process memory devices to satisfy the replication factor.
	if *device != "" {
		for i, url := range strings.Split(*device, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			name := fmt.Sprintf("neighbor-%d", i)
			if err := sys.AttachDevice(name, store.NewClient(url)); err != nil {
				return err
			}
			fmt.Printf("using remote swapstore at %s as %s\n", url, name)
		}
	} else {
		donors := *replicas
		if donors < 1 {
			donors = 1
		}
		for i := 0; i < donors; i++ {
			if err := sys.AttachDevice(fmt.Sprintf("neighbor-%d", i), store.NewMem(0)); err != nil {
				return err
			}
		}
		fmt.Printf("using %d in-process memory device(s)\n", donors)
	}

	// Narrate middleware events.
	sys.Bus().Subscribe(event.TopicSwapOut, func(ev event.Event) {
		e := ev.Payload.(objectswap.SwapEvent)
		fmt.Printf("  >> swap-out  cluster %-3d %5d objects %7d XML bytes -> %s\n",
			e.Cluster, e.Objects, e.Bytes, strings.Join(e.Replicas, ","))
	})
	sys.Bus().Subscribe(event.TopicSwapIn, func(ev event.Event) {
		e := ev.Payload.(objectswap.SwapEvent)
		fmt.Printf("  << swap-in   cluster %-3d %5d objects\n", e.Cluster, e.Objects)
	})
	sys.Bus().Subscribe(event.TopicSwapDrop, func(ev event.Event) {
		e := ev.Payload.(objectswap.SwapEvent)
		fmt.Printf("  xx drop      cluster %-3d (unreachable)\n", e.Cluster)
	})
	sys.Bus().Subscribe(event.TopicMemoryThreshold, func(ev event.Event) {
		fmt.Println("  !! memory pressure")
	})

	node := heap.NewClass("Record",
		heap.FieldDef{Name: "data", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
		heap.FieldDef{Name: "seq", Kind: heap.KindInt},
	)
	node.AddMethod("seq", func(c *heap.Call) ([]heap.Value, error) {
		v, _ := c.Self.FieldByName("seq")
		return []heap.Value{v}, nil
	})
	node.AddMethod("sum", func(c *heap.Call) ([]heap.Value, error) {
		seq, _ := c.Self.FieldByName("seq")
		next, _ := c.Self.FieldByName("next")
		if next.IsNil() {
			return []heap.Value{seq}, nil
		}
		rest, err := c.RT.Invoke(next, "sum")
		if err != nil {
			return nil, err
		}
		restSum, _ := rest[0].Int()
		s, _ := seq.Int()
		return []heap.Value{heap.Int(s + restSum)}, nil
	})
	sys.MustRegisterClass(node)

	fmt.Printf("building %d clusters x %d objects (%d-byte payloads) into a %d-byte heap...\n",
		*clusters, *per, *payload, *heapBytes)
	data := make([]byte, *payload)
	seq := int64(0)
	var want int64
	for c := 0; c < *clusters; c++ {
		cluster := sys.NewCluster()
		var prev *heap.Object
		for i := 0; i < *per; i++ {
			o, err := sys.NewObject(node, cluster)
			if err != nil {
				return fmt.Errorf("cluster %d object %d: %w", c, i, err)
			}
			if err := sys.SetField(o.RefTo(), "data", heap.Bytes(data)); err != nil {
				return err
			}
			if err := sys.SetField(o.RefTo(), "seq", heap.Int(seq)); err != nil {
				return err
			}
			want += seq
			seq++
			if prev == nil {
				if err := sys.SetRoot(fmt.Sprintf("chain-%d", c), o.RefTo()); err != nil {
					return err
				}
			} else if err := sys.SetField(prev.RefTo(), "next", o.RefTo()); err != nil {
				return err
			}
			prev = o
		}
	}

	if *dot {
		return sys.Runtime().DumpDot(os.Stdout)
	}

	st := sys.Heap().StatsSnapshot()
	fmt.Printf("\nheap: %d/%d bytes, %d objects resident\n", st.Used, st.Capacity, st.Objects)
	fmt.Println("cluster states:")
	for _, info := range sys.Clusters() {
		state := "loaded"
		if info.Swapped {
			state = fmt.Sprintf("swapped (%d XML bytes on %s)",
				info.PayloadBytes, strings.Join(info.Devices, ","))
		}
		fmt.Printf("  cluster %-3d %4d objects  %s\n", info.ID, info.Objects, state)
	}

	fmt.Println("\ntraversing every chain (faults swapped clusters back in)...")
	var got int64
	for c := 0; c < *clusters; c++ {
		root, err := sys.MustRoot(fmt.Sprintf("chain-%d", c))
		if err != nil {
			return err
		}
		out, err := sys.Invoke(root, "sum")
		if err != nil {
			return fmt.Errorf("chain %d: %w", c, err)
		}
		s, _ := out[0].Int()
		got += s
	}
	fmt.Printf("checksum: got %d, want %d — %v\n", got, want, got == want)

	fmt.Println("\nfinal middleware state:")
	fmt.Print(sys.Report())
	if *metrics {
		fmt.Println("\nmetrics page:")
		if err := sys.WriteMetrics(os.Stdout); err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("checksum mismatch")
	}
	switch {
	case *watch > 0:
		dur := *linger
		if dur <= 0 {
			dur = 30 * time.Second
		}
		logger.Info("live telemetry view", "refresh", *watch, "dur", dur)
		watchTelemetry(sys, *watch, dur)
	case *linger > 0:
		logger.Info("lingering for ops inspection", "dur", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// watchTelemetry renders a top-like live view of the telemetry plane —
// cluster heat ranking, working-set estimate and thrash state — repainting
// every interval until dur has elapsed.
func watchTelemetry(sys *objectswap.System, interval, dur time.Duration) {
	deadline := time.Now().Add(dur)
	for {
		var b strings.Builder
		renderTelemetry(&b, sys.Telemetry())
		// Repaint from the top-left, top(1)-style.
		fmt.Print("\033[H\033[2J" + b.String())
		if !time.Now().Add(interval).Before(deadline) {
			return
		}
		time.Sleep(interval)
	}
}

// renderTelemetry writes one frame of the live view.
func renderTelemetry(w io.Writer, t *telemetry.Tracker) {
	hot, warm, cold := t.Counts()
	wssClusters, wssBytes := t.WSS(0)
	score, degraded := t.ThrashState()
	state := "ok"
	if degraded {
		state = "DEGRADED"
	}
	fmt.Fprintf(w, "obiswap telemetry  %s\n\n", time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "heat    hot %d | warm %d | cold %d\n", hot, warm, cold)
	fmt.Fprintf(w, "wss     %d clusters, %d bytes (window %s)\n", wssClusters, wssBytes, t.Window())
	fmt.Fprintf(w, "thrash  score %.2f, %s\n\n", score, state)
	ranked := t.HeatSnapshot()
	fmt.Fprintf(w, "%-9s %-5s %9s %9s %10s %6s %5s %9s %7s\n",
		"CLUSTER", "CLASS", "SCORE", "TOUCHES", "CROSSINGS", "OUTS", "INS", "PINGPONG", "THRASH")
	const maxRows = 20
	for i, h := range ranked {
		if i == maxRows {
			fmt.Fprintf(w, "... (%d more)\n", len(ranked)-maxRows)
			break
		}
		fmt.Fprintf(w, "%-9d %-5s %9.2f %9d %10d %6d %5d %9d %7.2f\n",
			h.Cluster, h.Class, h.Score, h.Touches, h.Crossings,
			h.SwapOuts, h.SwapIns, h.PingPongs, h.Thrash)
	}
}
