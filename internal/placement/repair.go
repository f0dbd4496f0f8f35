package placement

import (
	"context"
	"errors"
	"log/slog"
	"sync"

	"objectswap/internal/event"
	"objectswap/internal/obs"
)

// ErrSkip is returned by a RepairTarget for a cluster it cannot (or need
// not) repair right now — mid-swap on another goroutine, reloaded since the
// sweep, or already back at full strength. The sweep moves on without
// counting a failure.
var ErrSkip = errors.New("placement: repair skipped")

// RepairTarget is the slice of the swapping runtime the repair loop drives.
// The objectswap facade adapts core.Runtime to it.
type RepairTarget interface {
	// UnderReplicated lists swapped clusters with fewer than k live
	// replicas, in id order.
	UnderReplicated(k int) []uint32
	// RepairCluster re-ships the cluster's payload to fresh donors until k
	// replicas are live, pruning replicas on dead donors. It returns ErrSkip
	// (possibly wrapped) when the cluster needs no work right now.
	RepairCluster(ctx context.Context, cluster uint32, k int) error
}

// Repairer is the background re-replication loop: it subscribes to the
// events that signal replica loss (breaker open, link down, device removal,
// a swap-in that had to fall through a dead replica) and re-ships
// under-replicated clusters to fresh donors chosen by the planner. Event
// handlers only nudge a buffered channel — the bus delivers synchronously,
// possibly from inside a swap operation, so no repair work may run on the
// publisher's goroutine.
type Repairer struct {
	target RepairTarget
	k      int
	logger *slog.Logger

	repairs *obs.CounterVec // sweep results by outcome
	kicks   *obs.CounterVec // wake-up signals by reason

	// sweep admits one sweep at a time: an explicit RepairNow waits out the
	// background worker's instead of skipping the clusters it is busy with
	// and returning before they are whole.
	sweep sync.Mutex
	kick  chan struct{}
	stop  chan struct{}
	done  chan struct{}

	startOnce sync.Once
	stopOnce  sync.Once
	started   bool
}

// RepairerOptions configures a Repairer. All fields are optional.
type RepairerOptions struct {
	// Bus wires the repairer to replica-loss signals: breaker-open,
	// link-down, device-removed and read-repair events each kick a sweep.
	Bus *event.Bus
	// Obs records repair and kick counters. A private registry is used when
	// nil.
	Obs *obs.Registry
	// Logger narrates sweeps. A nil logger logs nothing.
	Logger *slog.Logger
}

// NewRepairer builds a repair loop restoring clusters to k replicas. Call
// Start to launch the background worker; RepairNow sweeps synchronously
// either way.
func NewRepairer(target RepairTarget, k int, o RepairerOptions) *Repairer {
	if k < 1 {
		k = 1
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry(nil)
	}
	r := &Repairer{
		target: target,
		k:      k,
		logger: obs.Logger(o.Logger),
		repairs: o.Obs.CounterVec("objectswap_placement_repairs_total",
			"Cluster repair attempts by the re-replication loop, by outcome.", "outcome"),
		kicks: o.Obs.CounterVec("objectswap_placement_repair_kicks_total",
			"Repair-loop wake-up signals, by reason.", "reason"),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if o.Bus != nil {
		for _, t := range []event.Topic{
			event.TopicBreakerOpen,
			event.TopicLinkDown,
			event.TopicDeviceRemoved,
			event.TopicReadRepair,
		} {
			reason := string(t)
			o.Bus.Subscribe(t, func(event.Event) { r.signal(reason) })
		}
	}
	return r
}

// signal schedules a background sweep without blocking: signals arriving
// while a sweep is pending or running coalesce into one follow-up sweep.
func (r *Repairer) signal(reason string) {
	r.kicks.With(reason).Inc()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Start launches the background worker goroutine.
func (r *Repairer) Start() {
	r.startOnce.Do(func() {
		r.started = true
		go func() {
			defer close(r.done)
			for {
				select {
				case <-r.stop:
					return
				case <-r.kick:
					r.RepairNow(context.Background())
				}
			}
		}()
	})
}

// Close stops the background worker. Bus subscriptions stay registered but
// degrade to counting kicks nobody consumes.
func (r *Repairer) Close() {
	r.stopOnce.Do(func() {
		close(r.stop)
		if r.started {
			<-r.done
		}
	})
}

// RepairNow synchronously sweeps every under-replicated cluster once,
// re-shipping each toward k replicas. It returns the number of clusters
// repaired and the first hard failure (a cluster that could not be repaired
// stays under-replicated; the next kick retries it).
func (r *Repairer) RepairNow(ctx context.Context) (int, error) {
	r.sweep.Lock()
	defer r.sweep.Unlock()
	ids := r.target.UnderReplicated(r.k)
	repaired := 0
	var firstErr error
	for _, id := range ids {
		err := r.target.RepairCluster(ctx, id, r.k)
		switch {
		case err == nil:
			repaired++
			r.repairs.With("repaired").Inc()
		case errors.Is(err, ErrSkip):
			r.repairs.With("skipped").Inc()
		default:
			r.repairs.With("failed").Inc()
			r.logger.Warn("cluster repair failed", "cluster", id, "err", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if repaired > 0 {
		r.logger.Info("repair sweep", "underreplicated", len(ids), "repaired", repaired)
	}
	return repaired, firstErr
}
