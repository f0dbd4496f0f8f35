package core

import (
	"context"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"objectswap/internal/event"
	"objectswap/internal/placement"
	"objectswap/internal/store"
)

// Replica maintenance: a swapped cluster's durability is only as good as its
// replica set, and donors in the paper's ad-hoc neighborhood come and go.
// UnderReplicated finds the swapped clusters whose replica count fell below
// target (a replica is "live" when its donor still resolves through the
// store registry — the breaker/connectivity machinery makes that a cheap
// local check), and RepairCluster re-ships one cluster's payload to fresh
// donors chosen by the same rendezvous planner that placed it. The
// placement.Repairer drives both from breaker-open / device-removal /
// read-repair events.

// ReplicaSet returns a swapped cluster's recorded replica devices (primary
// first), or nil when the cluster is resident or unknown.
func (rt *Runtime) ReplicaSet(id ClusterID) []string {
	info, _ := rt.mgr.Info(id)
	return info.Devices
}

// replicaSet is one swapped cluster's replica devices, primary first.
type replicaSet struct {
	id      ClusterID
	devices []string
}

// swappedSets snapshots the replica set of every cluster whose text is on
// the donors to stay, in id order and in one cut: settled, or held by a repair
// — which still shows the set it is repairing, so the replica-health readings
// do not flicker to "whole" while it runs. A cluster a swap-in owns is on its
// way home and is not counted.
func (rt *Runtime) swappedSets() []replicaSet {
	var out []replicaSet
	rt.lock()
	defer rt.unlock()
	for cs := range rt.mgr.table.clusters.all {
		if cs.where == swappedOut || cs.where == underRepair {
			out = append(out, replicaSet{cs.id, append([]string(nil), cs.retained.devices...)})
		}
	}
	return out
}

// liveCount reports how many of the given replicas resolve through the
// store registry right now. Called without the runtime lock — Lookup takes
// the registry's own lock.
func (rt *Runtime) liveCount(devices []string) int {
	if rt.stores == nil {
		return 0
	}
	n := 0
	for _, d := range devices {
		if _, err := rt.stores.Lookup(d); err == nil {
			n++
		}
	}
	return n
}

// UnderReplicated returns the swapped clusters with fewer than k live
// replicas, in id order — one under repair included (RepairCluster on it
// answers ErrClusterBusy). k <= 0 selects the runtime's default replication
// factor.
func (rt *Runtime) UnderReplicated(k int) []ClusterID {
	if k <= 0 {
		k = rt.Replicas()
	}
	var out []ClusterID
	for _, s := range rt.swappedSets() {
		if rt.liveCount(s.devices) < k {
			out = append(out, s.id)
		}
	}
	return out
}

// liveReplicaTotals sums live replicas across swapped clusters, for the
// replication-factor gauge (mean = live / swapped).
func (rt *Runtime) liveReplicaTotals() (live, swapped int) {
	for _, s := range rt.swappedSets() {
		swapped++
		live += rt.liveCount(s.devices)
	}
	return live, swapped
}

// RepairCluster restores a swapped cluster toward k live replicas: it scrubs
// every surviving replica's copy against the checksum recorded at swap-out
// (convicting donor corruption at rest; with K>=2 and no recorded checksum,
// the majority checksum convicts divergent minorities), ships fresh copies
// to donors chosen by the planner (excluding every donor already in the
// set), prunes replicas recorded on dead donors and corrupt copies (their
// payloads go to the deferred-drop queue), and commits the new replica set.
// k <= 0 selects the runtime default. A fully replicated cluster whose scrub
// finds every copy intact reports ErrNoRepair; a cluster with no reachable,
// uncorrupted replica at all reports ErrNoLiveReplica (or ErrCorruptReplica)
// and stays swapped, recoverable when a donor returns.
//
// The cluster is under-repair for the duration — reserved exactly like a
// swap — so repair never races a concurrent SwapIn/SwapOut or the sweep. The
// probe, the fetches and the shipment run with the runtime lock released.
func (rt *Runtime) RepairCluster(ctx context.Context, id ClusterID, k int) (SwapEvent, error) {
	if k <= 0 {
		k = rt.Replicas()
	}
	if rt.stores == nil {
		return SwapEvent{}, ErrNoStores
	}
	rt.lock()
	defer rt.unlock()
	r := repair{k: k}
	r.begin(rt, &opRepair, id, ctx)
	defer r.end()
	r.do("reserve", r.reserve)
	r.io("probe", r.probe)
	r.io("fetch", r.fetch)
	r.io("ship", r.ship)
	r.do("commit", r.commit)
	if r.err != nil {
		return SwapEvent{}, r.err
	}
	return r.finish(), nil
}

// repair is one cluster repair in flight.
type repair struct {
	op
	k int

	// reserve: where the text is, copied out of the record.
	copy donorCopy

	live, dead []string // probe, then fetch demotes corrupt copies to dead
	data       []byte   // the intact copy being re-shipped
	popts      store.PutOpts
	fresh      []string // donors that took a new copy
	newSet     []string // live + fresh, primary first
}

// reserve pins the replacement-object in the hold that reserves the cluster:
// no collection sweeps it while the repair owns the cluster.
func (r *repair) reserve() error {
	return r.op.reserve(swappedOut, underRepair, func(cs *clusterState) {
		r.copy = cs.retained.donorCopy
		r.pin(cs.replacement)
	})
}

// probe sorts the recorded replicas: live ones stay, dead ones are pruned.
func (r *repair) probe() error {
	for _, d := range r.copy.devices {
		if _, err := r.rt.stores.Lookup(d); err == nil {
			r.live = append(r.live, d)
		} else {
			r.dead = append(r.dead, d)
		}
	}
	if len(r.live) == 0 {
		return fmt.Errorf("core: repair cluster %d (replicas %s): %w",
			r.id, strings.Join(r.copy.devices, ","), ErrNoLiveReplica)
	}
	return nil
}

// fetch scrubs every live replica: it fetches each copy and checksums it, so
// donor corruption at rest is detected even when the replica set looks whole.
// Replicas are byte-identical at shipment time, so the checksum recorded at
// swap-out convicts a rotted copy directly; without one (state restored from
// a pre-CRC checkpoint) the copies themselves are the only evidence — with
// K>=2, the majority checksum convicts divergent minorities, and ties keep
// the primary-order copy a plain fetch would have served.
func (r *repair) fetch() error {
	r.handOut(5)
	rt, key, wantCRC := r.rt, r.copy.key, r.copy.crc
	r.span.SetKey(key)
	type replicaCopy struct {
		device string
		data   []byte
		opts   store.PutOpts
		sum    uint32
	}
	var copies []replicaCopy
	var fetchErr error
	for _, d := range r.live {
		s, lerr := rt.stores.Lookup(d)
		if lerr != nil {
			continue
		}
		b, o, gerr := store.GetWith(r.ctx, s, key)
		if gerr != nil {
			fetchErr = gerr
			continue
		}
		copies = append(copies, replicaCopy{d, b, o, crc32.ChecksumIEEE(b)})
	}
	if wantCRC == 0 && len(copies) >= 2 {
		counts := make(map[uint32]int, len(copies))
		for _, c := range copies {
			counts[c.sum]++
		}
		if len(counts) > 1 {
			best := 0
			for _, c := range copies {
				if counts[c.sum] > best {
					best, wantCRC = counts[c.sum], c.sum
				}
			}
			rt.logger.Warn("repair: replica payloads diverge; majority checksum wins",
				"trace", r.trace, "cluster", uint32(r.id), "groups", len(counts))
		}
	}
	var serving string
	corrupt := make(map[string]bool)
	for _, c := range copies {
		if wantCRC != 0 && c.sum != wantCRC {
			rt.logger.Warn("repair: replica payload corrupt at rest",
				"trace", r.trace, "cluster", uint32(r.id), "device", c.device)
			corrupt[c.device] = true
			// A convicted copy's donor is reachable but its bytes are
			// worthless: treat it exactly like a dead replica — pruned from
			// the set, payload queued for dropping, re-shipped over.
			r.dead = append(r.dead, c.device)
		} else if serving == "" {
			r.data, r.popts, serving = c.data, c.opts, c.device
		}
	}
	if serving == "" {
		err := fetchErr
		if len(corrupt) > 0 {
			err = fmt.Errorf("%w: key %s on %s", ErrCorruptReplica, key,
				strings.Join(r.dead[len(r.dead)-len(corrupt):], ","))
		}
		if err == nil {
			err = ErrNoLiveReplica
		}
		return fmt.Errorf("core: repair cluster %d: fetch: %w", r.id, err)
	}
	r.live = slices.DeleteFunc(r.live, func(d string) bool { return corrupt[d] })
	if len(r.live) >= r.k && len(r.dead) == 0 {
		return ErrNoRepair
	}
	r.span.SetDevice(serving)
	r.span.SetFormat(r.popts.Format)
	r.span.AddBytes(int64(len(r.data)))
	return nil
}

// ship places fresh copies in the fetched format — the planner skips donors
// that do not accept it. Quorum 1: a partial repair still improves durability,
// and the next sweep finishes the job when donors appear.
func (r *repair) ship() error {
	if need := r.k - len(r.live); need > 0 {
		rep, err := r.rt.placer.Ship(r.ctx, placement.ShipRequest{
			Key: r.copy.key, Data: r.data, Replicas: need, Quorum: 1, Exclude: r.copy.devices,
			Format: r.popts.Format,
		})
		if err != nil && len(r.dead) == 0 {
			// Nothing shipped and nothing to prune: the repair achieved
			// nothing, report it.
			return fmt.Errorf("core: repair cluster %d: %w", r.id, err)
		}
		r.fresh = rep.Replicas
	}
	return nil
}

// commit records the new replica set on the record's copy
// (clusterState.rehome).
func (r *repair) commit() error {
	r.newSet = append(r.live, r.fresh...)
	newSet := append([]string(nil), r.newSet...) // the record's own copy
	r.op.commit(swappedOut, func(cs *clusterState) { cs.rehome(newSet) })
	return nil
}

// finish queues the pruned replicas' payloads for dropping and reports.
func (r *repair) finish() SwapEvent {
	rt, key, newSet := r.rt, r.copy.key, r.newSet
	for _, d := range r.dead {
		rt.mgr.deferDrop(d, key, r.id)
	}
	ev := SwapEvent{Cluster: r.id, Device: newSet[0], Key: key, Bytes: len(r.data),
		Attempted: r.dead, Replicas: newSet, Trace: r.trace, Format: r.popts.Format,
		Cause: CauseRepair}
	r.span.SetReplicas(newSet)
	ev.Phases, ev.Duration = r.span.End(r.phases)
	rt.telem.RecordFault("swap_repair", ev.Cause, ev.Duration.Seconds())
	rt.logger.Info("cluster repaired", "trace", r.trace, "cluster", uint32(r.id),
		"replicas", strings.Join(newSet, ","), "pruned", strings.Join(r.dead, ","),
		"shipped", strings.Join(r.fresh, ","))
	rt.emit(event.TopicSwapRepair, ev)
	return ev
}
