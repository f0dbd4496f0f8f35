package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"objectswap/internal/obs"
)

// The swap core is sharded: the cluster table (residency included) and
// the swap critical sections are split across N independently locked shards,
// keyed by a hash of the cluster id. Swaps on clusters of different shards
// never contend — the reserve of one overlaps the commit of another — while
// the rare whole-graph operations (Collect's mark-sweep, cluster resize,
// checkpoint save/restore) stop the world by acquiring every shard lock in
// ascending index order.
//
// Lock order: shard swap mu → mgr.mu (object/proxy index) → tableShard.mu
// (cluster records) → h.mu (heap). Multiple shard or table locks are only
// ever taken in ascending index order; mgr.mu is never acquired while a
// tableShard lock is held.

// DefaultShards is the default shard count. It trades fine-grained
// parallelism (more shards, fewer collisions) against the cost of the
// stop-the-world paths, which acquire every shard lock.
const DefaultShards = 8

// coreShard is one independently locked slice of the swap machinery: the
// serialization point for the reserve/commit critical sections of every swap
// whose cluster hashes onto it.
type coreShard struct {
	idx int
	mu  sync.Mutex

	// wait is the shard's lock-acquisition latency histogram
	// (objectswap_swap_lock_wait_seconds{shard=...}), resolved once at
	// instrument time so the hot path skips the label lookup.
	wait *obs.Histogram

	// mutating mirrors the runtime-wide mutatingCount for this shard: set
	// while a critical section that may allocate (swap-in install) holds the
	// shard lock. Per-shard observability; the allocation path checks the
	// global count.
	mutating atomic.Bool

	// evictDepth counts eviction-pass victims currently in flight on this
	// shard; evictStart is the registry-clock time (unix nanos) the shard's
	// oldest in-flight eviction work started, 0 when idle. Health checks use
	// it to name the stuck shard instead of flagging the whole runtime.
	evictDepth atomic.Int32
	evictStart atomic.Int64
}

// shardIndexFor hashes a cluster id onto one of n shards (a 32-bit
// finalizing mix, so consecutive cluster ids spread instead of clumping).
func shardIndexFor(id ClusterID, n int) int {
	x := uint32(id)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return int(x % uint32(n))
}

// shardIndex maps a cluster to its shard index.
func (rt *Runtime) shardIndex(id ClusterID) int {
	return shardIndexFor(id, len(rt.shards))
}

// shardOf returns the shard serializing swaps of the given cluster.
func (rt *Runtime) shardOf(id ClusterID) *coreShard {
	return rt.shards[rt.shardIndex(id)]
}

// Shards reports the configured shard count.
func (rt *Runtime) Shards() int { return len(rt.shards) }

// lockShard acquires one shard's swap lock, recording the wait in the
// per-shard lock-wait histogram.
func (rt *Runtime) lockShard(sh *coreShard) {
	start := rt.obsReg.Clock().Now()
	sh.mu.Lock()
	sh.wait.Observe(rt.obsReg.Clock().Now().Sub(start).Seconds())
}

// lockAll acquires every shard lock in ascending index order — the
// stop-the-world entry used by Collect, resize and checkpoint save/restore.
func (rt *Runtime) lockAll() {
	for _, sh := range rt.shards {
		rt.lockShard(sh)
	}
}

// unlockAll releases the stop-the-world acquisition in reverse order.
func (rt *Runtime) unlockAll() {
	for i := len(rt.shards) - 1; i >= 0; i-- {
		rt.shards[i].mu.Unlock()
	}
}

// beginMutate opens a critical section that may allocate while holding swap
// locks (swap-in install, resize re-mediation, checkpoint restore). While any
// such section is open, allocation failures report ErrOutOfMemory instead of
// re-entering the evictor, whose Collect would deadlock on the very locks the
// section holds. sh labels the per-shard flag; nil marks a stop-the-world
// section that holds every shard. The returned func closes the section.
func (rt *Runtime) beginMutate(sh *coreShard) func() {
	if sh != nil {
		sh.mutating.Store(true)
	}
	rt.mutatingCount.Add(1)
	return func() {
		rt.mutatingCount.Add(-1)
		if sh != nil {
			sh.mutating.Store(false)
		}
	}
}

// beginShardEvict marks eviction work in flight on the victim's shard, for
// the per-shard liveness probe. Nested victims on one shard share the oldest
// start time. The returned func clears the mark.
func (rt *Runtime) beginShardEvict(victim ClusterID) func() {
	sh := rt.shardOf(victim)
	if sh.evictDepth.Add(1) == 1 {
		sh.evictStart.Store(rt.obsReg.Clock().Now().UnixNano())
	}
	return func() {
		if sh.evictDepth.Add(-1) == 0 {
			sh.evictStart.Store(0)
		}
	}
}

// interleaveByShard orders the indexes of ids so consecutive dispatches land
// on different shards round-robin. SwapOutMany uses it so a worker slot freed
// while one shard's commit is in flight picks up a victim on another shard
// instead of queueing behind the committing sibling.
func (rt *Runtime) interleaveByShard(ids []ClusterID) []int {
	groups := make(map[int][]int)
	var shardOrder []int
	for i, id := range ids {
		s := rt.shardIndex(id)
		if _, seen := groups[s]; !seen {
			shardOrder = append(shardOrder, s)
		}
		groups[s] = append(groups[s], i)
	}
	out := make([]int, 0, len(ids))
	for len(out) < len(ids) {
		for _, s := range shardOrder {
			if g := groups[s]; len(g) > 0 {
				out = append(out, g[0])
				groups[s] = g[1:]
			}
		}
	}
	return out
}

// ShardEviction reports eviction work in flight on one shard.
type ShardEviction struct {
	Shard int
	Since time.Time
}

// ShardEvictions lists the shards with eviction work in flight, oldest
// first. Health checks use it to report a wedged eviction by shard index
// instead of a single runtime-global flag that cannot say which shard (or
// falsely implicates all of them).
func (rt *Runtime) ShardEvictions() []ShardEviction {
	var out []ShardEviction
	for _, sh := range rt.shards {
		if ns := sh.evictStart.Load(); ns != 0 {
			out = append(out, ShardEviction{Shard: sh.idx, Since: time.Unix(0, ns)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Since.Before(out[j].Since) })
	return out
}

// WithShards sets the number of independently locked swap shards the cluster
// table and the swap critical sections are split across.
// Values below 1 select DefaultShards.
func WithShards(n int) Option {
	return func(rt *Runtime) {
		if n > 0 {
			rt.nshards = n
		}
	}
}
