#!/bin/sh
# Tier-1 verification entrypoint: formatting, static checks, build, every test
# once plain and once under the race detector, coverage on the observability
# spine, the generate-drift gate and the structural guards. Numbers are not
# this script's business: go run ./benchmark and go run ./cmd/fig5 print them.
set -eux

UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

go vet ./...
go build ./...
# -count=1: a cached pass is not a run. Gates this one invocation carries:
# - TestInternalExportsAreCalled (.): every exported function and method in
#   internal/ is called by non-test Go outside its package (benchmark/'s
#   tests included), or allow-listed in exports_test.go with its reason.
# - TestSmoke (internal/opshttp): a real listener on :0 answers 200 on
#   /metrics, /healthz, /debug/traces, /debug/events, /debug/heat, /debug/wss.
# - TestMetricsPageParses (internal/opshttp): the /metrics page survives a
#   strict Prometheus text-format parser — adversarial label values,
#   histograms and the telemetry families included.
# - TestHeatRankingMatchesEvictionOrder, TestFaultCauseAttribution,
#   TestThrashHealthFlips, TestAccessPlaneIgnoresWallTime (.): hammered
#   clusters rank above idle ones in heat and in the coldest-first victim
#   order, fault causes are attributed, the thrash health check degrades,
#   stays so while the system idles and ages with accesses with no ping-pong,
#   and one script of accesses and swaps reads the same on /debug/heat and
#   /debug/wss run straight through and with sleeps between its steps.
# - TestCodecBenchSmoke (internal/wire): the binary codec's decode/encode time
#   ratio stays under half the XML asymmetry (17.54) it was built to close,
#   and one decode stays within its allocation budget.
# - TestEvictionBudget (internal/core): an eviction pass of k >= 2 victims
#   runs exactly one collection, a young pass, and every victim's bytes are
#   back when its swap-out returns; a collection that reclaims nothing
#   allocates nothing; a warm victim walk allocates nothing beyond its
#   swap-outs.
# - TestSwapRoundTripBudget (internal/core): one SwapOut + SwapIn of a written
#   32-object x 128 B cluster in the binary format allocates at most
#   15 862 + 256 B (3.3x the frame it ships) in at most 10 + 1 objects
#   (measured plus a stray allocation's margin); neither the encode side,
#   once the encoder pool is warm, nor a swap-in (the same count at 32 and
#   128 members) allocates anything that grows with the object count; an
#   unwritten one leaves with no store call, at most 2 + 1 allocations and
#   368 + 64 B at any size.
# - TestWarmEncodeObjectsAllocatesNothing (internal/wire): a warm encoder's
#   EncodeObjects allocates nothing (its object source lives in the encoder)
#   and keeps no object or classifier past the call.
# - TestFacadeSwapRoundTripAllocs (.): through a default System — bus with
#   the policy engine subscribed, flight recorder, telemetry — plus one
#   counting subscriber and an in-memory donor, a clean SwapOut + SwapIn of a
#   32 x 128 B cluster allocates at most 7 + 1 objects once the recorder's
#   ring is warm: the spans, recorder entries, bus deliveries, fault flight,
#   attempt deadline, installer, string section and installed-object list
#   cost nothing beyond what outlives the swap, each direction's trace id,
#   its context and its phase list are one record, and the replacement-object
#   is a block the heap's pool reissues.
# - TestWarmShipAllocatesOnlyItsReplicaSet (internal/placement): a warm
#   K = 1 shipment over store.Mem allocates 2, the replica set it reports and
#   the donor's copy (the caller's goroutine makes the put; no goroutine,
#   channel or filtered ranking), and a ranking into a reused Scratch
#   nothing (a store.Mem probe hands out its own format list).
# - TestReloadedClusterHostBytes (internal/core): a reloaded 32 x 128 B
#   cluster keeps at most 9 536 B of Go heap (9 468 measured): the frame its
#   strings point into, its header array and its field slab, plus a small
#   allocation's margin; with a 128 B byte payload per member it keeps a copy
#   of its strings instead of the frame, at most 14 016 B (13 948 measured).
# - TestReloadedStringsOutliveTheFetch, TestSwapInNeverWritesTheFetchedFrame
#   (internal/core), FuzzCrossFormat's seeds (internal/wire): a swap-in
#   hands its fetched frame over to the strings it installs, so in binary,
#   binary+flate and XML every reloaded title survives three collections and
#   the other clusters' fetches unchanged, nothing writes to a fetched copy
#   after its Get returns, and a frame Stage refuses is referred to by
#   nothing after one collection. TestOwnershipContract (internal/store)
#   holds every in-tree store and decorator to the half this relies on: a
#   later Put to the key and a later read, scribbled over, leave a kept Get
#   result unchanged. TestSwapRecordOutlivesLaterSwaps (.): a swap's record
#   is never reused, so its event's Trace and Phases and the contexts a donor
#   kept from its Put and Get read the same, trace included, ten swaps and
#   three collections later.
# - TestCrossingReadsNoClockOnAStopwatch (internal/core): with a tracker
#   attached, 100 crossings, 100 in-place touches and 100 allocations read
#   the registry's clock 0 times, Now and Since alike, on a plain clock and
#   on a stopwatch: every access is dated with a tick of
#   the recency clock, and the ledger gains them all.
# - TestUncoalescedFaultAllocatesNothing (internal/fault): a warm Engine.Do
#   no waiter joins allocates nothing (its flight comes off the engine's
#   free list; the channel waiters park on is made only when one joins).
# - TestAttemptOverMemAllocatesOnlyTheCopy (internal/transport): a warm
#   Resilient.Get over store.Mem allocates 1, the donor's copy: the
#   per-attempt deadline rides on a reused attempt context.
# - TestSelectVictimsAllocatesOnlyItsResult (internal/core): once warm,
#   SelectVictims under any strategy allocates at most its result (the
#   ranking buffer is the manager's, reused).
# - TestWarmSpanAllocatesOnlyItsPhases, TestSpansSurviveSlotReuse
#   (internal/obs): a warm six-phase span that ends into its caller's storage
#   allocates nothing, and a Spans result shares no storage with the ring
#   slots later admissions reuse.
# - TestCollectAllocatesNothingOnUnchangedHeap, TestCollectReusesSweptBuffer,
#   TestProxyChurnAllocatesNothing, TestSweptProxyBlocksReissued,
#   TestPurgeBeforePool, TestFreedReplacementBlocksReissued (internal/heap):
#   a pass that reclaims nothing, full or young, allocates nothing; once a
#   collection has reclaimed n objects the next that reclaims n allocates
#   nothing; minting and collecting 1 000 proxies allocates nothing once the
#   pool is warm; a swept swap-cluster-proxy's or replacement-object's block
#   is reissued, under a fresh id, once its collection has returned, and not
#   while the owner's purge runs (a block the purge allocates is none of the
#   swept, whose fields read as before the pass), a freed or removed one at
#   once, and no application object's or object-fault proxy's block ever is.
# - TestCollectPurgesEverySweptRecord, TestHeapCollectionPurgesTheManager,
#   TestHeapCollectionKeepsParkedFrames, TestReclaimingProxiesAllocatesOnlySwept
#   (internal/core): one Collect purges the inbound lists, edge counts,
#   shared and object-fault indexes and membership records of everything it
#   swept before it returns, and so does a Collect host code runs on the
#   runtime's heap under Locked, which also keeps the argument of a call
#   parked on a demand fault; two of Figure 5's B1 passes over 10 000 objects,
#   each followed by its Collect, allocate at most 12 650 objects and
#   3 614 624 B (12 586 and 3 549 088 measured, 22 585 and 5 148 928 while a
#   swept block waited a collection to join the pool), and a warm Collect
#   after a warm pass nothing.
# - TestB1PassReusesSweptProxies, TestProxyBlocksBoundedByPeakResidency
#   (internal/core): a B1 pass over 1 000 objects plus its Collect allocates
#   at most 1 object once one pass has warmed the pool, and passes minting
#   4 000, 1 000 and 4 000 proxies, one Collect between each, allocate 4 000
#   blocks in all: the pool plus the live proxies never exceed the peak proxy
#   residency.
# - TestReplacementBlocksReissued, TestReplacementBlockPooledOnEveryRetirement,
#   TestStaleReplacementHolderRefused (internal/core): cycling 4 clusters out
#   and in 5 times uses 4 replacement blocks in all; a replacement's block
#   is reissued by the next swap-out whether a swap-in retired it, a failed
#   swap-out removed it or a collection swept it with its dead cluster; and
#   a holder of a retired replacement's block and id writes nothing once the
#   block is reissued.
# - TestLiveProxyHostBytes (internal/core): a live boundary proxy costs the
#   Go heap at most 285 B with clusters of 1 and 241 B with clusters of 32
#   (proxy block, heap-index slot, shared-index entry, inbound entry, edge).
# - TestSwappedResidue (internal/core): a swapped-out member leaves at most
#   94.2 B of Go heap behind with 3 125 clusters of 32 and 79.9 B with 10 000
#   (a share of its cluster's member run, of the replacement-object and of
#   the cluster record, the heap's peak-sized object index).
# - TestObjTableMatchesMap, TestObjectIndexBoundedByPeakResidency,
#   TestResidencyChurnAllocatesNothing, TestMarkEpochWrap,
#   TestSweptOrderFollowsHistory, TestObjectLayouts (internal/heap): the
#   heap's object table agrees with a Go map under colliding ids after every
#   step, and keeps what was added since it was last aged in its young tail;
#   its index stays sized by peak residency after 200 000 ids are
#   minted and reclaimed; freeing and reinstalling 900 objects allocates only
#   the batch's own 2 blocks (header array and slab); nothing reachable is freed across the wrap of
#   the 32-bit mark epoch; twin heaps sweep in the same order; an Object's
#   header is 64 bytes.
# - TestFaultBenchSmoke (.): a pointer chase with the prefetcher on takes at
#   least one demand fault and serves at least half its cluster boundaries
#   from the prefetch inventory.
# - TestTriggerPrefetchAllocatesNothing (internal/core): a prefetch trigger —
#   window walk, enqueue, task — allocates nothing.
# - TestNestedInvokeAllocatesNothing, TestFig5A1AllocationsFlat,
#   TestNewProxyAllocatesOne (internal/core): ten nested resident invocations
#   allocate nothing; Figure 5's A1 over clusters of 20 allocates the same at
#   1 000 and 2 000 objects, at most 1; minting a proxy with no swept block
#   to reissue allocates 1 (its object, field vector inside).
# - TestB2StepAllocatesNothing, TestB1StepAllocatesOne,
#   TestFloorA2AllocatesAtMostOne (internal/core): results return into the
#   frame, so a B2 step over an assign-mode cursor allocates 0, a B1 step with
#   no swept block to reissue only the proxy it mints (1), and a whole A2 pass
#   on the direct runtime at most 1.
# - TestStackPerLevel (internal/core): a nesting level of dispatch takes at
#   most 664 B of Go stack on the swapping runtime and 632 B on the direct one
#   (Go 1.24, amd64).
go test -count=1 ./...
go test -race ./...
go test -cover ./internal/obs/ ./internal/core/ ./internal/opshttp/ ./internal/placement/ ./internal/telemetry/
# Generate-drift gate: obicomp output must stay in sync with its schema
# sources — regenerating every //go:generate package must be a no-op.
BEFORE=$(find . -name '*_gen.go' -o -name '*_gen.xml' | sort | xargs sha256sum)
go generate ./...
AFTER=$(find . -name '*_gen.go' -o -name '*_gen.xml' | sort | xargs sha256sum)
if [ "$BEFORE" != "$AFTER" ]; then
    echo "obicomp output drifted from its sources (rerun go generate ./... and commit):" >&2
    echo "$BEFORE" >/tmp/obicomp-gen-before.$$
    echo "$AFTER" >/tmp/obicomp-gen-after.$$
    diff /tmp/obicomp-gen-before.$$ /tmp/obicomp-gen-after.$$ >&2 || true
    rm -f /tmp/obicomp-gen-before.$$ /tmp/obicomp-gen-after.$$
    exit 1
fi
# Guard: numbers live in one ledger. No BENCH_*.json at the root and no
# go test -bench function anywhere: a figure is a row of go run ./benchmark
# (benchmark/README.md maps every legacy figure to its successor) or a table
# of go run ./cmd/fig5, measured by one instrument on one stamped host.
LEDGERS=$(ls BENCH_*.json 2>/dev/null || true)
BENCHFUNCS=$(grep -rn '^func Benchmark' --include='*_test.go' . || true)
if [ -n "$LEDGERS" ] || [ -n "$BENCHFUNCS" ]; then
    echo "second measuring system (add a workload or layer row to go run ./benchmark, or a table to go run ./cmd/fig5, instead):" >&2
    printf '%s\n%s\n' "$LEDGERS" "$BENCHFUNCS" >&2
    exit 1
fi
# Guard: one cluster table under one runtime lock. The eight-shard split of
# the table and of the swap critical sections stays deleted: no non-test Go
# outside benchmark/ names its option, default, hash, shard types, ordered
# multi-lock helpers or per-shard metric families.
SHARDS=$(grep -rnE 'WithShards|DefaultShards|shardIndexFor|coreShard|tableShard|lockPair|lockAll|lockTabs|swap_lock_wait|shard_clusters' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./benchmark/' || true)
if [ -n "$SHARDS" ]; then
    echo "sharded core is back (one cluster table under the one runtime lock):" >&2
    echo "$SHARDS" >&2
    exit 1
fi
# Guard: one path from an object to its cluster. The object-to-cluster index
# and the cluster-id counter live in the cluster table, touches of a member in
# place go through Manager.touch, and the heap has one list of write
# observers: no non-test Go outside benchmark/ names the replaced slot, the
# access-observer hooks, the two former observers, or the index and counter
# that sat under Manager.mu.
TOUCHES=$(grep -rnE 'SetWriteObserver|AddAccessObserver|NoteAccess|accessObservers|extraObservers|markDirty|noteAccess|nextCluster|(^|[^[:alnum:]_])(m|mgr)\.objects([^[:alnum:]_]|$)' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./benchmark/' || true)
if [ -n "$TOUCHES" ]; then
    echo "membership or touch path forked (want the index in the cluster table, one Manager.touch, one heap write-observer list):" >&2
    echo "$TOUCHES" >&2
    exit 1
fi
# Guard: a swap is bounded by its context alone. WithContext carries the
# deadline; the per-call deadline and timeout options stay deleted.
BOUNDS=$(grep -nE 'func (WithDeadline|WithTimeout)[^[:alnum:]_]' internal/core/*.go | grep -v '_test\.go:' || true)
if [ -n "$BOUNDS" ]; then
    echo "per-call swap deadline option is back (bound a swap with WithContext):" >&2
    echo "$BOUNDS" >&2
    exit 1
fi
# Guard: a cluster moves only through the one transition site. Nothing outside
# internal/core/state.go may assign a record's residency (cs.where = ..., or a
# where: key in a clusterState literal) or add/remove a record of the cluster
# table behind the by-residency tally (.clusters.add( or .clusters.remove(,
# the record set's own insert and removal); reserve, settle,
# newClusterState, put and drop are the only ways to get a cluster anywhere.
MOVED=$(grep -nE '\.where[[:space:]]*(=[^=]|\+\+|--)|[^[:alnum:]_]where:|\.clusters\.(add|remove)\(' \
    internal/core/*.go | grep -v '^internal/core/state\.go:' | grep -v '_test\.go:' || true)
if [ -n "$MOVED" ]; then
    echo "cluster residency or table membership written outside internal/core/state.go:" >&2
    echo "$MOVED" >&2
    exit 1
fi
# Guard: a mediated hop does no hashing. The cluster table finds a record by
# its id (internal/core/records.go) and a class finds a field or a method by
# a scan of its declared names: no non-test Go of internal/core declares a
# map keyed by ClusterID, and internal/heap/class.go declares no map keyed by
# a string.
HASHED=$(grep -nE 'map\[ClusterID\]' internal/core/*.go | grep -v '_test\.go:' || true)
NAMEMAPS=$(grep -n 'map\[string\]' internal/heap/class.go || true)
if [ -n "$HASHED" ] || [ -n "$NAMEMAPS" ]; then
    echo "hashing back on the hop (find a cluster record by id in records, a class member by its declared slot):" >&2
    printf '%s\n%s\n' "$HASHED" "$NAMEMAPS" >&2
    exit 1
fi
# Guard: a reference crosses a boundary at one site. In internal/core exactly
# one non-test call of enterCrossing (reach) and one rt.depth++ (enter) may
# exist, and proxy state is written by slot through proxy.go's accessors —
# no SetFieldByName(fld... on a proxy's fields anywhere.
CROSSINGS=$(grep -n '\.enterCrossing(' internal/core/*.go | grep -v '_test\.go:' || true)
FRAMES=$(grep -n 'rt\.depth++' internal/core/*.go | grep -v '_test\.go:' || true)
BYNAME=$(grep -nE 'SetFieldByName\(fld(Target|Obj|Src|Mode)[^[:alnum:]]' internal/core/*.go | grep -v '_test\.go:' || true)
if [ "$(printf '%s\n' "$CROSSINGS" | grep -c .)" != 1 ] || [ "$(printf '%s\n' "$FRAMES" | grep -c .)" != 1 ] || [ -n "$BYNAME" ]; then
    echo "reference mediation forked (want one enterCrossing call, one rt.depth++, no proxy field written by name):" >&2
    printf '%s\n%s\n%s\n' "$CROSSINGS" "$FRAMES" "$BYNAME" >&2
    exit 1
fi
# Guard: a cluster's access history is one record with one writer. The
# telemetry plane keeps no per-cluster map of its own (it reads the manager's
# ledgers through one iteration), the ledger's counters are incremented in
# internal/core/ledger.go (feed) and in no other non-test file of core or
# telemetry, and core holds the concrete tracker, not an interface to it.
MAPS=$(grep -nE 'map\[uint32\]\*' internal/telemetry/*.go | grep -v '_test\.go:' || true)
WRITERS=$(grep -lE '([Cc]rossings|[Tt]ouches)\+\+' internal/core/*.go internal/telemetry/*.go | grep -v '_test\.go$' || true)
IFACES=$(grep -nE 'type[[:space:]]+(PrefetchHit)?Telemetry[[:space:]]+interface' internal/core/*.go || true)
if [ -n "$MAPS" ] || [ "$WRITERS" != "internal/core/ledger.go" ] || [ -n "$IFACES" ]; then
    echo "access ledger forked (want no per-cluster map in internal/telemetry, counters written only by internal/core/ledger.go, no Telemetry interface in core):" >&2
    printf '%s\n%s\n%s\n' "$MAPS" "$WRITERS" "$IFACES" >&2
    exit 1
fi
# Guard: the access plane keeps no clock. Every ledger event is dated with a
# tick of the recency clock (Manager.clock), so no non-test file of
# internal/telemetry imports time or names obs.Clock, no non-test file of
# internal/core asks the tracker for a time (telem.Now, AccessNow), and no
# non-test Go names obs.Stopwatch, the monotonic clock only the tracker used.
CLOCKED=$( (grep -nE '^[[:space:]]*(import[[:space:]]+)?"time"|obs\.Clock' internal/telemetry/*.go | grep -v '_test\.go:' || true
    grep -nE 'telem\.Now|AccessNow' internal/core/*.go | grep -v '_test\.go:' || true
    grep -rn 'obs\.Stopwatch' --include='*.go' . | grep -v '_test\.go:' || true) )
if [ -n "$CLOCKED" ]; then
    echo "the access plane reads a clock (want every ledger event dated with Manager.clock):" >&2
    printf '%s\n' "$CLOCKED" >&2
    exit 1
fi
# Guard: a cluster's donor copy is one record with one rule. cs.retained — the
# one payload a record names on its donors: what a reload fetches, and the
# copy a clean swap-out leaves on — is assigned in internal/core/state.go
# (anchor, forget, rehome) and in no other non-test file; a reload tells no
# donor to drop anything (no dropAll( in swapin.go: the rotation in
# swapOut.finish is where a stale copy goes); and the knob that used to keep
# the copy without using it is gone from every non-test Go file.
ANCHORS=$(grep -lE 'cs\.retained(\.[[:alnum:]_]+)*[[:space:]]*(,[^=;]*)?=[^=]' internal/core/*.go | grep -v '_test\.go$' || true)
RELOADDROPS=$(grep -n 'dropAll(' internal/core/swapin.go || true)
KNOBS=$(grep -rnE '[kK]eepOnReload' --include='*.go' . | grep -v '_test\.go:' || true)
if [ "$ANCHORS" != "internal/core/state.go" ] || [ -n "$RELOADDROPS" ] || [ -n "$KNOBS" ]; then
    echo "retained copy forked (want cs.retained assigned only in internal/core/state.go, no dropAll( in swapin.go, no KeepOnReload):" >&2
    printf '%s\n%s\n%s\n' "$ANCHORS" "$RELOADDROPS" "$KNOBS" >&2
    exit 1
fi
# Guard: every shipment decodes on its own. Delta re-shipment — a payload that
# fetches a base from its donor to decode — stays deleted: no non-test Go file
# names its format, flag, codec, base fetcher or negotiation, or the "delta"
# format string.
DELTA=$(grep -rnE 'FormatDelta|flagDelta|FetchBase|negotiateDelta|deltaCodec|"delta"' --include='*.go' . | grep -v '_test\.go:' || true)
if [ -n "$DELTA" ]; then
    echo "delta re-shipment is back (every shipment must decode on its own):" >&2
    echo "$DELTA" >&2
    exit 1
fi
# Guard: one file knows how a heap.Value is laid out. No non-test Go file but
# internal/heap/value.go imports unsafe; everything else reads a Value through
# its accessors (Int, Str, BorrowBytes, List, ...), so the representation can
# change without touching a caller.
UNSAFE=$(grep -rlE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"unsafe"' --include='*.go' . | grep -v '_test\.go$' | grep -v '^\./internal/heap/value\.go$' || true)
if [ -n "$UNSAFE" ]; then
    echo "unsafe imported outside internal/heap/value.go (read a heap.Value through its accessors instead):" >&2
    echo "$UNSAFE" >&2
    exit 1
fi
# Guard: a cluster serialises through one pair of heap ends. Checkpoints and
# the per-object baseline write with wire.Encoder.EncodeObjects and read back
# with wire.Stage + Installer.Install, so no non-test file of internal/core or
# internal/baseline builds or parses an xmlcodec.Doc itself; and the
# writer-based XML encode surface (EncodeBuffer, EncodeTo) stays deleted from
# every Go file.
DOCENDS=$(grep -nE 'xmlcodec\.(EncodeObjects|EncodeObject|Decode)\(' internal/core/*.go internal/baseline/*.go | grep -v '_test\.go:' || true)
WRITERS=$(grep -rnwE 'EncodeBuffer|EncodeTo' --include='*.go' . || true)
if [ -n "$DOCENDS" ] || [ -n "$WRITERS" ]; then
    echo "second serialization path (encode with wire.Encoder.EncodeObjects, restore with wire.Stage + Installer.Install):" >&2
    printf '%s\n%s\n' "$DOCENDS" "$WRITERS" >&2
    exit 1
fi
# Guard: an invoker owns its call frames. A method body's heap.Call comes from
# its invoker's heap.Frames, one reused per nesting depth, so no non-test Go
# file outside internal/heap builds one: a heap.Call literal allocates per
# dispatch again.
CALLLITS=$(grep -rnE 'heap\.Call[[:space:]]*\{' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/heap/' || true)
if [ -n "$CALLLITS" ]; then
    echo "heap.Call built outside internal/heap (dispatch through heap.Frames.Enter instead):" >&2
    echo "$CALLLITS" >&2
    exit 1
fi
# Guard: a method returns into its frame. A result slice literal in a method
# body allocates per dispatch; call.Return puts the results in the frame's
# arena instead. No non-test Go file outside benchmark/ (whose Task class keeps
# the old form, which Caller still accepts) returns a heap.Value literal.
RESULTLITS=$(grep -rnE 'return[[:space:]]+\[\]heap\.Value[[:space:]]*\{' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./benchmark/' || true)
if [ -n "$RESULTLITS" ]; then
    echo "method result built as a slice literal (return call.Return(...) instead):" >&2
    echo "$RESULTLITS" >&2
    exit 1
fi
# Guard: one class plane. A class, hand-built or emitted by obicomp, is its
# field layout and its method table: Class.Invoke dispatches through that
# table, and the one generic field loop (Encoder.walk, readBody) writes and
# reads every frame's field sections. No Go file names a second dispatch plane
# bound to a class or a per-class wire codec beside the generic loop.
PLANES=$(grep -rnE 'ClassOps|BindOps|ClassCodec|WireCodec' --include='*.go' . || true)
if [ -n "$PLANES" ]; then
    echo "second class plane (build every class with heap.NewClass + AddMethod; frames go through the generic field loop):" >&2
    echo "$PLANES" >&2
    exit 1
fi
# Guard: the swap path sorts without reflection. sort.Slice boxes its slice
# and builds a reflective swapper, two allocations per call (it once sorted
# the inbound-proxy snapshot of every swap-out and swap-in; the commits now
# point a cluster's inbound list in place, in the table hold that moves it);
# slices.Sort and slices.SortFunc allocate nothing. No non-test file of
# internal/core or internal/heap calls sort.Slice.
SORTSLICE=$(grep -nE 'sort\.Slice(Stable)?\(' internal/core/*.go internal/heap/*.go | grep -v '_test\.go:' || true)
if [ -n "$SORTSLICE" ]; then
    echo "sort.Slice on the swap path (use slices.Sort or slices.SortFunc):" >&2
    echo "$SORTSLICE" >&2
    exit 1
fi
# Guard: the collector does not hash. The heap's residents live in one
# id-keyed objTable (internal/heap/objtable.go): the mark phase resolves a
# reference through its open-addressed index and the sweep walks its dense
# resident list. No non-test Go file of internal/heap keeps a Go map from
# ObjID to *Object beside it.
OBJMAPS=$(grep -nE 'map\[ObjID\][[:space:]]*\*Object' internal/heap/*.go | grep -v '_test\.go:' || true)
if [ -n "$OBJMAPS" ]; then
    echo "Go map of heap objects in internal/heap (keep residents in the objTable):" >&2
    echo "$OBJMAPS" >&2
    exit 1
fi
# Guard: one eviction walk. Victims ship one at a time in ranked order through
# SwapOutVictims, the walk the evictor and the policy swap-out action share.
# The worker pool, its parallelism knobs, the shard interleaver and the
# per-shard liveness marks stay deleted from non-test Go outside benchmark/,
# and internal/core/evict.go starts no goroutine.
POOL=$(grep -rnwE 'SwapOutMany|EvictParallelism|EvictOptions|ShardEvictions?|interleaveByShard' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./benchmark/' || true)
EVICTGO=$(grep -nE '^[[:space:]]*go[[:space:]]' internal/core/evict.go || true)
if [ -n "$POOL" ] || [ -n "$EVICTGO" ]; then
    echo "second eviction path (ship victims one at a time through SwapOutVictims; no worker pool, parallelism knob or per-shard mark):" >&2
    printf '%s\n%s\n' "$POOL" "$EVICTGO" >&2
    exit 1
fi
# Guard: the victim walk selects, it does not sort. SwapOutVictims gathers the
# candidates unsorted, orders them as a binary heap and pops victims only
# while enough asks for one more; a sort of every resident cluster on every
# fault (rankVictims, once) stays off the eviction path: internal/core/evict.go
# calls no slices.Sort* and names no rankVictims.
EVICTSORT=$(grep -nE 'slices\.Sort|rankVictims' internal/core/evict.go || true)
if [ -n "$EVICTSORT" ]; then
    echo "the victim walk sorts (gather the candidates, heapifyVictims, popVictim until enough):" >&2
    echo "$EVICTSORT" >&2
    exit 1
fi
# Guard: the collector reports what it reclaimed one way. The swept list the
# heap hands its owner's purge is its only report, and Manager.reclaimed
# purges every manager record of a swept object from it under the runtime
# lock. Per-object finalizers, weak
# references, the manager's bound finalizer values, the membership-only
# compact pass and the drop-retry knob stay deleted from non-test Go outside
# benchmark/.
RECLAIM=$(grep -rnE 'OnFinalize|finalizers|WeakRef|finalProxy|func \(m \*Manager\) compact|SetDropRetryLimit' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./benchmark/' || true)
if [ -n "$RECLAIM" ]; then
    echo "second reclamation report (purge manager records from the swept list in Manager.reclaimed; no finalizers, weak refs or retry knob):" >&2
    echo "$RECLAIM" >&2
    exit 1
fi
# Guard: one logger. Every component that logs takes a *slog.Logger from the
# standard library's log/slog; the hand-rolled internal/obs/log package stays
# deleted, so no Go file, test files included, imports it or names its olog
# alias.
OLOG=$(grep -rnE '"objectswap/internal/obs/log"|(^|[^[:alnum:]_])olog\.' --include='*.go' . || true)
if [ -n "$OLOG" ]; then
    echo "second logger (log through a *slog.Logger from log/slog):" >&2
    echo "$OLOG" >&2
    exit 1
fi
# Guard: the proxy is its own record. A swap-cluster-proxy's source and
# ultimate target are its own fields, a cluster's inbound proxies and outbound
# edge counts are slices on its record, and an
# object-fault proxy's remote identity is its $remote field. No non-test file
# of internal/core declares a map of per-cluster maps or a Manager map keyed
# by proxy id (the deleted proxyRecs and objProxyMeta).
PROXYRECS=$(grep -nE 'map\[ClusterID\]map\[|proxyRecs|objProxyMeta|proxyRecord' internal/core/*.go | grep -v '_test\.go:' || true)
if [ -n "$PROXYRECS" ]; then
    echo "second proxy record (read a proxy's source and target from its fields; list it on its target cluster's record):" >&2
    echo "$PROXYRECS" >&2
    exit 1
fi
# Guard: membership is kept once. A cluster's record lists its members as
# ascending id runs (clusterState.members), resident or swapped, and a
# resident member's header word names its cluster (heap.Object.Owner); no
# non-test file of internal/core keeps a per-object membership record
# (objInfo, or a map from an object id to a cluster, a record or a class), a
# per-cluster member set (objects map[, .objects[, cs.objects), or a member
# table of the retained copy's own (kept.members, retained.members).
MEMBERSETS=$(grep -nE 'objInfo|map\[heap\.ObjID\](ClusterID|\*?clusterState|uint32)|objects map\[|\.objects\[|cs\.objects|kept\.members|retained\.members' internal/core/*.go | grep -v '_test\.go:' || true)
if [ -n "$MEMBERSETS" ]; then
    echo "second membership record (list members in clusterState.members; read a resident's cluster from its header):" >&2
    echo "$MEMBERSETS" >&2
    exit 1
fi
# Guard: a proxy is born complete, and pointed where it is listed. A mint
# (newProxy) allocates a proxy with every slot set from its initial values,
# writes its header word and lists it (enlist) in one hold: nothing on the
# mint path — newProxy, and enlist, aim and countEdge, which it calls before
# it returns — writes a proxy slot (setProxySlot, SetFieldAs, SetField,
# SetFieldByName) or calls point. A listed proxy's target slot is written by
# clusterTable.point alone (internal/core/manager.go), which only retarget (a
# cursor step) and settle (internal/core/state.go, as a commit moves the
# cluster) call, so a proxy's target and its cluster's residency change in one
# hold of the runtime lock. No other non-test file of internal/core writes
# slotTarget, and the copied-list patch (patchInbound, rt.patching,
# inboundProxies) and the lock-free pointProxy stay deleted.
CORESRC=$(ls internal/core/*.go | grep -v '_test\.go$')
INFUNC='FNR == 1 { fn = "" } /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[([].*/, "", fn) } /^[[:space:]]*\/\// { next }'
MINTWRITES=$(awk "$INFUNC"' fn ~ /^(newProxy|enlist|aim|countEdge)$/ && /setProxySlot\(|SetFieldAs\(|SetField(ByName)?\(|\.point\(/ { print FILENAME ":" FNR ": " fn }' $CORESRC)
POINTERS=$(awk "$INFUNC"' /\.point\(/ { print FILENAME ":" fn }' $CORESRC | sort -u)
TARGETS=$(grep -nE '(^|[^[:alnum:]_])slotTarget[[:space:]]*,' internal/core/*.go | grep -v '_test\.go:' | grep -v '^internal/core/manager\.go:' || true)
PATCHES=$(grep -nE 'patchInbound|rt\.patching|inboundProxies|pointProxy' internal/core/*.go | grep -v '_test\.go:' || true)
if [ -n "$MINTWRITES" ] || [ "$POINTERS" != "$(printf 'internal/core/manager.go:retarget\ninternal/core/state.go:settle')" ] || [ -n "$TARGETS" ] || [ -n "$PATCHES" ]; then
    echo "a mint writes its proxy after the allocation, or a proxy is pointed outside the hold that lists it (allocate it complete in newProxy; re-aim it through clusterTable.point from retarget or settle only):" >&2
    printf '%s\n%s\n%s\n%s\n' "$MINTWRITES" "$POINTERS" "$TARGETS" "$PATCHES" >&2
    exit 1
fi
# Guard: a collection's swept list has one lifetime and one reader. Every
# pass hands it to its heap's owner's purge (heap.Owner.Purge), pools the
# swept blocks once the purge returns and forgets the list, so the list and
# the objects in it are valid only during that call. No non-test Go outside
# internal/heap and the runtime's purge (internal/core/gcint.go: purge,
# reclaimed, sweepSwapped) takes a swept list or reads a swept report off a
# collection's result (the deleted CollectStats.Swept), comment lines aside.
# And the runtime is the heap's one owner: the one non-test registration,
# Heap.RegisterOwner, is made in core.NewRuntime.
SWEPT=$(grep -rnE '\.Swept([^[:alnum:]_]|$)|swept[[:space:]]+\[\]\*(heap\.)?Object|Purge[[:space:]]*:' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./internal/heap/|^\./internal/core/gcint\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
OWNERS=$(grep -rn '\.RegisterOwner(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
INNEW=$(awk '/^func NewRuntime\(/ { in_new = 1 } in_new && /\.RegisterOwner\(/ { print FILENAME ":" FNR } in_new && /^}/ { in_new = 0 }' internal/core/core.go)
if [ -n "$SWEPT" ] || [ "$(printf '%s\n' "$OWNERS" | grep -c .)" != 1 ] || [ "$(printf '%s\n' "$OWNERS" | cut -d: -f1,2)" != "./$INNEW" ]; then
    echo "swept list read outside internal/heap and the runtime's purge, or the heap's owner registered elsewhere than once in core.NewRuntime:" >&2
    printf '%s\n%s\n' "$SWEPT" "$OWNERS" >&2
    exit 1
fi
# Guard: one way to reach a heap (DESIGN §6). A swapping runtime hands its
# heap out only inside its hold (Held.Heap, in Runtime.Locked), a direct
# runtime only inside WithHeap; System.Heap stays for the benchmark's atomic
# reads. No other non-test Go declares a Heap() method.
HEAPS=$(grep -rnE '^func \([^)]*\) Heap\(\)' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./internal/core/dispatch\.go:[0-9]+:func \(h \*Held\) Heap\(\)|^\./objectswap\.go:[0-9]+:func \(s \*System\) Heap\(\)' || true)
if [ -n "$HEAPS" ]; then
    echo "a heap reached outside its owner's hold (use Runtime.Locked and Held.Heap, or DirectRuntime.WithHeap):" >&2
    echo "$HEAPS" >&2
    exit 1
fi
# Guard: host references are roots the runtime names (DESIGN §6c). What a
# call hands to host code is kept through the owner's roots (the runtime's
# hand and Scope, handed to every pass by heap.Owner.Roots), not by a grace
# the collector ages. No non-test Go names the deleted nursery, its grace
# setter or toucher, or the cycle count a young pass burnt.
NURSERY=$(grep -rniE 'nursery|pressureCycles' --include='*.go' . | grep -v '_test\.go:' || true)
if [ -n "$NURSERY" ]; then
    echo "collection grace is back (keep host references as roots: core.Runtime.Scope and the hand-off):" >&2
    echo "$NURSERY" >&2
    exit 1
fi
# Guard: one runtime lock, and the swapping manager keeps each fact once. The
# runtime is one monitor: internal/core has one lock, Runtime.mu (core.go),
# which guards the heap, the cluster table and everything beside them, and
# internal/heap has none of its own but the class registry's (registry.go), which
# off-lock decoders read, and the direct runtime's (runtime.go), the floor's
# owner lock. Every swap-cluster-proxy is an instance of one class, and a
# replacement-object holds its outbound references and its cluster's id, not
# copies of the record's key and replica set. No non-test Go of internal/core
# or internal/heap mentions another sync.Mutex or RWMutex, or names the
# per-class proxy classes, the ranking lock or the copied fields.
MUTEXES=$(grep -nE 'sync\.(RW)?Mutex' internal/core/*.go internal/heap/*.go | grep -v '_test\.go:' | sed -E 's/:[0-9]+:[[:space:]]*/ /; s/[[:space:]]+sync\..*//' || true)
COPIES=$(grep -nwE 'appClass|proxyClassPrefix|rankMu|fldKey|fldStore' internal/core/*.go | grep -v '_test\.go:' || true)
if [ "$MUTEXES" != "$(printf 'internal/core/core.go mu\ninternal/heap/registry.go mu\ninternal/heap/runtime.go mu')" ] || [ -n "$COPIES" ]; then
    echo "a lock beside the runtime lock, or swapping-manager state kept twice (want Runtime.mu alone in internal/core and only Registry's and DirectRuntime's mutexes in internal/heap; one proxy class; no key or replica set on the replacement-object):" >&2
    printf '%s\n%s\n' "$MUTEXES" "$COPIES" >&2
    exit 1
fi
# Fault-storm smoke: 64 goroutines faulting 8 swapped clusters must issue
# exactly 8 donor fetches (single-flight coalescing), race-clean at
# GOMAXPROCS 1 and 4.
go test -race -run '^TestFaultStormCoalesces$' -count=1 -cpu 1,4 ./internal/core/
# Prefetch-window smoke, ten times under the race detector: a cluster stays in
# the task set while its prefetch runs, a demand fault that joins the flight
# takes exactly one hit in either order and records how long it parked, and a
# chase over a gated donor keeps exactly two reads in flight with the head as
# its one demand fault. The commit-window tests ride along: a mint or a cursor
# step between a swap's heap work and its commit, and a collection between a
# proxy's allocation and its listing, leave the invariants whole. So do the
# tests of the runtime lock: a collection or a mint driven from a second
# goroutine into a mint's or a swap-in's commit window waits for it, and the
# proxy and the reserved cluster in the window survive
# (TestMintWindowIsClosed, TestCommitWindowIsClosed); a method body whose
# demand fault lets go of the lock mid-method, while a prefetch worker takes
# it and installs, returns the right object (TestReentryAcrossADemandFault);
# and a walker's dispatch frames and the young passes of prefetch workers
# whose swap-ins evict share the invocation stack race-free
# (TestWalkerAgainstEvictingPrefetch, a thousand times below). So do the
# stale-holder tests: one collection and a mint at a mint's yield point,
# after its listing, reissue its block as another proxy, and the first mint
# mints again — an enlist or retarget under any stale id writes nothing into
# it; a collection there purges the fully listed proxy from every list, and
# the re-mint is listed once (TestSweepAtMintPurgesTheListedProxy); a mint
# whose allocation's evictor swaps its target's cluster out is minted again,
# aimed at the replacement-object (TestMintWhoseEvictorMovesHome); the
# shared-proxy index's get-or-insert, with a drop, a set or a grow between
# its miss and its write, agrees with a Go map (TestKeyTableMatchesMap); a
# replacement-object's block held across its swap-in and reissued to another
# cluster takes no write either
# (TestStaleReplacementHolderRefused). So do the reuse-hazard tests of the fault path: a
# flight that waiters joined is never handed to a later leader, so each
# waiter resumes with its own leader's result while the next fault on the
# cluster is already in flight (TestJoinedFlightIsNotReused); an attempt
# context whose Done a store asked for closes when its attempt ends and is
# never handed out again, while the transport's timeout, timeout-exhaustion
# and caller-cancellation tests and the 64-goroutine fault storm pass
# unmodified over the reused attempt contexts and flights. So does the
# lifetime test of the handed-over frames: a chase whose clusters two
# prefetch workers reload concurrently with its demand faults leaves every
# title intact after three collections (TestReloadedStringsOutliveTheFetch).
# So do the shipments, whose first put runs on the caller's goroutine and
# whose extra replicas run on goroutines of their own: the placement package
# fifty times, and the replicated (K > 1) swaps of the root package's
# durability tests ten. So does the young pass: a walker's stores into old
# objects, through the runtime, run the write barrier against the young passes
# of prefetch workers whose swap-ins evict
# (TestYoungPassAgainstConcurrentWrites), and against full and young passes on
# the test's goroutine (TestCollectAgainstConcurrentFieldWrites); and on
# random heaps a young pass sweeps only garbage, nothing a full pass keeps,
# and leaves what the full pass would once a full pass follows
# (TestPropYoungPassSweepsOnlyGarbage, internal/heap); and after every step of
# a seeded mutator the resident list's young tail holds everything that
# appeared since the last pass, everything before it is marked, and a young
# pass sweeps exactly what a scan of the whole list finds
# (TestYoungTailAfterEveryStep, internal/heap). So do the victim
# walks: one visits exactly the ranking SelectVictims reports under each
# strategy, skipping active and busy victims without retrying them, and one
# that enough stops after 1 or 3 victims swaps out exactly that many, in
# that order (TestSwapOutVictimsWalksTheRanking), two run against each other and against
# reloads (TestConcurrentVictimWalks), and an edge count at zero waits for
# the next purge, its record listed for it once (TestZeroEdgeWaitsForThePurge).
# Replication reaches both heaps through their owners' locks: a replication
# fault installs, pins and replaces proxies beside prefetch workers swapping
# in, another goroutine swapping and collecting and a third pushing dirty
# replicas (TestReplicationFaultBesidePrefetchWorkers), and the master serves
# shipments and updates while its DirectRuntime writes the graph
# (TestMasterServesBesideItsRuntime). A reload whose room another install
# took while its evictor had the lock let go evicts again
# (TestReloadRoomTakenDuringEviction). A collection host code runs on the
# runtime's heap under Locked purges the manager's records of what it swept
# (TestHeapCollectionPurgesTheManager), and, run while a method is parked on
# a demand fault with the lock let go, keeps the parked call's argument
# (TestHeapCollectionKeepsParkedFrames). All run on the core line below.
# So do the host roots, on the root package's line: an object a Go variable
# alone holds survives every eviction inside its scope, its own cluster's
# swap-out and reload included, and dies with its donor copy at the first
# pass after the scope closes (TestScopeHoldsAHostReference); two goroutines
# build lists backwards, each in its own cluster and scope, while a third
# forces evictions and prefetches (TestScopesBuildBesideEvictions). A member
# written while its cluster's swap-out is parked in the ship phase keeps its
# value: the commit refuses and the write survives the reload
# (TestWriteDuringShipIsKept, core line).
go test -race -count=10 -run '^(TestTriggerWhileRunningDoesNotRequeue|TestTriggerOvertakingANoopTaskRunsItAgain|TestJoinCountsOneHit|TestJoinedFlightIsNotReused)$' ./internal/fault/
go test -race -count=10 -run '^(TestArmedAttemptContextIsNotReused|TestAttemptContextReportsParentFirst|TestPerAttemptTimeoutIsRetriedAsUnavailable|TestTimeoutExhaustionSurfacesAsUnavailableAndTripsBreaker|TestCallerCancellationFailsFastWithoutBlame)$' ./internal/transport/
go test -race -count=10 -run '^(TestPrefetchWindowOverlap|TestReplicatedSwapSurvivesDonorLoss|TestDetachDeviceKicksRepair|TestScopeHoldsAHostReference|TestScopesBuildBesideEvictions)$' .
go test -race -count=50 ./internal/placement/
go test -race -count=10 -run '^(TestTriggerPrefetchAllocatesNothing|TestPrefetchHitRecordsParkedTime|TestCommitWindow|TestSweepBeforeEnlist|TestReissueBeforeEnlist|TestSweepAtMintPurgesTheListedProxy|TestMintWhoseEvictorMovesHome|TestKeyTableMatchesMap|TestReissuedProxyBlockRefused|TestStaleReplacementHolderRefused|TestFaultStormCoalesces|TestReloadedStringsOutliveTheFetch|TestConcurrentSelectVictims|TestYoungPassAgainstConcurrentWrites|TestCollectAgainstConcurrentFieldWrites|TestPropYoungPassSweepsOnlyGarbage|TestYoungTailAfterEveryStep|TestSwapOutVictimsWalksTheRanking|TestConcurrentVictimWalks|TestZeroEdgeWaitsForThePurge|TestMintWindowIsClosed|TestCommitWindowIsClosed|TestReentryAcrossADemandFault|TestWalkerAgainstEvictingPrefetch|TestReplicationFaultBesidePrefetchWorkers|TestMasterServesBesideItsRuntime|TestReloadRoomTakenDuringEviction|TestHeapCollectionPurgesTheManager|TestHeapCollectionKeepsParkedFrames|TestWriteDuringShipIsKept)$' ./internal/core/ ./internal/heap/ ./internal/replication/
# The walker against the evicting prefetch workers a thousand times under the
# race detector (about 10 s): the invocation stack was written with no lock
# beside the workers' passes, which read it, until the runtime was one monitor.
go test -race -count=1000 -run '^TestWalkerAgainstEvictingPrefetch$' ./internal/core/
# The lock-count build once over internal/core, internal/heap, the facade, the
# policy engine and replication: the runtime lock counts its acquisitions, the cluster
# table's caller-locked entry points assert it is held, and so do the heap's
# entry points on every runtime (heap.Owner.Held): the heap's one way in is
# Held.Heap inside Runtime.Locked, and a heap read or write from outside the
# hold panics, in the tests' own set-up too. The heap-reached collection
# tests (TestHeapCollectionPurgesTheManager,
# TestHeapCollectionKeepsParkedFrames) run under the tag too. The invocation stack is held
# to one dispatcher: a goroutine that opens a frame while another's frames
# are on the stack panics (TestSecondDispatcherPanics: a Field while a
# method is parked on a demand fault). TestLockAcquisitions: a
# resident B2 step of Figure 5 takes at most 2 acquisitions and a B1 step at
# most 3 (the floor, heap.DirectRuntime, takes 2), down from 13 before the
# swap, table and heap locks became one.
go test -tags lockcount -count=1 ./internal/core/ ./internal/heap/ . ./internal/policy/ ./internal/replication/
# The warm victim walk's allocation budget (TestEvictionBudget/warm-walk,
# 0 objects besides its swap-outs) a thousand times under the tag (about
# 16 s): it reads the process's malloc count, and the Go runtime's own
# goroutines allocated in its window after a collection (the unique
# package's cleanup, a mark worker's sudog) about once in two thousand runs
# until the walk ran with the collector off.
go test -tags lockcount -count=1000 -run '^TestEvictionBudget$' ./internal/core/
# The access ledger's prefetch-hit step a thousand times at the default
# GOMAXPROCS (about 15 s): a prefetch task left running by one step once
# swallowed the next step's trigger about once in a thousand runs, and a
# Tier-1 test that flakes makes every later gate noisy. The engine's side of
# that flake, a trigger overtaking a running no-op task, is pinned
# deterministically by TestTriggerOvertakingANoopTaskRunsItAgain above.
go test -count=1000 -run '^TestAccessLedger$' .
