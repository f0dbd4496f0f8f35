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
# - TestSmoke (internal/opshttp): a real listener on :0 answers 200 on
#   /metrics, /healthz, /debug/traces, /debug/events, /debug/heat, /debug/wss.
# - TestMetricsPageParses (internal/opshttp): the /metrics page survives a
#   strict Prometheus text-format parser — adversarial label values,
#   histograms and the telemetry families included.
# - TestHeatRankingMatchesEvictionOrder, TestFaultCauseAttribution,
#   TestThrashHealthFlips (.): heat classes and the coldest-first victim order
#   are two readings of one ledger, fault causes are attributed, and the
#   thrash health check flips degraded and recovers.
# - TestCodecBenchSmoke (internal/wire): the binary codec's decode/encode time
#   ratio stays under half the XML asymmetry (17.54) it was built to close,
#   and one decode stays within its allocation budget.
# - TestGenBenchSmoke (internal/schema/gentest): decoding through an obicomp
#   codec allocates strictly less than the generic path, and generated
#   dispatch allocates no more than the closure table it replaces.
# - TestEvictionBudget (internal/core): an eviction pass of k >= 2 victims
#   runs exactly one collection and every victim's bytes are back when its
#   swap-out returns, sequential and Parallelism 4; a collection that reclaims
#   nothing allocates nothing.
# - TestSwapRoundTripBudget (internal/core): one SwapOut + SwapIn of a written
#   32-object x 128 B cluster in the binary format allocates at most 6x the
#   frame it ships, and the encode side nothing that grows with the object
#   count once the encoder pool is warm; an unwritten one leaves with no
#   store call, 21 allocations and at most 2300 B at any size.
# - TestCollectAllocatesNothingOnUnchangedHeap (internal/heap).
# - TestFaultBenchSmoke (.): a pointer chase with the prefetcher on takes at
#   least one demand fault and serves at least half its cluster boundaries
#   from the prefetch inventory.
# - TestTriggerPrefetchAllocatesNothing (internal/core): a prefetch trigger —
#   window walk, enqueue, task — allocates nothing.
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
# Guard: the sharded core must never ship pinned to a single shard. Only
# tests may call WithShards(1); core.DefaultShards is what ships.
PINNED=$(grep -rn 'WithShards(1)' --include='*.go' . | grep -v '_test\.go' || true)
if [ -n "$PINNED" ]; then
    echo "sharded core pinned to a single shard outside tests:" >&2
    echo "$PINNED" >&2
    exit 1
fi
# Guard: a cluster moves only through the one transition site. Nothing outside
# internal/core/state.go may assign a record's residency (cs.where = ..., or a
# where: key in a clusterState literal) or add/remove a record of the sharded
# table behind the by-residency tallies; reserve, settle, newClusterState, put
# and drop are the only ways to get a cluster anywhere.
MOVED=$(grep -nE '\.where[[:space:]]*(=[^=]|\+\+|--)|[^[:alnum:]_]where:|\.clusters\[[^]]*\][[:space:]]*=[^=]|delete\([^,]*\.clusters,' \
    internal/core/*.go | grep -v '^internal/core/state\.go:' | grep -v '_test\.go:' || true)
if [ -n "$MOVED" ]; then
    echo "cluster residency or table membership written outside internal/core/state.go:" >&2
    echo "$MOVED" >&2
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
# Guard: a cluster's donor copy is one record with one rule. cs.base — the
# retained copy a clean swap-out leaves on — is assigned in internal/core/state.go
# (anchor, forget, rehome) and in no other non-test file; a reload tells no
# donor to drop anything (no dropAll( in swapin.go: the rotation in
# swapOut.finish is where a stale copy goes); and the knob that used to keep
# the copy without using it is gone from every non-test Go file.
ANCHORS=$(grep -lE 'cs\.base(\.[[:alnum:]_]+)*[[:space:]]*(,[^=;]*)?=[^=]' internal/core/*.go | grep -v '_test\.go$' || true)
RELOADDROPS=$(grep -n 'dropAll(' internal/core/swapin.go || true)
KNOBS=$(grep -rnE '[kK]eepOnReload' --include='*.go' . | grep -v '_test\.go:' || true)
if [ "$ANCHORS" != "internal/core/state.go" ] || [ -n "$RELOADDROPS" ] || [ -n "$KNOBS" ]; then
    echo "retained copy forked (want cs.base assigned only in internal/core/state.go, no dropAll( in swapin.go, no KeepOnReload):" >&2
    printf '%s\n%s\n%s\n' "$ANCHORS" "$RELOADDROPS" "$KNOBS" >&2
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
# Fault-storm smoke: 64 goroutines faulting 8 swapped clusters must issue
# exactly 8 donor fetches (single-flight coalescing), race-clean at
# GOMAXPROCS 1 and 4.
go test -race -run '^TestFaultStormCoalesces$' -count=1 -cpu 1,4 ./internal/core/
# Prefetch-window smoke, ten times under the race detector: a cluster stays in
# the task set while its prefetch runs, a demand fault that joins the flight
# takes exactly one hit in either order and records how long it parked, and a
# chase over a gated donor keeps exactly two reads in flight with the head as
# its one demand fault.
go test -race -count=10 -run '^(TestTriggerWhileRunningDoesNotRequeue|TestJoinCountsOneHit)$' ./internal/fault/
go test -race -count=10 -run '^TestPrefetchWindowOverlap$' .
go test -race -count=10 -run '^(TestTriggerPrefetchAllocatesNothing|TestPrefetchHitRecordsParkedTime)$' ./internal/core/
