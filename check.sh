#!/bin/sh
# Tier-1 verification entrypoint: static checks, formatting, build, tests,
# race tests, coverage on the observability spine, and a one-iteration
# benchmark smoke run (benchmarks must at least execute).
set -eux

UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
go test -race ./...
go test -cover ./internal/obs/ ./internal/core/ ./internal/opshttp/ ./internal/placement/ ./internal/telemetry/
# Ops-surface smoke: a real listener on :0 must answer 200 on /metrics,
# /healthz, /debug/traces, /debug/events, /debug/heat and /debug/wss.
go test -run '^TestSmoke$' -count=1 ./internal/opshttp/
# Exposition gate: the /metrics page must survive a strict Prometheus
# text-format parser — adversarial label values, histograms and the
# telemetry families included.
go test -run '^TestMetricsPageParses$' -count=1 ./internal/opshttp/
# Telemetry-consistency gate: heat classes and the coldest-first victim order
# are two readings of one ledger (a hammered cluster reads hot and is evicted
# last, an idle one cold and first), fault causes must be attributed, and the
# thrash health check must flip degraded and recover.
go test -run '^TestHeatRankingMatchesEvictionOrder$|^TestFaultCauseAttribution$|^TestThrashHealthFlips$' -count=1 .
# Codec-bench smoke: the binary wire codec's decode/encode ns ratio must stay
# far below the XML baseline (~17.54, BENCH_codec.json) and within its
# allocation budget (BENCH_wire.json records the numbers).
go test -run '^TestCodecBenchSmoke$' -count=1 ./internal/wire/
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
# Generated-codec smoke: decoding through an obicomp codec must allocate
# strictly less than the generic path, and generated dispatch must not
# regress past the closure table it replaces (BENCH_obicomp.json records the
# numbers).
go test -run '^TestGenBenchSmoke$' -count=1 ./internal/schema/gentest/
# Shard-soak smoke: the sharded-core soak harness (control and default shard
# counts) must execute at GOMAXPROCS 1 and 4. Full figures: BENCH_shard.json.
go test -bench 'BenchmarkShardSoak' -benchtime=1x -cpu 1,4 -run '^$' .
# Guard: the sharded core must never ship hardcoded to a single shard. Only
# tests and the soak control may pin shards=1; WithShards(0)/Shards:0 means
# "use DefaultShards".
PINNED=$(grep -rnE 'WithShards\(1\)|Shards:[[:space:]]*1([^0-9]|$)|shards[[:space:]]*=[[:space:]]*1([^0-9]|$)' \
    --include='*.go' . | grep -v '_test\.go' || true)
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
# Fault-storm smoke: 64 goroutines faulting 8 swapped clusters must issue
# exactly 8 donor fetches (single-flight coalescing), race-clean at
# GOMAXPROCS 1 and 4.
go test -race -run '^TestFaultStormCoalesces$' -count=1 -cpu 1,4 ./internal/core/
# Eviction-budget gate (host-independent counts): an eviction pass of k >= 2
# victims runs exactly one collection and every victim's bytes are back when
# its swap-out returns, sequential and Parallelism 4; a collection that
# reclaims nothing allocates nothing.
go test -run '^TestEvictionBudget$' -count=1 ./internal/core/
# Swap-allocation budget gate (host-independent counts): one SwapOut + SwapIn
# of a written 32-object x 128 B cluster in the binary format allocates at most
# 8x the frame it ships, and the encode side nothing that grows with the object
# count once the encoder pool is warm; an unwritten one leaves with no store
# call and 21 allocations at any size.
go test -run '^TestSwapRoundTripBudget$' -count=1 ./internal/core/
go test -run '^TestCollectAllocatesNothingOnUnchangedHeap$' -count=1 ./internal/heap/
# Fault-bench smoke (host-independent counts): a pointer chase with the
# prefetcher on must take at least one demand fault and serve at least half
# its cluster boundaries from the prefetch inventory. No wall-clock ratio is
# gated; the hit-vs-fault latencies are the ledger's (go run ./benchmark).
go test -run '^TestFaultBenchSmoke$' -count=1 .
go test -bench . -benchtime=1x -run '^$' ./...
