#!/usr/bin/env sh
# CI entry point. Modes:
#
#   ci.sh              check gofmt, build everything, vet, and run the full
#                      test suite under the race detector (builds run beside
#                      concurrent updaters and BuildMany finishes its indexes
#                      concurrently; -race is the point, not a nicety). Runs
#                      -short, so the crash sweep covers its smoke subset
#                      (every 8th clean crash and every 4th torn point, each
#                      pass ending on its last point). Then vets and tests
#                      the bench/ module.
#   ci.sh sweep        the exhaustive crash-schedule exploration: every fault
#                      point of every scenario in clean, torn and error modes,
#                      plus the fuzz seed corpora. Nightly / on demand.
#   ci.sh overhead     the observability budget gate: fails if the metrics +
#                      progress instrumentation costs > 2% on the E1 build
#                      (wall-clock; run on a quiet machine).
#   ci.sh race         focused race-detector pass over the sharded singletons
#                      (buffer, lock, wal, txn), the read path (cursor
#                      batching, hash cache, zone maps, engine read stress),
#                      and the cross-partition unique protocol (duplicate-key
#                      inserts racing on different shards during a live
#                      unique build) with the dedicated concurrency stress
#                      tests at a high -count so the schedules vary.
#   ci.sh admin-smoke  end-to-end admin endpoint check: run an SF build with
#                      `idxbuild -admin`, poll the live endpoint over HTTP
#                      until the build completes, and assert the terminal
#                      snapshot reports fraction exactly 1.0 with zero
#                      side-file backlog.
#
# Mirrored by .github/workflows/ci.yml.
set -eux

cd "$(dirname "$0")/.."

case "${1:-test}" in
test)
    unformatted=$(gofmt -l .)
    [ -z "$unformatted" ] || { echo "gofmt needed: $unformatted" >&2; exit 1; }
    go build ./...
    go vet ./...
    go test -race -short ./...
    # The cross-shard one-winner race needs many schedules to show; without
    # -race 200 runs take a few seconds.
    go test -count=200 -run TestCrossPartitionUniqueOneWinner ./internal/partition
    # bench/ is its own module, so the root ./... does not reach it.
    (cd bench && go vet ./... && go test ./...)
    ;;
sweep)
    go build ./...
    # NB: -sweep.full is a test-binary flag the go tool doesn't know; it must
    # come AFTER the package path or `go test` runs the root package instead.
    go test -race -timeout 60m -run 'TestCrashSweep|TestReplay' -v ./internal/crashsweep -sweep.full
    go test -run xxx -fuzz FuzzKeyEncOrder -fuzztime 60s ./internal/keyenc
    go test -run xxx -fuzz FuzzWALRoundTrip -fuzztime 60s ./internal/wal
    go test -run xxx -fuzz FuzzZoneMapPrune -fuzztime 60s ./internal/zonemap
    go test -run xxx -fuzz FuzzRunDelta -fuzztime 60s ./internal/extsort
    go test -run xxx -fuzz FuzzNodeImage -fuzztime 60s ./internal/btree
    go test -run xxx -fuzz FuzzTournamentOrder -fuzztime 60s ./internal/extsort
    ;;
overhead)
    ONLINEINDEX_OVERHEAD_GATE=1 go test -run TestMetricsOverheadGate -v -count=1 .
    ;;
race)
    go test -race -count=4 -timeout 20m \
        ./internal/buffer ./internal/lock ./internal/wal ./internal/txn \
        ./internal/btree ./internal/readcache ./internal/zonemap
    go test -race -count=2 -timeout 20m -run 'TestReadPathStress' ./internal/engine
    go test -race -count=300 -timeout 20m -run 'TestCrossPartitionUniqueOneWinner' ./internal/partition
    ;;
admin-smoke)
    go build -o /tmp/onlineindex-idxbuild ./cmd/idxbuild
    addr=127.0.0.1:7071
    url="http://$addr"
    log=/tmp/onlineindex-idxbuild.log
    /tmp/onlineindex-idxbuild -rows 20000 -method sf -updaters 2 \
        -admin "$addr" -linger 30s >"$log" 2>&1 &
    pid=$!
    # Poll the live endpoint until the build's progress reports complete.
    ok=0
    for _ in $(seq 1 300); do
        if curl -fsS "$url/" 2>/dev/null | grep -q '"complete": true'; then
            ok=1
            break
        fi
        sleep 0.2
    done
    [ "$ok" = 1 ] || { cat "$log"; kill "$pid" 2>/dev/null; exit 1; }
    snap=$(curl -fsS "$url/")
    # Terminal assertions: build fraction exactly 1.0 (the "fraction" field
    # right after the build-level "phase" field) and no unapplied side-file
    # entries.
    echo "$snap" | grep -q '"complete": true'
    echo "$snap" | grep -A1 '"phase"' | grep -q '"fraction": 1,'
    echo "$snap" | grep -q '"side_file_backlog": 0'
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    echo "admin-smoke OK"
    ;;
*)
    echo "usage: $0 [test|sweep|overhead|race|admin-smoke]" >&2
    exit 2
    ;;
esac
