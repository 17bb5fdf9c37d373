#!/bin/sh
# Load-harness smoke gate: build saserve and saload, start the server on
# an ephemeral port with a small dataset, spot-check served results
# against the dataset checksums, then drive it with 8 concurrent clients
# for 2 seconds. Fails on any 5xx, zero throughput, or a p99 above a
# deliberately generous bound (this is a correctness/liveness gate, not a
# perf gate — the bench gate owns performance).
#
# Usage: scripts/load_smoke.sh [duration] [concurrency]
# Called by `make load-smoke`, locally and in CI.
set -eu

DURATION="${1:-2s}"
CONCURRENCY="${2:-8}"
MAX_P99_MS="${LOAD_SMOKE_MAX_P99_MS:-10000}"
ROWS="${LOAD_SMOKE_ROWS:-200000}"
VERTICES="${LOAD_SMOKE_VERTICES:-5000}"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "load-smoke: building saserve and saload"
go build -o "$WORK/saserve" ./cmd/saserve
go build -o "$WORK/saload" ./cmd/saload

"$WORK/saserve" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
    -rows "$ROWS" -vertices "$VERTICES" -cache 1024 2>"$WORK/saserve.log" &
SERVER_PID=$!

# Wait for the server to publish its bound address.
i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "load-smoke: server never came up" >&2
        cat "$WORK/saserve.log" >&2
        exit 1
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "load-smoke: server exited during startup" >&2
        cat "$WORK/saserve.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR="$(cat "$WORK/addr")"
echo "load-smoke: server on $ADDR (pid $SERVER_PID)"

# Spot check + load + gates: zero 5xx, non-zero qps, generous p99 bound.
# The report asserts at least 2 concurrent in-flight queries were
# observed — the whole point of the scheduler.
"$WORK/saload" -addr "$ADDR" -duration "$DURATION" -concurrency "$CONCURRENCY" \
    -spot-check -report saload_report.json \
    -max-5xx 0 -min-qps 1 -max-p99-ms "$MAX_P99_MS"

MAX_INFLIGHT="$(sed -n 's/.*"max_in_flight_observed": \([0-9]*\).*/\1/p' saload_report.json)"
if [ -z "$MAX_INFLIGHT" ] || [ "$MAX_INFLIGHT" -lt 2 ]; then
    echo "load-smoke: FAILED: max in-flight observed was ${MAX_INFLIGHT:-0}, want >= 2 concurrent queries" >&2
    exit 1
fi

# Repeated-query phase: the default mix has a fixed body set, so with the
# result cache on (saserve -cache) the second run must land server-side
# hits. -min-cache-hits turns that into a hard gate.
echo "load-smoke: repeated-query phase (result cache)"
"$WORK/saload" -addr "$ADDR" -duration 1s -concurrency "$CONCURRENCY" \
    -spot-check=false -report saload_cache_report.json \
    -max-5xx 0 -min-qps 1 -min-cache-hits 1

# Profiles phase: the server profiles every query, so a run spread over two
# tenants must publish profiles to the slow-query log and leave per-tenant
# RED series behind.
echo "load-smoke: profiles phase (slow-query log, per-tenant series)"
"$WORK/saload" -addr "$ADDR" -duration 1s -concurrency "$CONCURRENCY" \
    -agg-only -spot-check=false -tenants 2 -report saload_profile_report.json \
    -max-5xx 0 -min-qps 1 -min-slowlog-entries 1 -min-tenant-series 2

# Coalescing phase: a second server with the result cache OFF, so a
# duplicate plan is answered only by executing or by waiting on an
# identical plan already in flight. Many clients hammering the small
# table-scan mix must coalesce: -min-coalesced asserts at least one query
# was answered by a flight, and the qps floor catches a flight table that
# serializes instead of sharing.
echo "load-smoke: coalescing phase (cache off, high-concurrency duplicate plans)"
SHARED_CONCURRENCY="${LOAD_SMOKE_SHARED_CONCURRENCY:-32}"
"$WORK/saserve" -addr 127.0.0.1:0 -addr-file "$WORK/addr2" \
    -rows "$ROWS" -vertices 0 -cache 0 2>"$WORK/saserve2.log" &
SERVER2_PID=$!
cleanup2() {
    if [ -n "$SERVER2_PID" ]; then
        kill "$SERVER2_PID" 2>/dev/null || true
        wait "$SERVER2_PID" 2>/dev/null || true
    fi
}
trap 'cleanup2; cleanup' EXIT INT TERM

i=0
while [ ! -s "$WORK/addr2" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "load-smoke: coalescing server never came up" >&2
        cat "$WORK/saserve2.log" >&2
        exit 1
    fi
    if ! kill -0 "$SERVER2_PID" 2>/dev/null; then
        echo "load-smoke: coalescing server exited during startup" >&2
        cat "$WORK/saserve2.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR2="$(cat "$WORK/addr2")"
echo "load-smoke: coalescing server on $ADDR2 (pid $SERVER2_PID)"

"$WORK/saload" -addr "$ADDR2" -duration 1s -concurrency "$SHARED_CONCURRENCY" \
    -agg-only -spot-check=false -report saload_coalesce_report.json \
    -max-5xx 0 -min-qps 1 -min-coalesced 1

echo "load-smoke: PASSED (reports in saload_report.json, saload_cache_report.json, saload_profile_report.json, saload_coalesce_report.json)"
