#!/usr/bin/env bash
# Alternated in-process A/B of go test benchmarks: a parent revision's test
# binary against this checkout's, for sizing a change before paying for
# bench-pairs. Checks the parent revision out into a git worktree, builds
# each side's test binary for PKG once, then runs ROUNDS rounds of
#   <pkg>.test -test.run '^$' -test.bench BENCH -test.cpu CPU -test.benchtime BENCHTIME -test.timeout 30m
# on each side, alternating which side goes first, from the package's
# directory. Prints every round's benchmark lines as go test prints them
# (custom metrics such as heap-live-MB included), then per benchmark both
# sides' median ns/op, the change's median over the parent's, and how many
# rounds the change was faster. The change side is this checkout as it
# stands, uncommitted edits included.
#
# Usage: scripts/bench_ab.sh PARENT_REV PKG BENCH [ROUNDS] [CPU] [BENCHTIME]
#   e.g. scripts/bench_ab.sh HEAD~1 ./internal/queryd ServedPageRank 5 2 200x
# Called by `make bench-ab PARENT=<rev> PKG=<pkg> BENCH=<regex> [ROUNDS=5]
# [CPU=2] [BENCHTIME=1s]`. Not a CI target — timing on shared runners is not
# evidence.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    echo "usage: $0 PARENT_REV PKG BENCH [ROUNDS] [CPU] [BENCHTIME]" >&2
    exit 2
fi
PARENT="$1"
PKG="$2"
BENCH="$3"
ROUNDS="${4:-5}"
CPU="${5:-2}"
BENCHTIME="${6:-1s}"
case "$PKG" in
./*) ;;
*) PKG="./$PKG" ;;
esac

ROOT="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
cd "$ROOT"
PARENT_SHA="$(git rev-parse --verify "$PARENT^{commit}")"

# .bench_build/ is gitignored.
DIR="$ROOT/.bench_build/ab"
WT="$DIR/parent"
OUT="$DIR/runs.$$"
cleanup() {
    git worktree remove --force "$WT" 2>/dev/null || true
    git worktree prune
    rm -f "$OUT" "$DIR/parent.test" "$DIR/change.test"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
cleanup
mkdir -p "$DIR"
git worktree add --detach --quiet "$WT" "$PARENT_SHA"

(cd "$WT" && go test -c -o "$DIR/parent.test" "$PKG")
go test -c -o "$DIR/change.test" "$PKG"

# run_side SIDE SRC appends "round side benchmark ns/op" lines to $OUT.
run_side() {
    local side="$1" src="$2" output line
    if ! output="$(cd "$src/$PKG" && "$DIR/$side.test" -test.run '^$' -test.bench "$BENCH" \
        -test.cpu "$CPU" -test.benchtime "$BENCHTIME" -test.timeout 30m)"; then
        echo "bench-ab: $side round $round failed:" >&2
        echo "$output" >&2
        exit 1
    fi
    local found=0
    while read -r line; do
        case "$line" in
        Benchmark*ns/op*)
            found=1
            printf '  %-6s %s\n' "$side" "$line"
            echo "$round $side $(printf '%s\n' "$line" | awk '{for (i = 2; i <= NF; i++) if ($i == "ns/op") print $1, $(i-1)}')" >>"$OUT"
            ;;
        esac
    done <<<"$output"
    if [ "$found" -eq 0 ]; then
        echo "bench-ab: no benchmark in $PKG matches $BENCH" >&2
        exit 1
    fi
}

echo "bench-ab: $PKG -bench $BENCH -cpu $CPU -benchtime $BENCHTIME, parent $(git rev-parse --short "$PARENT_SHA") vs this checkout, $ROUNDS rounds"
for round in $(seq 1 "$ROUNDS"); do
    echo "round $round"
    if [ $((round % 2)) -eq 1 ]; then
        run_side parent "$WT"
        run_side change "$ROOT"
    else
        run_side change "$ROOT"
        run_side parent "$WT"
    fi
done

echo
printf '%-40s | %-14s | %-14s | %-8s | %s\n' benchmark 'parent ns/op' 'change ns/op' 'x parent' 'change faster'
awk '
    function median(v, n,    s, i, j, t) {
        for (i = 1; i <= n; i++) s[i] = v[i]
        for (i = 2; i <= n; i++) {
            t = s[i]
            for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
            s[j + 1] = t
        }
        return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
    }
    {
        if (!($3 in seen)) { seen[$3] = 1; names[++k] = $3 }
        if ($2 == "parent") p[$3, $1] = $4; else c[$3, $1] = $4
        if ($1 > rounds) rounds = $1
    }
    END {
        for (b = 1; b <= k; b++) {
            name = names[b]; n = 0; wins = 0
            delete pv; delete cv
            for (r = 1; r <= rounds; r++) {
                if (!((name, r) in p) || !((name, r) in c)) continue
                n++; pv[n] = p[name, r]; cv[n] = c[name, r]
                if (cv[n] < pv[n]) wins++
            }
            pm = median(pv, n); cm = median(cv, n)
            printf "%-40s | %-14.0f | %-14.0f | %-8.3f | %d of %d rounds\n", name, pm, cm, pm ? cm / pm : 0, wins, n
        }
    }' "$OUT"
