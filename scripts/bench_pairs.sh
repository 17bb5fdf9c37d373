#!/usr/bin/env bash
# Paired parent/change runs of one measured-benchmark workload — the
# evidence a performance claim (or a "did not move" claim) needs. Checks
# the parent revision out into a git worktree, then runs
#   bash benchmark/run.sh --workload W --seconds 20 --trace 0 --seed S
# once on each side per pair, alternating which side goes first, with a
# fresh seed per pair (the same seed for both sides of a pair). Prints every
# run, then per end-to-end metric of BENCHMARK.json both sides' quartiles
# and medians, the change's pair wins, and the median shift against the
# parent's quartile distance. The change side is this checkout as it
# stands, uncommitted edits included.
#
# Usage: scripts/bench_pairs.sh WORKLOAD PARENT_REV [PAIRS]
# Called by `make bench-pairs WORKLOAD=… PARENT=<rev> PAIRS=10`. Takes
# about a minute per pair; not a CI target — timing on shared runners is not
# evidence.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 WORKLOAD PARENT_REV [PAIRS]" >&2
    exit 2
fi
WORKLOAD="$1"
PARENT="$2"
PAIRS="${3:-10}"

ROOT="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
cd "$ROOT"
PARENT_SHA="$(git rev-parse --verify "$PARENT^{commit}")"

# .bench_build/ is gitignored; the parent builds with a cache of its own
# inside its worktree, exactly as a fresh checkout would.
WT="$ROOT/.bench_build/pairs/parent"
OUT="$ROOT/.bench_build/pairs/runs.$$"
cleanup() {
    git worktree remove --force "$WT" 2>/dev/null || true
    git worktree prune
    rm -f "$OUT"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
cleanup
mkdir -p "$(dirname "$WT")"
git worktree add --detach --quiet "$WT" "$PARENT_SHA"

# The metric catalogue: one "name better" pair per end-to-end entry.
METRICS="$(sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/p' BENCHMARK.json)"
if [ -z "$METRICS" ]; then
    echo "bench-pairs: no end_to_end metrics found in BENCHMARK.json" >&2
    exit 1
fi

# run_side SIDE DIR SEED appends "pair side metric value" lines to $OUT.
run_side() {
    local side="$1" dir="$2" seed="$3" output line name value
    if ! output="$(bash "$dir/benchmark/run.sh" --workload "$WORKLOAD" --seconds 20 --trace 0 --seed "$seed")"; then
        echo "bench-pairs: $side run (seed $seed) failed" >&2
        exit 1
    fi
    line="${output##*$'\n'}"
    case "$line" in
    *'"correct":true'*) ;;
    *)
        echo "bench-pairs: $side run (seed $seed) did not report correct answers: $line" >&2
        exit 1
        ;;
    esac
    printf '  %-6s' "$side"
    while read -r name _; do
        value="$(printf '%s' "$line" | sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p")"
        if [ -z "$value" ]; then
            echo "bench-pairs: no $name in: $line" >&2
            exit 1
        fi
        echo "$pair $side $name $value" >>"$OUT"
        printf ' %s=%s' "$name" "$value"
    done <<<"$METRICS"
    printf '\n'
}

# Seeds start from the clock, so no series repeats one used while the
# change was being written.
SEED_BASE=$(($(date +%s) % 1000000 * 100))
echo "bench-pairs: $WORKLOAD, parent $(git rev-parse --short "$PARENT_SHA") vs this checkout, $PAIRS pairs, seeds $((SEED_BASE + 1))..$((SEED_BASE + PAIRS))"
for pair in $(seq 1 "$PAIRS"); do
    seed=$((SEED_BASE + pair))
    echo "pair $pair seed $seed"
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$WT" "$seed"
        run_side change "$ROOT" "$seed"
    else
        run_side change "$ROOT" "$seed"
        run_side parent "$WT" "$seed"
    fi
done

echo
printf '%-9s %-6s | %-32s | %-32s | %-16s | %s\n' metric better 'parent q1 / median / q3' 'change q1 / median / q3' 'change wins' 'median shift vs parent q3-q1'
while read -r name better; do
    awk -v metric="$name" -v better="$better" '
        # Quantile by linear interpolation between order statistics.
        function quantile(v, n, q,    h, lo) {
            h = (n - 1) * q + 1; lo = int(h)
            if (lo >= n) return v[n]
            return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) {
                t = dst[i]
                for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
                dst[j + 1] = t
            }
        }
        $3 == metric { if ($2 == "parent") p[$1] = $4; else c[$1] = $4; if ($1 > n) n = $1 }
        END {
            for (i = 1; i <= n; i++) {
                if (c[i] == p[i]) ties++
                else if ((better == "higher") == (c[i] > p[i])) wins++
            }
            sorted(p, ps, n); sorted(c, cs, n)
            pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
            iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
            shift = pm != 0 ? sprintf("%+.1f%%", (cm - pm) / pm * 100) : "n/a"
            dist = cm - pm; if (dist < 0) dist = -dist
            printf "%-9s %-6s | %-32s | %-32s | %-16s | %s (%.4g vs %.4g)\n", metric, better,
                sprintf("%.4g / %.4g / %.4g", quantile(ps, n, 0.25), pm, quantile(ps, n, 0.75)),
                sprintf("%.4g / %.4g / %.4g", quantile(cs, n, 0.25), cm, quantile(cs, n, 0.75)),
                sprintf("%d of %d, %d ties", wins, n, ties), shift, dist, iqr
        }' "$OUT"
done <<<"$METRICS"
