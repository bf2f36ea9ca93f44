#!/usr/bin/env bash
# CI bench-regression guard (PR 7): the hot-path budget is enforced, not
# aspirational.
#
# Re-measures the THP and TPS RefLoop benchmarks and fails if either
# regresses more than 15% versus the committed BENCH_PR7.json ns/ref.
# CI machines are noisy, so the measurement takes the best of three
# 1-second rounds — regressions big enough to matter survive that. The
# series-sampling variants (RefLoopSeries) must additionally stay within
# 5% of the plain loop: epoch sampling reads counters at epoch boundaries
# and may not tax the per-reference path.
#
#   scripts/bench_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bench_file=BENCH_PR7.json
tolerance=115  # percent of the committed ns/ref allowed

committed_ns() { # scheme -> committed ns_per_ref
    awk -v s="\"$1\"" -F'[:,]' '$0 ~ "\"setup\": "s {
        for (i = 1; i < NF; i++) if ($i ~ /"ns_per_ref"/) { gsub(/ /, "", $(i+1)); print $(i+1); exit }
    }' "$bench_file"
}

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
for round in 1 2 3; do
    go test -run='^$' -bench='^BenchmarkRefLoop(Series)?$/^(thp|tps)$' -benchtime=1s -count=1 \
        ./internal/sim >> "$raw"
done

best_ns() { # benchmark-prefix scheme -> best-of-rounds ns/ref
    awk -v s="$2" -v p="$1" '$1 ~ "^"p"/"s"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($i=="ns/op") print $(i-1) }' "$raw" \
        | sort -g | head -1
}

fail=0
plain_thp=""; plain_tps=""
for scheme in thp tps; do
    want="$(committed_ns "$scheme")"
    [ -n "$want" ] || { echo "bench_guard: no $scheme row in $bench_file" >&2; exit 1; }
    got="$(best_ns BenchmarkRefLoop "$scheme")"
    [ -n "$got" ] || { echo "bench_guard: benchmark produced no $scheme measurement" >&2; exit 1; }
    eval "plain_$scheme=\$got"
    ok="$(awk -v got="$got" -v want="$want" -v tol="$tolerance" \
        'BEGIN { print (got <= want * tol / 100) ? 1 : 0 }')"
    if [ "$ok" = 1 ]; then
        echo "bench_guard: $scheme ${got} ns/ref (committed ${want}, limit ${tolerance}%)" >&2
    else
        echo "bench_guard: FAIL: $scheme ${got} ns/ref exceeds ${tolerance}% of committed ${want}" >&2
        fail=1
    fi
done

# Series overhead: <5% over the plain loop, measured against the larger
# of the committed ns/ref and the just-measured plain ns/ref so a fast
# machine does not fail on the committed number's slack.
series_tolerance=105
for scheme in thp tps; do
    want="$(committed_ns "$scheme")"
    eval "plain=\$plain_$scheme"
    got="$(best_ns BenchmarkRefLoopSeries "$scheme")"
    [ -n "$got" ] || { echo "bench_guard: benchmark produced no $scheme series measurement" >&2; exit 1; }
    ok="$(awk -v got="$got" -v want="$want" -v plain="$plain" -v tol="$series_tolerance" \
        'BEGIN { lim = (want > plain ? want : plain) * tol / 100; print (got <= lim) ? 1 : 0 }')"
    if [ "$ok" = 1 ]; then
        echo "bench_guard: $scheme+series ${got} ns/ref (plain ${plain}, limit ${series_tolerance}%)" >&2
    else
        echo "bench_guard: FAIL: $scheme+series ${got} ns/ref exceeds ${series_tolerance}% of max(${want}, ${plain})" >&2
        fail=1
    fi
done
[ "$fail" = 0 ] || exit 1
