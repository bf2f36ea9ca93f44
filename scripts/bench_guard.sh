#!/usr/bin/env bash
# CI bench-regression guard: the hot-path budget is enforced, not
# aspirational, against a baseline measured on the same host.
#
# Unpacks the parent commit (HEAD^1; CI checks out with fetch-depth 2) into
# a temp dir, then measures the THP and TPS RefLoop benchmarks there and in
# this tree in alternating 1-second rounds, keeping the best of three for
# each side so a noisy CI host cannot fail one side alone. Fails if either
# scheme's ns/ref in this tree exceeds 115% of the parent's. The
# series-sampling variants (RefLoopSeries) must additionally stay within 5%
# of the plain loop: epoch sampling reads counters at epoch boundaries and
# may not tax the per-reference path.
#
#   scripts/bench_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tolerance=115  # percent of the parent's ns/ref allowed

git rev-parse --verify -q 'HEAD^1' >/dev/null || {
    echo "bench_guard: no parent commit to measure against (a shallow clone needs fetch-depth 2)" >&2
    exit 1
}
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive 'HEAD^1' | tar -x -C "$work/parent"

bench() { # dir -> appends one round of RefLoop output to $work/<name>.raw
    (cd "$1" && go test -run='^$' -bench='^BenchmarkRefLoop(Series)?$/^(thp|tps)$' -benchtime=1s -count=1 \
        ./internal/sim)
}
for round in 1 2 3; do
    bench "$work/parent" >> "$work/parent.raw"
    bench . >> "$work/change.raw"
done

best_ns() { # raw-file benchmark-prefix scheme -> best-of-rounds ns/ref
    awk -v s="$3" -v p="$2" '$1 ~ "^"p"/"s"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($i=="ns/op") print $(i-1) }' "$1" \
        | sort -g | head -1
}

fail=0
for scheme in thp tps; do
    want="$(best_ns "$work/parent.raw" BenchmarkRefLoop "$scheme")"
    [ -n "$want" ] || { echo "bench_guard: parent produced no $scheme measurement" >&2; exit 1; }
    got="$(best_ns "$work/change.raw" BenchmarkRefLoop "$scheme")"
    [ -n "$got" ] || { echo "bench_guard: benchmark produced no $scheme measurement" >&2; exit 1; }
    eval "plain_$scheme=\$got parent_$scheme=\$want"
    ok="$(awk -v got="$got" -v want="$want" -v tol="$tolerance" \
        'BEGIN { print (got <= want * tol / 100) ? 1 : 0 }')"
    if [ "$ok" = 1 ]; then
        echo "bench_guard: $scheme ${got} ns/ref (parent ${want}, limit ${tolerance}%)" >&2
    else
        echo "bench_guard: FAIL: $scheme ${got} ns/ref exceeds ${tolerance}% of parent ${want}" >&2
        fail=1
    fi
done

# Series overhead: <5% over the plain loop, measured against the larger
# of the parent's and this tree's plain ns/ref so a lucky plain round on
# either side does not fail the series check on noise alone.
series_tolerance=105
for scheme in thp tps; do
    eval "plain=\$plain_$scheme parent=\$parent_$scheme"
    got="$(best_ns "$work/change.raw" BenchmarkRefLoopSeries "$scheme")"
    [ -n "$got" ] || { echo "bench_guard: benchmark produced no $scheme series measurement" >&2; exit 1; }
    ok="$(awk -v got="$got" -v want="$parent" -v plain="$plain" -v tol="$series_tolerance" \
        'BEGIN { lim = (want > plain ? want : plain) * tol / 100; print (got <= lim) ? 1 : 0 }')"
    if [ "$ok" = 1 ]; then
        echo "bench_guard: $scheme+series ${got} ns/ref (plain ${plain}, limit ${series_tolerance}%)" >&2
    else
        echo "bench_guard: FAIL: $scheme+series ${got} ns/ref exceeds ${series_tolerance}% of max(${parent}, ${plain})" >&2
        fail=1
    fi
done
[ "$fail" = 0 ] || exit 1
