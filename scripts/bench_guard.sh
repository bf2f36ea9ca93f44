#!/usr/bin/env bash
# CI bench-regression guard: the hot-path budget is enforced, not
# aspirational, against a baseline measured on the same host.
#
# Unpacks the parent commit (HEAD^1; CI checks out with fetch-depth 2) into
# a temp dir, then measures the THP and TPS RefLoop benchmarks there and in
# this tree in five rounds of 1-second runs, alternating which tree runs
# first. Each round gives one change/parent ratio per scheme, so host speed
# that drifts between rounds cancels out, and the guard judges the median
# ratio, so one noisy round cannot fail it alone. Fails if either scheme's
# median ratio exceeds 1.15. The series-sampling variants (RefLoopSeries)
# must additionally stay within 5% of the plain loop: epoch sampling reads
# counters at epoch boundaries and may not tax the per-reference path.
#
#   scripts/bench_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

rounds=5
tolerance=1.15        # median change/parent ns/ref ratio allowed
series_tolerance=1.05 # median series/plain ns/ref ratio allowed

git rev-parse --verify -q 'HEAD^1' >/dev/null || {
    echo "bench_guard: no parent commit to measure against (a shallow clone needs fetch-depth 2)" >&2
    exit 1
}
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive 'HEAD^1' | tar -x -C "$work/parent"

# One test binary per tree, so a round spends its time measuring, and each
# benchmark runs in both trees back to back: the two halves of a ratio are
# seconds apart, not a whole benchmark list apart.
for tree in parent change; do
    dir="$work/parent"
    [ "$tree" = change ] && dir=.
    (cd "$dir" && go test -c -o "$work/$tree.test" ./internal/sim)
done
bench() { # tree benchmark round -> appends the benchmark's output to $work/<tree>.<round>
    dir="$work/parent"
    [ "$1" = change ] && dir=.
    (cd "$dir/internal/sim" && "$work/$1.test" -test.run='^$' -test.bench="$2" -test.benchtime=1s -test.count=1) \
        >> "$work/$1.$3"
}
for round in $(seq "$rounds"); do
    first=parent second=change
    [ $((round % 2)) = 0 ] && first=change second=parent
    for b in '^BenchmarkRefLoop$/^thp$' '^BenchmarkRefLoop$/^tps$' \
        '^BenchmarkRefLoopSeries$/^thp$' '^BenchmarkRefLoopSeries$/^tps$'; do
        bench "$first" "$b" "$round"
        bench "$second" "$b" "$round"
    done
done

ns() { # raw-file benchmark-prefix scheme -> that round's ns/ref
    awk -v s="$3" -v p="$2" '$1 ~ "^"p"/"s"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($i=="ns/op") print $(i-1) }' "$1" \
        | head -1
}
median() { # numbers on stdin, one a line -> their median (the count is odd)
    sort -g | awk '{ v[NR] = $1 } END { print v[(NR + 1) / 2] }'
}

fail=0
for scheme in thp tps; do
    plain=() series=() series_ns=()
    for round in $(seq "$rounds"); do
        want="$(ns "$work/parent.$round" BenchmarkRefLoop "$scheme")"
        got="$(ns "$work/change.$round" BenchmarkRefLoop "$scheme")"
        sgot="$(ns "$work/change.$round" BenchmarkRefLoopSeries "$scheme")"
        [ -n "$want" ] && [ -n "$got" ] && [ -n "$sgot" ] || {
            echo "bench_guard: round $round produced no $scheme measurement" >&2
            exit 1
        }
        plain+=("$want $got")
        # Series overhead is judged against the larger of the round's two
        # plain loops, so a lucky plain run on either side does not fail
        # the series check on noise alone.
        series+=("$(awk -v s="$sgot" -v a="$want" -v b="$got" 'BEGIN { print s / (a > b ? a : b) }')")
        series_ns+=("$sgot")
    done
    ratio="$(printf '%s\n' "${plain[@]}" | awk '{ print $2 / $1 }' | median)"
    pmed="$(printf '%s\n' "${plain[@]}" | awk '{ print $1 }' | median)"
    cmed="$(printf '%s\n' "${plain[@]}" | awk '{ print $2 }' | median)"
    if awk -v r="$ratio" -v t="$tolerance" 'BEGIN { exit !(r <= t) }'; then
        echo "bench_guard: $scheme median ratio ${ratio} (ns/ref median ${cmed}, parent ${pmed}, limit ${tolerance})" >&2
    else
        echo "bench_guard: FAIL: $scheme median change/parent ratio ${ratio} exceeds ${tolerance} (ns/ref median ${cmed}, parent ${pmed})" >&2
        fail=1
    fi
    sratio="$(printf '%s\n' "${series[@]}" | median)"
    smed="$(printf '%s\n' "${series_ns[@]}" | median)"
    if awk -v r="$sratio" -v t="$series_tolerance" 'BEGIN { exit !(r <= t) }'; then
        echo "bench_guard: $scheme+series median ratio ${sratio} to plain (ns/ref median ${smed}, limit ${series_tolerance})" >&2
    else
        echo "bench_guard: FAIL: $scheme+series median ratio ${sratio} to plain exceeds ${series_tolerance} (ns/ref median ${smed})" >&2
        fail=1
    fi
done
[ "$fail" = 0 ] || exit 1
