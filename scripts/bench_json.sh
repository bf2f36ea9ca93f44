#!/usr/bin/env bash
# Regenerates the machine-readable benchmark record (BENCH_PR7.json by
# default): runs the per-reference hot-loop benchmarks and emits one JSON
# object per setup with ns/ref and allocs/ref. Run on an idle machine;
# compare across commits with benchstat on the raw `go test -bench` output.
#
# Coverage: every registered scheme (BenchmarkRefLoop iterates the
# registry), the translation-cache before/after rows (RefLoopNoCache),
# the series-sampling rows (RefLoopSeries), the cycle model, and the
# telemetry on/off pair. Rows carry a speedup column against the
# committed BENCH_PR2.json ns/ref where that record has the same setup.
#
# The JSON lands atomically: awk writes to a temp file that is renamed
# into place only on success, and the EXIT trap removes both temp files,
# so a failed bench run never leaves a truncated $out behind.
#
#   scripts/bench_json.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-BENCH_PR7.json}"

raw="$(mktemp)"
tmp="$(mktemp)"
trap 'rm -f "$raw" "$tmp"' EXIT
# -count=3, keeping the best round per benchmark below: single rounds on a
# shared machine jitter by ~15-20%, which would make the CI regression
# guard (scripts/bench_guard.sh, also best-of-3) trip on noise.
go test -run='^$' -bench='RefLoop' -benchmem -count=3 ./internal/sim | tee "$raw" >&2

# Provenance: without the commit, toolchain, and GOMAXPROCS a BENCH_*.json
# is uninterpretable six months later. "+dirty" marks uncommitted trees.
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then commit="$commit+dirty"; fi
goversion="$(go version | sed 's/^go version //')"
maxprocs="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v commit="$commit" -v goversion="$goversion" -v maxprocs="$maxprocs" '
BEGIN {
    # BENCH_PR2.json ns/ref on the reference machine (Xeon @ 2.70GHz) —
    # the denominator for the speedup column. Schemes registered after
    # PR 2 (tps-eager, 2m-only, svnapot) have no PR 2 row and no column.
    base["base4k"] = 80.23
    base["thp"] = 26.12
    base["tps"] = 41.76
    base["colt"] = 56.40
    base["rmm"] = 40.96
    base["thp+cyclemodel"] = 150.7
    base["tps+telemetry-off"] = 41.76
    base["tps+telemetry-on"] = 41.76
    # The no-cache rows price the modeled hierarchy alone; their PR 2
    # twins ARE the plain rows (the cache did not exist then). Same for
    # the series-sampling rows: sampling is meant to be free.
    base["thp+nocache"] = 26.12
    base["tps+nocache"] = 41.76
    base["thp+series"] = 26.12
    base["tps+series"] = 41.76
}
/^BenchmarkRefLoop/ {
    name = $1
    sub(/^BenchmarkRefLoopTelemetry\/disabled.*/, "tps+telemetry-off", name)
    sub(/^BenchmarkRefLoopTelemetry\/enabled.*/, "tps+telemetry-on", name)
    sub(/^BenchmarkRefLoopCycleModel.*/, "thp+cyclemodel", name)
    if (name ~ /^BenchmarkRefLoopNoCache\//) {
        sub(/^BenchmarkRefLoopNoCache\//, "", name)
        sub(/-[0-9]+$/, "", name)
        name = name "+nocache"
    }
    if (name ~ /^BenchmarkRefLoopSeries\//) {
        sub(/^BenchmarkRefLoopSeries\//, "", name)
        sub(/-[0-9]+$/, "", name)
        name = name "+series"
    }
    if (name ~ /^BenchmarkRefLoop\//) {
        sub(/^BenchmarkRefLoop\//, "", name)
        sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix if present
    }
    ns = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns != "") {
        if (!(name in bestNs) || ns + 0 < bestNs[name] + 0) bestNs[name] = ns
        if (allocs != "" && (!(name in worstAllocs) || allocs + 0 > worstAllocs[name] + 0))
            worstAllocs[name] = allocs
        if (!(name in seen)) { seen[name] = 1; names[++n] = name }
    }
}
END {
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkRefLoop* (go test -bench=RefLoop -benchmem ./internal/sim)\",\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"go_version\": \"%s\",\n", goversion
    printf "  \"gomaxprocs\": %s,\n", maxprocs
    printf "  \"results\": [\n"
    for (i = 1; i <= n; i++) {
        name = names[i]; ns = bestNs[name]
        extra = ""
        if (name in base) {
            extra = sprintf(", \"pr2_ns_per_ref\": %s, \"speedup_vs_pr2\": %.2f", base[name], base[name] / ns)
        }
        scheme = name
        sub(/\+.*/, "", scheme)  # "tps+nocache" benches the tps scheme
        allocs = (name in worstAllocs) ? worstAllocs[name] : "null"
        printf "    {\"setup\": \"%s\", \"scheme\": \"%s\", \"ns_per_ref\": %s, \"allocs_per_ref\": %s%s}%s\n", name, scheme, ns, allocs, extra, i < n ? "," : ""
    }
    printf "  ]\n}\n"
}' "$raw" > "$tmp"
mv "$tmp" "$out"
echo "wrote $out" >&2
