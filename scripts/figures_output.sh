#!/usr/bin/env bash
# Regenerates figures_output.txt, the stored reference output: Table I,
# Figures 2-18, then the ablation and extension tables, at one million
# measured references per run. The file is replaced only if the run exits
# cleanly. About 3 minutes on a 2-vCPU VM.
#
#   scripts/figures_output.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/figures" ./cmd/figures
"$work/figures" -all -ablations -refs 1000000 -progress=false > "$work/figures_output.txt"
mv "$work/figures_output.txt" figures_output.txt
