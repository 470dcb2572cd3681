#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh                      all six workloads, end-to-end metrics
#   benchmark/run.sh --trace              the per-layer ledger (traced run)
#   benchmark/run.sh --workload NAME      one workload, one process
#   flags: --seed N (default 7)  --seconds S (default 10)  --trace [0|1]
#
# Builds benchmark/ in release (offline, path dependencies only), runs
# each workload in its own process so peak_rss_mb is per workload, prints
# `name value unit` for every metric, and leaves the detail under
# benchmark/out/. The last line of standard output of a single-workload
# run is the JSON object BENCHMARK.json's contract asks for.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload="" seed=7 seconds=10 trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a number}"; shift 2 ;;
    --trace)
      case "${2:-}" in
        0|1) trace="$2"; shift 2 ;;
        *) trace=1; shift ;;
      esac ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Cargo's own chatter goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/l25gc-benchmark"
out=benchmark/out

run_one() {
  "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit
fi

if [ "$trace" = 1 ]; then
  # The ledger is computed whole, whichever workload is named.
  run_one dispatch_b1
  exit
fi

workloads="dispatch_b1 dispatch_b32 analytic_plain analytic_timeline upf_forward cp_lifecycle"
for w in $workloads; do
  echo "== $w (seed $seed, ${seconds}s)"
  run_one "$w"
done

# Merge the per-workload rows: one TSV for scripts, one JSON for people.
: > "$out/results.tsv"
for w in $workloads; do cat "$out/result_$w.tsv" >> "$out/results.tsv"; done
awk -F'\t' -v seed="$seed" -v seconds="$seconds" '
  BEGIN { printf "{\"seed\": %s, \"seconds\": %s, \"results\": [\n", seed, seconds }
  { printf "%s  {\"workload\": \"%s\", \"metric\": \"%s\", \"median\": %s, \"q1\": %s, \"q3\": %s, \"repeats\": %s, \"unit\": \"%s\"}", (NR > 1 ? ",\n" : ""), $1, $2, $3, $4, $5, $6, $7 }
  END { print "\n]}" }
' "$out/results.tsv" > "$out/results.json"
echo "== wrote $out/results.tsv and $out/results.json"
