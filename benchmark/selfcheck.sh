#!/usr/bin/env bash
# Runs the whole untraced set twice back to back and fails unless, for
# every workload, the two medians of every end-to-end metric agree within
# that metric's bound in BENCHMARK.json. Where a run's own inter-quartile
# spread is wider than the bound the pair is printed as `unresolved`: the
# fix is longer repeats, never a wider bound.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S]
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=benchmark/out

benchmark/run.sh "$@" > /dev/null
cp "$out/results.tsv" "$out/selfcheck_a.tsv"
benchmark/run.sh "$@" > /dev/null
cp "$out/results.tsv" "$out/selfcheck_b.tsv"

# BENCHMARK.json keeps one end-to-end metric per line.
awk -F'\t' '
  FILENAME == ARGV[1] {
    if ($0 ~ /"bound"/) {
      name = $0;   sub(/.*"name": *"/, "", name);     sub(/".*/, "", name)
      better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
      bound = $0;  sub(/.*"bound": */, "", bound);    sub(/[^0-9.].*/, "", bound)
      bounds[name] = bound + 0; dir[name] = better
    }
    next
  }
  FILENAME == ARGV[2] { a[$1 "\t" $2] = $3; spread_a[$1 "\t" $2] = ($5 - $4) / $3; next }
  {
    key = $1 "\t" $2
    if (!(key in a)) { printf "FAIL %s %s: missing from the first run\n", $1, $2; bad = 1; next }
    if (!($2 in bounds)) { printf "FAIL %s: no bound in BENCHMARK.json\n", $2; bad = 1; next }
    b = bounds[$2]
    # Worsening of the second run against the first, as a share of the first.
    worse = (dir[$2] == "higher") ? (a[key] - $3) / a[key] : ($3 - a[key]) / a[key]
    shift = (worse < 0) ? -worse : worse
    spread_b = ($5 - $4) / $3
    spread = (spread_a[key] > spread_b) ? spread_a[key] : spread_b
    verdict = "ok"
    if (shift > b) { verdict = "FAIL"; bad = 1 }
    else if (spread > b && $6 > 1) verdict = "unresolved"
    printf "%-10s %-18s %-14s first=%-14.6g second=%-14.6g shift=%+.4f spread=%.4f bound=%.2f\n", verdict, $1, $2, a[key], $3, -worse, spread, b
    seen++
  }
  END {
    if (seen == 0) { print "FAIL: no metric compared"; bad = 1 }
    exit bad
  }
' BENCHMARK.json "$out/selfcheck_a.tsv" "$out/selfcheck_b.tsv"
