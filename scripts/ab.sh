#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload — the protocol
# every perf claim in this repo is made by (ROADMAP aim 1).
#
#   scripts/ab.sh <parent-rev> <workload> [pairs=10] [seed=7]
#
# Exports <parent-rev> under .bench_build/, gives it the *current* tree's
# benchmark/ sources (so both sides are measured by identical code), builds
# both, then runs the pairs, alternating which side goes first. Prints, per
# end-to-end metric, each side's q1 / median / q3, the change's median as a
# ratio of the parent's, and the pairs the change won. Exits 1 if any run
# reports `"correct": false` or a failed operation.
#
# Plain bash + awk, offline; writes only under .bench_build/ and
# benchmark/out/ (both git-ignored).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  echo "usage: scripts/ab.sh <parent-rev> <workload> [pairs=10] [seed=7]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seed=${4:-7}
sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
  echo "ab.sh: $rev is not a commit" >&2
  exit 2
}
# Run length is the benchmark's own, the same on both sides.
seconds=$(grep -o '"run_seconds": *[0-9.]*' BENCHMARK.json | grep -o '[0-9.]*$')

# The parent's crates/ under the current benchmark/. `git archive` rather
# than a worktree: nothing lands in .git/.
parent=.bench_build/ab/parent-$sha
if [ ! -d "$parent/crates" ]; then
  mkdir -p "$parent"
  git archive "$sha" | tar -x -C "$parent"
fi
rm -rf "$parent/benchmark/src"
mkdir -p "$parent/benchmark"
cp -r benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src "$parent/benchmark/"

build() { # <manifest dir> <target dir>
  cargo build --release --offline --quiet --manifest-path "$1/Cargo.toml" --target-dir "$2" >&2
}
build "$parent/benchmark" "$parent/benchmark/target"
build benchmark benchmark/target
bin_parent=$parent/benchmark/target/release/l25gc-benchmark
bin_change=benchmark/target/release/l25gc-benchmark

out=benchmark/out/ab
mkdir -p "$out"
runs=$out/${workload}_seed$seed.tsv
: > "$runs"
bad=0

run_side() { # <side> <pair>
  local side=$1 bin=bin_$1 line
  line=$("${!bin}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace 0 --out "$out/$side" | tail -n 1)
  case "$line" in
    '{"correct": true, '*'"failed": 0, '*) ;;
    *) echo "ab.sh: $side run of pair $2 is not clean: $line" >&2; bad=1 ;;
  esac
  # {"metrics": {"name": {"value": V, ...}, ...}} -> side, pair, name, V
  printf '%s\n' "$line" | grep -o '"[a-z_]*": {"value": [-0-9.e+]*' |
    awk -v side="$side" -v pair="$2" -F'"' '{ sub(/^: /, "", $5); print side "\t" pair "\t" $2 "\t" $5 }' >> "$runs"
}

echo "# $workload, seed $seed, ${seconds}s runs, $pairs pairs, parent $sha" >&2
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do run_side "$side" "$pair"; done
  echo "# pair $pair/$pairs done" >&2
done

# Which way is better comes from BENCHMARK.json's end_to_end entries.
better=$(grep -o '"name": "[a-z_]*", "unit": "[^"]*", "better": "[a-z]*"' BENCHMARK.json |
  awk -F'"' '{ printf "%s=%s ", $4, $12 }')

sort -t "$(printf '\t')" -k3,3 -k1,1 -k4,4g "$runs" | awk -F'\t' -v better="$better" '
  function quantile(side, m, q,    n, h, lo) {
    n = count[side, m]; h = (n - 1) * q; lo = int(h)
    return v[side, m, lo] + (h - lo) * (v[side, m, (lo + 1 < n ? lo + 1 : lo)] - v[side, m, lo])
  }
  BEGIN {
    n = split(better, kv, " ")
    for (i = 1; i <= n; i++) { split(kv[i], pr, "="); dir[pr[1]] = pr[2] }
  }
  {
    v[$1, $3, count[$1, $3]++] = $4; by_pair[$1, $3, $2] = $4
    if (!($3 in seen)) { seen[$3] = 1; order[metrics++] = $3 }
    if ($2 > pairs) pairs = $2
  }
  END {
    printf "%-14s %-7s %14s %14s %14s   %s\n", "metric", "side", "q1", "median", "q3", "change / parent"
    for (k = 0; k < metrics; k++) {
      m = order[k]; won = 0; tied = 0
      for (i = 1; i <= pairs; i++) {
        c = by_pair["change", m, i]; p = by_pair["parent", m, i]
        if (c == p) tied++
        else if ((dir[m] == "higher") == (c > p)) won++
      }
      pm = quantile("parent", m, 0.5); cm = quantile("change", m, 0.5)
      iqr = quantile("parent", m, 0.75) - quantile("parent", m, 0.25)
      gap = cm - pm; if (gap < 0) gap = -gap
      for (s = 0; s < 2; s++) {
        side = (s ? "change" : "parent")
        printf "%-14s %-7s %14.4f %14.4f %14.4f", m, side, quantile(side, m, 0.25), quantile(side, m, 0.5), quantile(side, m, 0.75)
        if (s) printf "   x%.3f of %.4f, won %d/%d (ties %d), |median gap| %.4f vs parent IQR %.4f", (pm ? cm / pm : 0), pm, won, pairs, tied, gap, iqr
        printf "\n"
      }
    }
  }'
exit "$bad"
