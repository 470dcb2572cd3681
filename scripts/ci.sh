#!/usr/bin/env bash
# The tier-1 gate, runnable locally and in CI:
#   formatting, lints as errors, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

# `unsafe` is confined to the SPSC ring, the sched_setaffinity call and
# the vendored shims; anywhere else it has to argue its way into this list.
if grep -rlw --include='*.rs' unsafe crates |
    grep -vE '^crates/(nfv/src/(ring|topology)\.rs$|shims/)'; then
    echo "ci: the files above hold \`unsafe\` outside nfv/src/{ring,topology}.rs and shims/" >&2
    exit 1
fi
# A change alters the measured code or the benchmark that measures it,
# never both. One PR is one commit on main, so its merge-base is HEAD
# while it is still uncommitted and HEAD^ once it is the tip.
changed=$(git diff --name-only HEAD)
[ -n "$changed" ] || changed=$(git diff --name-only HEAD^ HEAD 2>/dev/null || true)
if grep -q '^crates/' <<<"$changed" &&
    grep -E '^(benchmark/|BENCHMARK\.json$)' <<<"$changed"; then
    echo "ci: the benchmark files above change in the same PR as crates/" >&2
    exit 1
fi

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Wall budget: the l25gc-testbed lib suite (debug profile) was the ten
# minutes of tier-1 until one pdr test stopped measuring 5 000-rule
# structures it never read. Build first so the budget times tests only.
cargo test -q -p l25gc-testbed --lib --no-run
timeout 90 cargo test -q -p l25gc-testbed --lib
cargo test -q
