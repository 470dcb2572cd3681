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
# Struct fields only tests read: each one listed has its reason in the
# script's keep list, or the gate fails.
scripts/narrow_pub.py writeonly
cargo clippy --workspace --all-targets -- -D warnings
# benchmark/ is its own workspace over crates/: a narrowed API that breaks
# it must fail here, not only in the GitHub job. --locked fails on a stale
# lock instead of rewriting it (which would trip the guard above).
cargo check --locked --manifest-path benchmark/Cargo.toml --all-targets
# Wall budget: the l25gc-testbed lib suite (debug profile) was the ten
# minutes of tier-1 until one pdr test stopped measuring 5 000-rule
# structures it never read. Build first so the budget times tests only.
cargo test -q -p l25gc-testbed --lib --no-run
timeout 90 cargo test -q -p l25gc-testbed --lib
cargo test -q
