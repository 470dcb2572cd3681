#!/usr/bin/env bash
# The tier-1 gate, runnable locally and in CI:
#   formatting, lints as errors, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Wall budget: the l25gc-testbed lib suite (debug profile) was the ten
# minutes of tier-1 until one pdr test stopped measuring 5 000-rule
# structures it never read. Build first so the budget times tests only.
cargo test -q -p l25gc-testbed --lib --no-run
timeout 90 cargo test -q -p l25gc-testbed --lib
cargo test -q
