#!/usr/bin/env bash
# The repo benchmark, one command. Builds the release `profiled` and
# `repro` binaries from the checkout and this package, then runs
#
#   benchmark/run.sh                         every workload: end-to-end pass, then traced per-layer pass
#   benchmark/run.sh --seed N                the same inputs from another seed
#   benchmark/run.sh --smoke                 schema + correctness only, about a second per pass
#   benchmark/run.sh --repeat-check          two full sets; every end-to-end metric must agree within its bound
#   benchmark/run.sh --repeat-check --sets 10    ten sets: the quartile spread the driver computes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     one run; last stdout line is the result object
#
# Build output goes to stderr so the last line of stdout is the result.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# A relative CARGO_TARGET_DIR is relative to the checkout root.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    case "$CARGO_TARGET_DIR" in
        /*) TARGET="$CARGO_TARGET_DIR" ;;
        *) TARGET="$ROOT/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR="$TARGET"
    BENCH_TARGET="$TARGET"
else
    TARGET="$ROOT/target"
    BENCH_TARGET="$ROOT/benchmark/target"
fi

# The program under test, from source.
cargo build --release --offline -p cbs-bench --bin profiled --bin repro >&2
# The benchmark: a workspace of its own, so the root manifest and lock
# file never see it.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "$BENCH_TARGET/release/cbs-benchmark" --root "$ROOT" --bin-dir "$TARGET/release" "$@"
