#!/usr/bin/env bash
# Builds the release `cube` binary and the benchmark into one target
# directory, then runs the benchmark:
#
#   bash cube-e2e/run.sh --workload eval-miss --seed 2026 --seconds 10 --trace 0
#
# Run it from the repository root. The target directory is
# $CARGO_TARGET_DIR, or `target` when that is unset.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path Cargo.toml -p cube-cli --target-dir "$target"
cargo build --release --offline --quiet \
    --manifest-path cube-e2e/Cargo.toml --target-dir "$target"
# Not `exec`: a process keeps its waited-for children's resource usage
# across exec, and the benchmark reads its children's peak memory.
"$target/release/cube-e2e" run --cube "$target/release/cube" "$@"
