#!/usr/bin/env bash
# Builds the kumquat release binary and the benchmark harness, offline,
# then runs the harness with the arguments given. See README.md.
#
#   benchmark/run.sh                 every workload, both halves, all metrics
#   benchmark/run.sh --quick         the same on 1/16-size inputs, one sample
#   benchmark/run.sh --aa            two end-to-end sets, compared to the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                    one half of one workload; the last line
#                                    of stdout is the result as JSON
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

# One target directory for both builds when the caller names one (made
# absolute, because the harness package is built from its own directory);
# otherwise each package keeps its usual `target/`.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    kumquat="$CARGO_TARGET_DIR/release/kumquat"
    harness="$CARGO_TARGET_DIR/release/kq-benchmark"
else
    kumquat="$root/target/release/kumquat"
    harness="$root/benchmark/target/release/kq-benchmark"
fi

# Build output goes to stderr: stdout carries only the harness's report.
if ! cargo build --release --offline -p kq-cli >&2 || [ ! -x "$kumquat" ]; then
    echo "run.sh: cannot build $kumquat (cargo build --release --offline -p kq-cli)" >&2
    exit 2
fi
if ! cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2 || [ ! -x "$harness" ]; then
    echo "run.sh: cannot build the harness (benchmark/Cargo.toml)" >&2
    exit 2
fi

exec "$harness" --kumquat "$kumquat" --out "$root/benchmark/out" "$@"
