#!/usr/bin/env bash
# Builds the release `qdelay` server and the load generator from source, then
# runs the generator with the arguments given. Run from anywhere; everything
# is read and written inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet -p qdelay-cli 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
export QDELAY_BIN="$CARGO_TARGET_DIR/release/qdelay"
exec "$CARGO_TARGET_DIR/release/qdelay-benchmark" "$@"
