#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. With no arguments: all five
# workloads, every metric by name and unit, results under benchmark/out/.
# See README.md; `run.sh --help` lists the flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# Cargo resolves a relative CARGO_TARGET_DIR against the current directory.
exec "${CARGO_TARGET_DIR:-$here/target}/release/jessy-benchmark" "$@"
