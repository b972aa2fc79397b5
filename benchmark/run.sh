#!/usr/bin/env bash
# Builds the `campaign` binary and the benchmark from source (offline),
# then runs one workload and prints its metrics; the last line of output
# is the JSON result. Run from anywhere:
#
#   bash benchmark/run.sh --workload <campaign|single_comm3|mix4|saturated> \
#       [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
#
# Build outputs go to $CARGO_TARGET_DIR (taken relative to the current
# directory), or target/benchmark at the repository root when it is unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The measured code paths are the defaults: no channel sharding, none of
# the fast-path kill switches.
unset NUAT_CHANNEL_JOBS NUAT_NO_SKIP NUAT_NO_WHEEL NUAT_NO_DES NUAT_NO_BATCH NUAT_STALL_DEBUG

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p nuat-bench --bin campaign >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

NUAT_BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export NUAT_BENCH_COMMIT
# Not `exec`: a fresh child process starts with zeroed resource usage, so
# the peak-RSS readings cannot include the compiler runs above.
"$target/release/nuat-benchmark" \
  --campaign-bin "$target/release/campaign" \
  --work-dir "$target/benchmark-work-$$" \
  "$@"
