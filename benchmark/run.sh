#!/usr/bin/env bash
# Build `sciborq-served` (from the root workspace, with the root's release
# profile) and the benchmark driver (this package), then run the driver.
#
#   benchmark/run.sh                       the suite: gate, untraced repeats and
#                                          traced pass for every workload
#   benchmark/run.sh --workload NAME       ... for one workload
#   benchmark/run.sh --seed N              another request file (2 = hold-out)
#   benchmark/run.sh --check-repeat        the untraced suite twice; fails when
#                                          a gated metric differs by more than
#                                          its bound
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one pass, ending in the one-line JSON
#                                          result of the benchmark contract
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Both builds share one target directory; a relative one is relative to the
# caller's directory, whatever cargo is pointed at.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p sciborq-serve --bin sciborq-served >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/sciborq-benchmark" \
    --server-bin "$target/release/sciborq-served" --out "$here/out" "$@"
