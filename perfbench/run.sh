#!/usr/bin/env bash
# Build the placement daemon and the benchmark from source, then run one
# benchmark workload. Arguments are passed through unchanged:
#
#   bash perfbench/run.sh --workload pipeline|serve_place|serve_churn \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build); everything the benchmark writes at run time
# goes to .perfbench_work/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p chainnet-serve --bin chainnet-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" --root "$root" \
  --serve-bin "$target/release/chainnet-serve" "$@"
