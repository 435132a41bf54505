#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one workload:
#
#   bash kgbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
# .bench_build); scratch files go to .bench_tmp and traces to .bench_out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The DGL-KE workload and the PS probe spawn real `hetkg ps-server`
# processes, so the program's own binary is built too.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin hetkg >&2
cargo build --release --offline --quiet --manifest-path kgbench/Cargo.toml --bin kgbench >&2
# Probes are separate targets: one that no longer builds leaves the
# end-to-end runner and the other probes working.
cargo build --release --offline --quiet --manifest-path kgbench/Cargo.toml --bins --keep-going >&2 \
    || echo "kgbench: some probes did not build; their metrics will be missing" >&2

mkdir -p .bench_tmp
# ProcessCluster puts its Unix sockets under TMPDIR; a short relative path
# keeps them inside the checkout and under the socket path length limit.
TMPDIR=.bench_tmp exec "$CARGO_TARGET_DIR/release/kgbench" \
    --hetkg-bin "$CARGO_TARGET_DIR/release/hetkg" "$@"
