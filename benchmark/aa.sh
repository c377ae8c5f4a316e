#!/bin/sh
# A/A check: run the whole benchmark twice on the same build and compare.
# Every sim metric must be bit-identical, every host metric within its
# bound, and no check may fail. Extra arguments go to both runs
# (e.g. `benchmark/aa.sh --seed 7 --seconds 30`).
set -eu
cd "$(dirname "$0")/.."
bench="cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --"
$bench run --out benchmark/out/aa_a.json "$@"
$bench run --out benchmark/out/aa_b.json "$@"
$bench compare --aa benchmark/out/aa_a.json benchmark/out/aa_b.json
