#!/bin/sh
# Non-test Rust lines by the ROADMAP rule: every .rs file under crates/
# and src/, each counted up to (not including) its first `#[cfg(test)]`
# or `#![cfg(test)]`.
# Prints one number. Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."
find crates src -name '*.rs' -not -path '*/target/*' -print0 |
    xargs -0 awk 'FNR == 1 { counting = 1 } /#!?\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }'
