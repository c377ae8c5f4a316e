#!/bin/sh
# Non-test Rust lines that sit inside an 8-line window occurring at least
# twice: every .rs file under crates/ and src/, each cut at its first
# `#[cfg(test)]` or `#![cfg(test)]`; blank, comment-only and
# closing-punctuation lines dropped, whitespace collapsed; windows never
# span two files.
# Prints one number. Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."
find crates src -name '*.rs' -not -path '*/target/*' -print | sort |
    xargs awk -v W=8 '
        FNR == 1 { counting = 1; file++ }
        /#!?\[cfg\(test\)\]/ { counting = 0 }
        !counting { next }
        {
            gsub(/[ \t]+/, " ")
            sub(/^ /, "")
            sub(/ $/, "")
        }
        $0 == "" || /^\/\// || /^[])};, ]+$/ { next }
        { n++; line[n] = $0; of[n] = file }
        END {
            for (i = 1; i + W - 1 <= n; i++) {
                if (of[i] != of[i + W - 1]) continue
                key = line[i]
                for (j = 1; j < W; j++) key = key "\n" line[i + j]
                win[i] = key
                seen[key]++
            }
            for (i in win)
                if (seen[win[i]] > 1)
                    for (j = 0; j < W; j++) cloned[i + j] = 1
            total = 0
            for (i in cloned) total++
            print total
        }'
