#!/usr/bin/env bash
# Counts code lines of Rust source files, per file and in total.
#
# A code line is a non-blank line that does not start with `//` (so doc
# and plain comments are skipped) and comes before the file's first
# `#[cfg(test)]`, so unit-test modules are not counted. Run `cargo fmt`
# first: the count is only comparable between formatted trees.
#
# The first `#[cfg(test)]` must annotate a `mod`: on any other item (a
# test-only function or impl) the count would silently stop there, so
# the script names that `file:line` and exits 1 instead.
#
# Usage: scripts/code_lines.sh FILE...
#   e.g. scripts/code_lines.sh crates/core/src/serve/*.rs
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 FILE..." >&2
    exit 2
fi

total=0
for f in "$@"; do
    n=$(awk '
        pending {
            if (/^[[:space:]]*($|\/\/|#\[)/) { next }
            if (/^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) { exit }
            printf "%s:%d: #[cfg(test)] on an item other than a mod\n", FILENAME, at > "/dev/stderr"
            bad = 1
            exit
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; at = FNR; next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { if (bad) { exit 1 } print n + 0 }
    ' "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
