#!/usr/bin/env bash
# Counts code lines of Rust source files, per file and in total.
#
# A code line is a non-blank line that does not start with `//` (so doc
# and plain comments are skipped) and comes before the file's first
# `#[cfg(test)]`, so unit-test modules are not counted. Run `cargo fmt`
# first: the count is only comparable between formatted trees.
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
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
