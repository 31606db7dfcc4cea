#!/usr/bin/env bash
# Non-blank line count of the library sources (src/**/*.hpp and *.cpp) in
# the working tree and at a git ref, and the delta between them. This is the
# "net src/ delta" every change reports in CHANGES.md: a line counts when it
# holds at least one non-whitespace character, so reflowing blank lines
# does not move the number.
#
# Usage: scripts/src_lines.sh [<git-ref>]   (default: HEAD)
set -euo pipefail

cd "$(dirname "$0")/.."
ref="${1:-HEAD}"

count_tree() {
  find src \( -name '*.hpp' -o -name '*.cpp' \) -print0 |
    xargs -0 cat | grep -c '[^[:space:]]' || true
}

count_ref() {
  git grep -h -c '[^[:space:]]' "$1" -- 'src/*.hpp' 'src/*.cpp' |
    awk '{ n += $1 } END { print n + 0 }'
}

at_ref=$(count_ref "$ref")
now=$(count_tree)
printf '%s: %d\nworking tree: %d\ndelta: %+d\n' "$ref" "$at_ref" "$now" \
  $((now - at_ref))
