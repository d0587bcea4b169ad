#!/usr/bin/env bash
# Prints non-blank, non-comment line counts (lines that are neither empty
# nor start with `//`) for every subdirectory of src/, then the total.
# Run from anywhere; pass another root directory to count that instead.
#
#   scripts/loc.sh            # src/ of this checkout
#   scripts/loc.sh other/src  # any tree laid out the same way
set -euo pipefail
root="${1:-$(dirname "$0")/../src}"

count() {
  find "$1" -type f \( -name '*.h' -o -name '*.cc' \) -print0 | sort -z |
    xargs -0r cat | grep -v '^\s*$' | grep -cv '^\s*//' || true
}

total=0
for dir in "$root"/*/; do
  n=$(count "$dir")
  printf '%-10s %6d\n' "$(basename "$dir")" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
