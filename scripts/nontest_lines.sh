#!/usr/bin/env bash
# Print the non-test lines under crates/*/src, per crate and in total, bins
# included. Each .rs file counts up to (not including) its first line that
# is a `#[cfg(test)]` attribute, or in full if it has none; the attribute
# mentioned in a comment or a string does not end the count.
#
#   scripts/nontest_lines.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
total=0
for dir in crates/*/; do
  n=0
  while IFS= read -r -d '' f; do
    lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    n=$((n + lines))
  done < <(find "${dir}src" -name '*.rs' -print0)
  printf '%-14s %6d\n' "$(basename "$dir")" "$n"
  total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
