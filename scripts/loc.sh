#!/usr/bin/env bash
# The size ledger: library lines per crate, the number ROADMAP quotes.
#
# A line counts when it is under `crates/*/src`, is not blank and does not
# start with `//` after its indentation; each file counts only up to its
# first column-0 `#[cfg(test)]`, so unit tests are not code size.
#
# Usage: scripts/loc.sh  (from anywhere; prints `<crate> <lines>` rows
# and a `total <lines>` row)
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  [[ -d "$dir/src" ]] || continue
  n="$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
    END { print n + 0 }
  ')"
  printf '%-10s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
