#!/usr/bin/env bash
# The size ledger: library lines per crate, the number ROADMAP quotes.
#
# A line counts when it is under `crates/*/src`, is not blank and does not
# start with `//` after its indentation; each file counts only up to its
# first column-0 `#[cfg(test)]`, so unit tests are not code size.
#
# The offline stubs of external crates under `vendor/*/src` are counted
# by the same rule on a `vendor` row after the total, not in it: they are
# code the tree carries, but not the reproduction's.
#
# Usage: scripts/loc.sh  (from anywhere; prints `<crate> <lines>` rows,
# a `total <lines>` row and a `vendor <lines>` row)
set -euo pipefail
cd "$(dirname "$0")/.."

# Counted lines of the `.rs` files under directory $1.
lines() {
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
    END { print n + 0 }
  '
}

total=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  [[ -d "$dir/src" ]] || continue
  n="$(lines "$dir/src")"
  printf '%-10s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"

vendor=0
for dir in vendor/*/src; do
  [[ -d "$dir" ]] || continue
  vendor=$((vendor + $(lines "$dir")))
done
printf '%-10s %6d\n' vendor "$vendor"
