#!/usr/bin/env bash
# Prints the size ledger: non-test lines per workspace crate, then the
# total. A file's non-test lines are its lines before its first
# `#[cfg(test)]` (all of them if it has none), summed over every
# `crates/<crate>/src/**/*.rs` file. Crates are named as in their
# Cargo.toml.
#
#   tools/size_ledger.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/; do
  name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
  lines=0
  while IFS= read -r file; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    lines=$((lines + n))
  done < <(find "$dir/src" -name '*.rs' | sort)
  printf '%-16s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"
