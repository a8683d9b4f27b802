#!/usr/bin/env bash
# Prints the size ledger, in three parts:
#
# 1. Non-test lines per workspace crate, then the total. A file's
#    non-test lines are its lines before its first `#[cfg(test)]` (all
#    of them if it has none), summed over every
#    `crates/<crate>/src/**/*.rs` file.
# 2. Dependency edges: each crate's workspace dependencies (`gmc` and
#    `gmc-*`) from the `[dependencies]` section of its Cargo.toml, then
#    the number of edges.
# 3. Public items per crate, then the total: `pub fn|struct|enum|trait|
#    type|const|static|mod` declarations (not `pub(crate)` or any other
#    restricted visibility) in the same non-test lines as part 1.
#
# Crates are named as in their Cargo.toml. Informational only: no
# flags, no thresholds.
#
#   tools/size_ledger.sh
set -euo pipefail
cd "$(dirname "$0")/.."

crate_name() {
  sed -n 's/^name *= *"\(.*\)"/\1/p' "$1/Cargo.toml" | head -n 1
}

# Sums an awk program's per-file count over the crate's source files;
# the program sees each file's lines before its first `#[cfg(test)]`.
count() {
  local dir=$1 program=$2 total=0 n
  while IFS= read -r file; do
    n=$(awk "/^[[:space:]]*#\[cfg\(test\)\]/ { exit } $program END { print n + 0 }" "$file")
    total=$((total + n))
  done < <(find "$dir/src" -name '*.rs' | sort)
  echo "$total"
}

total=0
for dir in crates/*/; do
  lines=$(count "$dir" '{ n++ }')
  printf '%-16s %6d\n' "$(crate_name "$dir")" "$lines"
  total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"

echo
echo "dependency edges (workspace crates in [dependencies])"
edges=0
for dir in crates/*/; do
  deps=$(awk '
    /^\[/ { section = $0; next }
    section == "[dependencies]" && /^gmc(-[a-z]+)?[ .=]/ {
      sub(/[ .=].*/, ""); printf "%s ", $0
    }' "$dir/Cargo.toml")
  n=$(wc -w <<<"$deps")
  printf '%-16s %2d  %s\n' "$(crate_name "$dir")" "$n" "${deps% }"
  edges=$((edges + n))
done
printf '%-16s %2d\n' edges "$edges"

echo
echo "public items"
total=0
for dir in crates/*/; do
  items=$(count "$dir" '/^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*(fn|struct|enum|trait|type|const|static|mod)[[:space:]]/ { n++ }')
  printf '%-16s %6d\n' "$(crate_name "$dir")" "$items"
  total=$((total + items))
done
printf '%-16s %6d\n' total "$total"
