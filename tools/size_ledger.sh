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
# Crates are named as in their Cargo.toml.
#
# With `--check`, it prints nothing of the above and instead compares
# each crate with its ceilings in tools/size_ledger.ceilings (one line
# per crate: name, non-test lines, dependency edges, public items):
#
# - FAIL, and exit 1, when a crate exceeds any of its ceilings, has no
#   ceilings, or a ceiling names a crate the workspace does not have;
# - WARN, exit 0, when a crate's non-test lines are 100 or more below
#   its ceiling, so that the ceiling is lowered to the new size.
#
#   tools/size_ledger.sh [--check]
set -euo pipefail
cd "$(dirname "$0")/.."

CEILINGS=tools/size_ledger.ceilings

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

crate_lines() {
  count "$1" '{ n++ }'
}

# The crate's workspace dependencies, space-separated.
crate_deps() {
  awk '
    /^\[/ { section = $0; next }
    section == "[dependencies]" && /^gmc(-[a-z]+)?[ .=]/ {
      sub(/[ .=].*/, ""); printf "%s ", $0
    }' "$1/Cargo.toml"
}

crate_items() {
  count "$1" '/^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*(fn|struct|enum|trait|type|const|static|mod)[[:space:]]/ { n++ }'
}

check() {
  local -A ceiling=()
  local name lines edges items fails=0 warns=0
  while read -r name lines edges items; do
    [[ -z $name || $name == \#* ]] && continue
    ceiling[$name]="$lines $edges $items"
  done <"$CEILINGS"
  for dir in crates/*/; do
    name=$(crate_name "$dir")
    if [[ -z ${ceiling[$name]+set} ]]; then
      echo "FAIL $name: no ceilings in $CEILINGS"
      fails=$((fails + 1))
      continue
    fi
    local max_lines max_edges max_items
    read -r max_lines max_edges max_items <<<"${ceiling[$name]}"
    unset "ceiling[$name]"
    lines=$(crate_lines "$dir")
    edges=$(wc -w <<<"$(crate_deps "$dir")")
    items=$(crate_items "$dir")
    for what in "non-test lines:$lines:$max_lines" \
      "dependency edges:$edges:$max_edges" \
      "public items:$items:$max_items"; do
      IFS=: read -r label value max <<<"$what"
      if ((value > max)); then
        echo "FAIL $name: $value $label, above its ceiling of $max"
        fails=$((fails + 1))
      fi
    done
    if ((lines <= max_lines - 100)); then
      echo "WARN $name: $lines non-test lines, $((max_lines - lines)) below its ceiling of $max_lines; lower the ceiling"
      warns=$((warns + 1))
    fi
  done
  for name in "${!ceiling[@]}"; do
    echo "FAIL $name: ceilings for a crate the workspace does not have"
    fails=$((fails + 1))
  done
  echo "size ledger check: $fails FAIL, $warns WARN"
  ((fails == 0))
}

case "${1-}" in
  "") ;;
  --check)
    check
    exit
    ;;
  *)
    echo "usage: tools/size_ledger.sh [--check]" >&2
    exit 2
    ;;
esac

total=0
for dir in crates/*/; do
  lines=$(crate_lines "$dir")
  printf '%-16s %6d\n' "$(crate_name "$dir")" "$lines"
  total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"

echo
echo "dependency edges (workspace crates in [dependencies])"
edges=0
for dir in crates/*/; do
  deps=$(crate_deps "$dir")
  n=$(wc -w <<<"$deps")
  printf '%-16s %2d  %s\n' "$(crate_name "$dir")" "$n" "${deps% }"
  edges=$((edges + n))
done
printf '%-16s %2d\n' edges "$edges"

echo
echo "public items"
total=0
for dir in crates/*/; do
  items=$(crate_items "$dir")
  printf '%-16s %6d\n' "$(crate_name "$dir")" "$items"
  total=$((total + items))
done
printf '%-16s %6d\n' total "$total"
