#!/usr/bin/env bash
# The size ledger: how much code each crate carries, so "least code" has
# a number a PR can quote. Plain find/grep/wc over the working tree.
#
#   scripts/size.sh            rewrite SIZE.json at the repo root
#   scripts/size.sh <path>     write the ledger to <path> instead
#                              (verify.sh cmp's it against the committed
#                              file: growth is allowed, staleness is not)
#
# Per crate (and for the root package's src/ + tests/ + examples/):
#   src_lines         lines of *.rs under src/ (unit tests included)
#   test_bench_lines  lines of *.rs under tests/, benches/, examples/
#   pub_items         lines in src/ opening a fully `pub` item
#                     (fn/struct/enum/trait/const/static/type/mod;
#                     `pub(crate)`, `pub use` and fields do not count)
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C
OUT="${1:-SIZE.json}"

rs_lines() { # total lines of *.rs under the directories that exist
  local dirs=()
  for d in "$@"; do [[ -d "$d" ]] && dirs+=("$d"); done
  [[ ${#dirs[@]} -eq 0 ]] && { echo 0; return; }
  find "${dirs[@]}" -name '*.rs' -type f -exec cat {} + | wc -l | tr -d ' '
}

pub_items() {
  { grep -rhE '^[[:space:]]*pub (fn|struct|enum|trait|const|static|type|mod) ' \
      --include='*.rs' "$1" || true; } | wc -l | tr -d ' '
}

entry() { # name, package root
  local src tests pubs
  src="$(rs_lines "$2/src")"
  tests="$(rs_lines "$2/tests" "$2/benches" "$2/examples")"
  pubs="$(pub_items "$2/src")"
  TOTAL_SRC=$((TOTAL_SRC + src))
  TOTAL_TESTS=$((TOTAL_TESTS + tests))
  TOTAL_PUBS=$((TOTAL_PUBS + pubs))
  printf '    "%s": {"src_lines": %d, "test_bench_lines": %d, "pub_items": %d},\n' \
    "$1" "$src" "$tests" "$pubs"
}

TOTAL_SRC=0 TOTAL_TESTS=0 TOTAL_PUBS=0
{
  printf '{\n  "generated_by": "scripts/size.sh",\n  "packages": {\n'
  for dir in $(find crates -mindepth 1 -maxdepth 1 -type d | sort); do
    entry "$(basename "$dir")" "$dir"
  done
  entry "(root)" "."
  printf '    "(total)": {"src_lines": %d, "test_bench_lines": %d, "pub_items": %d}\n' \
    "$TOTAL_SRC" "$TOTAL_TESTS" "$TOTAL_PUBS"
  printf '  }\n}\n'
} > "$OUT"
