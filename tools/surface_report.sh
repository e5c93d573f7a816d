#!/usr/bin/env bash
# Surface report: how much a change grows or shrinks the program and its
# knobs, by one definition that CHANGES.md's per-change line counts and
# knob counts quote.
#
#  1. Lines added, removed and net against <base-ref>, per src/<module>,
#     for src/ as a whole, and for tests, bench and tools. The counts come
#     from `git diff --numstat` between <base-ref> and the working tree,
#     so new files count once git tracks them (`git add`).
#  2. The LAWS_* environment variables read in src/: the string literals
#     passed to EnvFlag, EnvInt64 and getenv, sorted, with the count at
#     <base-ref> beside the count now and any variable added or removed.
#
# Usage: tools/surface_report.sh <base-ref>
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
BASE="$1"
git rev-parse --verify --quiet "$BASE^{commit}" >/dev/null ||
  { echo "unknown ref: $BASE" >&2; exit 2; }

echo "== lines against $BASE: added, removed, net =="
git diff --numstat --no-renames "$BASE" -- src tests bench tools |
  awk -F'\t' '
    $1 != "-" {
      n = split($3, part, "/")
      group = (part[1] == "src" && n > 2) ? "src/" part[2] : part[1]
      if (part[1] == "src" && n <= 2) group = $3
      added[group] += $1
      removed[group] += $2
      if (part[1] == "src") {
        added["src"] += $1
        removed["src"] += $2
      }
    }
    END {
      for (g in added) {
        printf "%-18s %+7d %+7d %+7d\n", g, added[g], -removed[g],
               added[g] - removed[g]
      }
    }' | sort

# Prints the sorted, distinct LAWS_* names read from the C++ on stdin.
laws_vars() {
  perl -0777 -ne \
    'print "$1\n" while /\b(?:EnvFlag|EnvInt64|getenv)\s*\(\s*"(LAWS_[A-Z0-9_]+)"/g' |
    sort -u
}

BASE_VARS="$(git ls-tree -r --name-only "$BASE" -- src |
  grep -E '\.(cc|h)$' |
  while read -r f; do git show "$BASE:$f"; done | laws_vars)"
NOW_VARS="$(find src -name '*.cc' -o -name '*.h' | sort | xargs cat | laws_vars)"

count() { [[ -z "$1" ]] && echo 0 || wc -l <<<"$1"; }
echo "== LAWS_* variables read in src/: $(count "$BASE_VARS") at $BASE," \
  "$(count "$NOW_VARS") now =="
echo "$NOW_VARS"
comm -13 <(echo "$BASE_VARS") <(echo "$NOW_VARS") | sed 's/^/added:   /'
comm -23 <(echo "$BASE_VARS") <(echo "$NOW_VARS") | sed 's/^/removed: /'
