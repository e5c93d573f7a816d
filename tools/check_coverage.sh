#!/usr/bin/env bash
# Line-coverage report: builds with -DLAWS_COVERAGE=ON (gcov
# instrumentation), runs the full test suite, then aggregates gcov's JSON
# output into per-directory line coverage for src/. A source line counts as
# covered when any test binary executed it; headers included from several
# translation units are unioned, not double-counted.
#
# Usage: tools/check_coverage.sh [ctest-args...]
#   LAWS_COV_BUILD_DIR  override the build tree (default: build-cov)
#   LAWS_COV_JOBS       parallel build jobs (default: nproc)
#   LAWS_COV_MIN        fail if total line coverage (%) falls below this
#   LAWS_COV_BYTECODE_MIN  per-file floor (%) for the correctness-critical
#                          scan/expression tiers (src/query/bytecode* +
#                          vector_eval* + compressed_scan* +
#                          query_context*, src/compress/block_store*,
#                          src/common/governor*, src/storage/grouping*,
#                          and all of src/serve and src/learn);
#                          default 75 — tiers whose bugs only surface as
#                          silent wrong answers (or queries that cannot
#                          be stopped, or snapshot isolation quietly
#                          broken, or a model catalog quietly corrupted
#                          by harvested statistics) must not quietly
#                          lose their tests
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
BUILD_DIR="${LAWS_COV_BUILD_DIR:-build-cov}"
JOBS="${LAWS_COV_JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S . -DLAWS_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"

GCOV_DIR="$BUILD_DIR/gcov-out"
rm -rf "$GCOV_DIR"
mkdir -p "$GCOV_DIR"
(
  cd "$GCOV_DIR"
  find "$ROOT/$BUILD_DIR" -name '*.gcda' -print0 |
    xargs -0 -r gcov --json-format --preserve-paths >/dev/null 2>&1 || true
)

python3 - "$GCOV_DIR" "$ROOT" "${LAWS_COV_MIN:-0}" \
  "${LAWS_COV_BYTECODE_MIN:-75}" <<'PY'
import glob, gzip, json, os, sys
from collections import defaultdict

gcov_dir, root, cov_min = sys.argv[1], sys.argv[2], float(sys.argv[3])
bytecode_min = float(sys.argv[4])
src_prefix = os.path.join(root, "src") + os.sep

# file -> line -> hit (unioned across translation units)
lines = defaultdict(dict)
for path in glob.glob(os.path.join(gcov_dir, "*.gcov.json.gz")):
    with gzip.open(path, "rt") as f:
        data = json.load(f)
    for entry in data.get("files", []):
        name = os.path.normpath(os.path.join(root, entry["file"]))
        if not name.startswith(src_prefix):
            continue
        rel = os.path.relpath(name, root)
        for ln in entry.get("lines", []):
            no = ln["line_number"]
            lines[rel][no] = lines[rel].get(no, False) or ln["count"] > 0

by_dir = defaultdict(lambda: [0, 0])  # dir -> [covered, total]
for rel, linemap in lines.items():
    d = os.path.dirname(rel)
    by_dir[d][0] += sum(1 for hit in linemap.values() if hit)
    by_dir[d][1] += len(linemap)

if not by_dir:
    print("no gcov data found — did the instrumented tests run?")
    sys.exit(1)

print(f"{'directory':<24} {'covered':>9} {'lines':>9} {'pct':>7}")
tot_cov = tot_all = 0
for d in sorted(by_dir):
    cov, total = by_dir[d]
    tot_cov += cov
    tot_all += total
    print(f"{d:<24} {cov:>9} {total:>9} {100.0 * cov / total:>6.1f}%")
pct = 100.0 * tot_cov / tot_all
print(f"{'TOTAL':<24} {tot_cov:>9} {tot_all:>9} {pct:>6.1f}%")

# Per-file floor for the compiled expression tier and the compressed scan
# tier: wrong bytecode or wrong pruning means silently wrong query
# answers, so their sources carry their own gate.
failed = False
for rel in sorted(lines):
    base = os.path.basename(rel)
    in_query = rel.startswith(os.path.join("src", "query")) and (
        base.startswith("bytecode") or base.startswith("vector_eval") or
        base.startswith("compressed_scan") or
        base.startswith("query_context"))
    in_compress = rel.startswith(os.path.join("src", "compress")) and \
        base.startswith("block_store")
    in_common = rel.startswith(os.path.join("src", "common")) and \
        base.startswith("governor")
    in_storage = rel.startswith(os.path.join("src", "storage")) and \
        base.startswith("grouping")
    in_serve = rel.startswith(os.path.join("src", "serve"))
    in_learn = rel.startswith(os.path.join("src", "learn"))
    if not (in_query or in_compress or in_common or in_storage or in_serve
            or in_learn):
        continue
    linemap = lines[rel]
    fcov = sum(1 for hit in linemap.values() if hit)
    fpct = 100.0 * fcov / len(linemap) if linemap else 0.0
    marker = ""
    if bytecode_min > 0 and fpct < bytecode_min:
        marker = f"  << below LAWS_COV_BYTECODE_MIN={bytecode_min:g}%"
        failed = True
    print(f"{rel:<40} {fcov:>7} {len(linemap):>7} {fpct:>6.1f}%{marker}")
if failed:
    sys.exit(1)

if cov_min > 0 and pct < cov_min:
    print(f"coverage {pct:.1f}% is below LAWS_COV_MIN={cov_min}%")
    sys.exit(1)
PY
