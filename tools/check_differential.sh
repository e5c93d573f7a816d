#!/usr/bin/env bash
# Differential query-correctness gate. Two phases:
#
#  1. Sweep: builds the suite under ASan+UBSan and runs the seeded
#     generator sweep — every query executed across the executor tier
#     matrix (bytecode @1 thread on the decode path over unindexed
#     tables, the reference, then bytecode @default width and the
#     compressed scan tier at both widths over tables indexed at a tiny
#     block size) and by the row-at-a-time reference oracle, diffed for
#     bit identity, plus the AQP error-bound audit. Any divergence is
#     shrunk and printed with its replay seed.
#  2. Mutation smoke: rebuilds with -DLAWS_TESTING_INJECT_BUG=ON (a
#     guarded off-by-one in the hash-aggregate sweep, a dropped last
#     lane in the bytecode f64 adder, a one-ulp shrink of every
#     zone-map max, a corrupted merge of harvested sufficient
#     statistics, an inverted row-id tie-break in the top-k ORDER BY
#     ... LIMIT lanes' heaps, a lane top-k merge that keeps the later
#     chunk's candidate of two tied ones, a grouping scatter that fills
#     each partition back to front, a filter compaction that drops the
#     first selected row of every morsel after the first, AND a
#     parameter view that hands each group its neighbour's parameters)
#     and asserts the harness flags all nine — proof the oracle
#     comparison, the tier matrix, the learning self-check and the AQP
#     bound audit can actually fail.
#
# Usage: tools/check_differential.sh
#   LAWS_FUZZ_QUERIES      queries in the sweep (default 2000)
#   LAWS_FUZZ_SEED         base seed (default harness-chosen)
#   LAWS_DIFF_BUILD_DIR    sanitizer build tree (default build-asan, the
#                          ASan+UBSan tree every check script shares)
#   LAWS_DIFF_MUTANT_DIR   mutant build tree (default build-diff-mutant)
#   LAWS_DIFF_JOBS         parallel build jobs (default nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${LAWS_DIFF_BUILD_DIR:-build-asan}"
MUTANT_DIR="${LAWS_DIFF_MUTANT_DIR:-build-diff-mutant}"
JOBS="${LAWS_DIFF_JOBS:-$(nproc)}"
QUERIES="${LAWS_FUZZ_QUERIES:-2000}"

cmake -B "$BUILD_DIR" -S . -DLAWS_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS" --target differential_test

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

echo "== differential sweep: $QUERIES queries under ASan/UBSan =="
LAWS_FUZZ_QUERIES="$QUERIES" "$BUILD_DIR/tests/differential_test"

echo "== mutation smoke: injected aggregate + bytecode + zone-map + harvest + top-k + lane top-k merge + grouping + morsel + parameter-view bugs must be caught =="
cmake -B "$MUTANT_DIR" -S . -DLAWS_TESTING_INJECT_BUG=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$MUTANT_DIR" -j "$JOBS" --target differential_test
"$MUTANT_DIR/tests/differential_test" \
  --gtest_filter='DifferentialTest.MutationSmokeCatchesInjectedBug:DifferentialTest.MutationSmokeCatchesInjectedBytecodeBug:DifferentialTest.MutationSmokeCatchesInjectedZoneMapBug:DifferentialTest.MutationSmokeCatchesInjectedHarvestBug:DifferentialTest.MutationSmokeCatchesInjectedTopKBug:DifferentialTest.MutationSmokeCatchesInjectedLaneTopKBug:DifferentialTest.MutationSmokeCatchesInjectedGroupingBug:DifferentialTest.MutationSmokeCatchesInjectedMorselBug:DifferentialTest.MutationSmokeCatchesInjectedParameterBug'

echo "Differential gate passed: $QUERIES queries agreed with the oracle" \
     "across the bytecode/compressed tier matrix (zero" \
     "mismatches, zero AQP bound violations) and the harness detected all" \
     "nine injected bugs."
