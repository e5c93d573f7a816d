#!/usr/bin/env bash
# Database-learning gate (DESIGN.md §17). Four phases:
#
#  1. Unit + differential under ASan+UBSan: the learn test suite (harvest
#     dedupe/reset/taint, promotion, interval-tightening refinement,
#     drift flag/reject/refit, eviction, snapshot publication) plus the
#     learning-aware differential sweep — exact answers with harvesting
#     on must stay bit-identical to the learning-off reference, AQP
#     answers must pass the interval audit, and every case's merged
#     sufficient statistics must match a single-pass re-accumulation.
#  2. The same learn suite under TSan: background maintenance ticks
#     racing N querying sessions and an ingest writer, epoch
#     monotonicity, and pinned readers never observing a mid-refit model
#     are the racy parts of the design.
#  3. Mutation smoke: rebuilds with -DLAWS_TESTING_INJECT_BUG=ON (which
#     corrupts one merged sufficient statistic in IncrementalOls::Merge)
#     and asserts the harvest self-check catches it — proof the
#     statistics comparison can actually fail.
#  4. End-to-end shell check: `learning on`, a harvesting scan, a
#     maintenance tick, and a model-served query through the real
#     lawsdb_shell binary, with the EXPLAIN ANALYZE `learning:` line and
#     the promotion visible in `learning status`.
#
# Usage: tools/check_learning.sh
#   LAWS_LEARN_ASAN_DIR  ASan build tree (default build-asan, the ASan+UBSan
#                        tree every check script shares)
#   LAWS_LEARN_TSAN_DIR  TSan build tree (default build-tsan, shared with
#                        check_tsan.sh)
#   LAWS_LEARN_MUTANT_DIR mutant build tree (default build-diff-mutant)
#   LAWS_LEARN_JOBS      parallel build jobs (default nproc)
#   LAWS_LEARN_FUZZ_QUERIES  queries in the learning sweep (default 3000)
set -euo pipefail

cd "$(dirname "$0")/.."
ASAN_DIR="${LAWS_LEARN_ASAN_DIR:-build-asan}"
TSAN_DIR="${LAWS_LEARN_TSAN_DIR:-build-tsan}"
MUTANT_DIR="${LAWS_LEARN_MUTANT_DIR:-build-diff-mutant}"
JOBS="${LAWS_LEARN_JOBS:-$(nproc)}"
QUERIES="${LAWS_LEARN_FUZZ_QUERIES:-3000}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
# LAWS_THREADS>1 so the background-tick pool actually fans out on 1-core CI.
export LAWS_THREADS="${LAWS_THREADS:-4}"

echo "== build (ASan+UBSan) =="
cmake -B "$ASAN_DIR" -S . -DLAWS_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" -j "$JOBS" \
  --target learn_test differential_test lawsdb_shell

echo "== learn suite (ASan/UBSan) =="
"$ASAN_DIR/tests/learn_test"

echo "== learning differential sweep: $QUERIES queries (ASan/UBSan) =="
LAWS_LEARN_FUZZ_QUERIES="$QUERIES" "$ASAN_DIR/tests/differential_test" \
  --gtest_filter='DifferentialTest.LearningSweepMatchesReference:DifferentialTest.HarvestProbeAgreesWhenHealthy'

echo "== build (TSan) =="
cmake -B "$TSAN_DIR" -S . -DLAWS_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$JOBS" --target learn_test

echo "== learn suite incl. concurrency soak (TSan) =="
"$TSAN_DIR/tests/learn_test"

echo "== mutation smoke: corrupted statistics merge must be caught =="
cmake -B "$MUTANT_DIR" -S . -DLAWS_TESTING_INJECT_BUG=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$MUTANT_DIR" -j "$JOBS" --target differential_test
"$MUTANT_DIR/tests/differential_test" \
  --gtest_filter='DifferentialTest.MutationSmokeCatchesInjectedHarvestBug'

echo "== end-to-end shell: harvest -> tick -> model-served query =="
SHELL_BIN="$ASAN_DIR/examples/lawsdb_shell"
CSV="$(mktemp --suffix=.csv)"
OUT="$(mktemp)"
trap 'rm -f "$CSV" "$OUT"' EXIT
python3 - "$CSV" <<'PY'
import math, sys
with open(sys.argv[1], "w") as f:
    f.write("t,reading\n")
    for rep in range(12):
        for t in (1, 2, 4, 8, 16, 32, 64, 128):
            y = 2.5 + 0.8 * math.log(t) + 0.01 * math.sin(rep * 1.7 + t)
            f.write(f"{t},{y:.9f}\n")
PY
"$SHELL_BIN" >"$OUT" 2>&1 <<EOF
import $CSV signals t:double,reading:double
learning on
explain analyze SELECT t, reading FROM signals WHERE t >= 1
learning tick
explain analyze SELECT AVG(reading) FROM signals WHERE t = 8
learning status
quit
EOF
grep -q "learning: state=on" "$OUT" ||
  { echo "FAIL: EXPLAIN ANALYZE lost its learning: line"; cat "$OUT"; exit 1; }
grep -q "answered by: model" "$OUT" ||
  { echo "FAIL: the harvested model never served a query"; cat "$OUT"; exit 1; }
grep -Eq "promoted=[1-9]" "$OUT" ||
  { echo "FAIL: learning status shows no promotion"; cat "$OUT"; exit 1; }

echo "Learning gate passed: the learn suite held under ASan/UBSan and TSan,"
echo "the $QUERIES-query learning sweep matched the learning-off reference"
echo "bit for bit, the injected merge corruption was caught, and the shell"
echo "harvested, promoted, and served a model end to end."
