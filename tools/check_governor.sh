#!/usr/bin/env bash
# Resource-governor robustness gate. Four phases:
#
#  1. Unit + integration: the governor test suite (token/deadline/budget
#     semantics, charge/release symmetry, ParallelFor propagation,
#     degradation rules, fault sites, malformed LAWS_* knobs) and the
#     thread-pool swap-race regression, under ASan+UBSan.
#  2. Chaos sweep (ASan+UBSan): generated queries under random governor
#     regimes — pre/mid-flight cancels, tiny and generous deadlines and
#     budgets, faults armed at governor/poll and governor/alloc — across
#     random scan/thread tiers. Every case must finish bit-identical to
#     its ungoverned reference or stop with a clean typed governor error.
#  3. The same chaos sweep under TSan (concurrent Cancel() and pool
#     resizes are the racy part of the design).
#  4. End-to-end shell check: `timeout`, `membudget` and `cancel` drive a
#     real query to each typed error through the lawsdb_shell binary, and
#     the governor line shows up in EXPLAIN ANALYZE.
#
# The default sweep sizes keep a laptop run short; the acceptance soak is
#   LAWS_CHAOS_QUERIES=10000 tools/check_governor.sh
#
# Usage: tools/check_governor.sh
#   LAWS_CHAOS_QUERIES   chaos cases per sanitizer (default 2000)
#   LAWS_CHAOS_SEED      base seed (default harness-chosen)
#   LAWS_GOV_ASAN_DIR    ASan build tree (default build-asan, the ASan+UBSan
#                        tree every check script shares)
#   LAWS_GOV_TSAN_DIR    TSan build tree (default build-tsan, shared with
#                        check_tsan.sh)
#   LAWS_GOV_JOBS        parallel build jobs (default nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
ASAN_DIR="${LAWS_GOV_ASAN_DIR:-build-asan}"
TSAN_DIR="${LAWS_GOV_TSAN_DIR:-build-tsan}"
JOBS="${LAWS_GOV_JOBS:-$(nproc)}"
QUERIES="${LAWS_CHAOS_QUERIES:-2000}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

echo "== build (ASan+UBSan) =="
cmake -B "$ASAN_DIR" -S . -DLAWS_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" -j "$JOBS" \
  --target governor_test thread_pool_test differential_test lawsdb_shell

echo "== governor unit + integration tests (ASan/UBSan) =="
"$ASAN_DIR/tests/governor_test"
"$ASAN_DIR/tests/thread_pool_test"

echo "== governor chaos sweep: $QUERIES cases (ASan/UBSan) =="
LAWS_CHAOS_QUERIES="$QUERIES" "$ASAN_DIR/tests/differential_test" \
  --gtest_filter='DifferentialTest.GovernorChaosSweepHoldsInvariant'

echo "== build (TSan) =="
cmake -B "$TSAN_DIR" -S . -DLAWS_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target governor_test thread_pool_test differential_test

echo "== governor unit + swap-race tests (TSan) =="
"$TSAN_DIR/tests/governor_test"
"$TSAN_DIR/tests/thread_pool_test"

echo "== governor chaos sweep: $QUERIES cases (TSan) =="
LAWS_CHAOS_QUERIES="$QUERIES" "$TSAN_DIR/tests/differential_test" \
  --gtest_filter='DifferentialTest.GovernorChaosSweepHoldsInvariant'

echo "== end-to-end shell: timeout / membudget / cancel =="
SHELL_BIN="$ASAN_DIR/examples/lawsdb_shell"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
"$SHELL_BIN" >"$OUT" 2>&1 <<'EOF'
gen lofar 64 4096
cancel
sql SELECT COUNT(intensity) FROM measurements
timeout 0
membudget 0
sql SELECT source, AVG(intensity) FROM measurements GROUP BY source ORDER BY source LIMIT 3
explain analyze SELECT AVG(intensity) FROM measurements
quit
EOF
grep -q "next query will be canceled" "$OUT" ||
  { echo "FAIL: cancel command missing"; cat "$OUT"; exit 1; }
grep -q "error: Canceled" "$OUT" ||
  { echo "FAIL: pre-armed cancel did not stop the query"; cat "$OUT"; exit 1; }
grep -q "governor: deadline=" "$OUT" ||
  { echo "FAIL: EXPLAIN ANALYZE lost its governor line"; cat "$OUT"; exit 1; }

# A 1 MiB budget cannot hold the aggregate's materializations at this
# scale; the shell must print the typed error, then recover and answer
# the same query once the budget is lifted.
"$SHELL_BIN" >"$OUT" 2>&1 <<'EOF'
gen lofar 64 65536
membudget 1
sql SELECT source, AVG(intensity), COUNT(intensity) FROM measurements GROUP BY source
membudget 0
sql SELECT COUNT(intensity) FROM measurements
quit
EOF
grep -q "error: ResourceExhausted" "$OUT" ||
  { echo "FAIL: membudget did not stop the query"; cat "$OUT"; exit 1; }
grep -q "(1 rows)" "$OUT" ||
  { echo "FAIL: shell did not recover after a budget stop"; cat "$OUT"; exit 1; }

echo "Governor gate passed: unit/integration suites, $QUERIES-case chaos"
echo "sweeps under ASan/UBSan and TSan, and the shell's timeout/membudget/"
echo "cancel commands all held the no-crash, clean-typed-error invariant."
