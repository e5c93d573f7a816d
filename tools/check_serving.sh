#!/usr/bin/env bash
# Serving-layer gate. Three phases:
#
#  1. Unit + integration under ASan+UBSan: the serve test suite — epoch
#     monotonicity, failed commits staying invisible, pinned snapshots
#     frozen across copy-on-write commits, exact session caps, admission
#     timeouts with typed kResourceExhausted rejections, per-session
#     cancel isolation, atomic type-checked ingest, and the concurrent
#     sessions-vs-serial-replay equivalence check.
#  2. The same suite under TSan: snapshot pin/commit races, the admission
#     condvar handing slots across threads, foreign-thread interrupts,
#     and builders at two block sizes racing queries to install one
#     table's block index while other tables come and go are the racy
#     parts of the design.
#  3. End-to-end shell check: the `concurrent` command fans one query out
#     over N real sessions through the lawsdb_shell binary and every one
#     must succeed; `cancel` and the epoch counter must keep working with
#     the serving layer underneath.
#
# Usage: tools/check_serving.sh
#   LAWS_SERVE_ASAN_DIR  ASan build tree (default build-asan, the ASan+UBSan
#                        tree every check script shares)
#   LAWS_SERVE_TSAN_DIR  TSan build tree (default build-tsan, shared with
#                        check_tsan.sh)
#   LAWS_SERVE_JOBS      parallel build jobs (default nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
ASAN_DIR="${LAWS_SERVE_ASAN_DIR:-build-asan}"
TSAN_DIR="${LAWS_SERVE_TSAN_DIR:-build-tsan}"
JOBS="${LAWS_SERVE_JOBS:-$(nproc)}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
# LAWS_THREADS>1 so the pool actually fans out even on 1-core CI.
export LAWS_THREADS="${LAWS_THREADS:-4}"

echo "== build (ASan+UBSan) =="
cmake -B "$ASAN_DIR" -S . -DLAWS_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" -j "$JOBS" --target serve_test lawsdb_shell

echo "== serving suite (ASan/UBSan) =="
"$ASAN_DIR/tests/serve_test"

echo "== build (TSan) =="
cmake -B "$TSAN_DIR" -S . -DLAWS_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$JOBS" --target serve_test

echo "== serving suite (TSan) =="
"$TSAN_DIR/tests/serve_test"

echo "== end-to-end shell: concurrent sessions, cancel, epochs =="
SHELL_BIN="$ASAN_DIR/examples/lawsdb_shell"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
"$SHELL_BIN" >"$OUT" 2>&1 <<'EOF'
gen lofar 64 4096
concurrent 4 SELECT source, AVG(intensity) FROM measurements GROUP BY source
cancel
sql SELECT COUNT(intensity) FROM measurements
sql SELECT COUNT(intensity) FROM measurements
tables
quit
EOF
grep -q "concurrent: ok=4 err=0" "$OUT" ||
  { echo "FAIL: concurrent sessions did not all succeed"; cat "$OUT"; exit 1; }
grep -q "error: Canceled" "$OUT" ||
  { echo "FAIL: armed cancel did not stop the next query"; cat "$OUT"; exit 1; }
grep -q "(1 rows)" "$OUT" ||
  { echo "FAIL: shell did not recover after the cancel"; cat "$OUT"; exit 1; }
grep -q "epoch " "$OUT" ||
  { echo "FAIL: tables command lost its epoch line"; cat "$OUT"; exit 1; }

echo "Serving gate passed: the serve suite held under ASan/UBSan and TSan,"
echo "and the shell's concurrent/cancel/epoch behaviour survived end to end."
