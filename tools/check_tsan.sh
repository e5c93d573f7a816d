#!/usr/bin/env bash
# Tier-1 data-race gate: builds the test suite with ThreadSanitizer
# (-DLAWS_SANITIZE=thread) and runs it under ctest. Any race in the
# ThreadPool subsystem or the parallel fitting/compression/generation
# paths fails this script.
#
# Expression-engine state under test here: per-thread VM scratch is
# thread_local and the expr.* metrics counters are the registry's
# atomics — differential_test runs the VM on pool lanes at
# LAWS_THREADS>1, so a race in either surfaces in this gate. Compressed-scan
# state is exercised the same way: the scan.* counters are registry
# atomics and the shared block-index cache is mutex-guarded —
# differential_test registers indexes and runs the compressed tier on
# pool lanes, so a race in the cache or counters surfaces here.
#
# The serving layer rides in serve_test: concurrent sessions pin
# snapshots while writers copy-and-swap commits, the admission gate's
# condvar hands slots across threads, session interrupts land from
# foreign threads, and the block-index cache races builds at two block
# sizes, lookups, table drops and purges — all instrumented here.
#
# Usage: tools/check_tsan.sh [ctest-args...]
#   LAWS_TSAN_BUILD_DIR  override the build tree (default: build-tsan)
#   LAWS_TSAN_JOBS       parallel build jobs (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${LAWS_TSAN_BUILD_DIR:-build-tsan}"
JOBS="${LAWS_TSAN_JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S . -DLAWS_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS"

# second_deadlock_stack aids diagnosis; history_size bumps TSan's per-thread
# memory-access history so long fitting loops don't lose report stacks.
export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1 history_size=4}"
# LAWS_THREADS>1 so the parallel paths actually fan out even on 1-core CI.
export LAWS_THREADS="${LAWS_THREADS:-4}"

ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
echo "TSan-instrumented test suite passed."
