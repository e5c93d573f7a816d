#!/usr/bin/env bash
# Tier-1 memory gate: builds the test suite with AddressSanitizer +
# UndefinedBehaviorSanitizer (-DLAWS_SANITIZE=address,undefined) and runs
# it under ctest. Buffer overruns in the gather/scratch-arena paths, leaks,
# and UB (signed overflow, misaligned loads) in the fit kernels fail this
# script. The bench-only allocation counter is automatically stubbed out in
# sanitizer builds (sanitizers own malloc).
#
# The expression engine is covered here through bytecode_test (VM
# slot/scratch reuse, batch-boundary reads, string lanes at batch widths
# 1-3) and differential_test (every sweep query runs on the VM across the
# tier matrix), so out-of-bounds lane access in the register VM fails
# this gate. The compressed scan
# tier rides the same suite: compressed_scan_test drives zone maps and the
# VM over the blocks they leave undecided directly, and
# differential_test's matrix executes every sweep query through the
# compressed tier over tables indexed at 8-row blocks, so overreads in
# block slicing, the range-limited VM pass, the merge of taken and
# evaluated blocks, or the encoded aggregate folds fail sanitized here
# too.
#
# Usage: tools/check_asan.sh [ctest-args...]
#   LAWS_ASAN_BUILD_DIR  override the build tree (default: build-asan)
#   LAWS_ASAN_JOBS       parallel build jobs (default: nproc)
#   LAWS_FUZZ_QUERIES    differential sweep size (default 2000); the
#   LAWS_FUZZ_SEED       seeded differential_test runs as part of ctest,
#                        so the whole fuzz sweep executes sanitized here
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${LAWS_ASAN_BUILD_DIR:-build-asan}"
JOBS="${LAWS_ASAN_JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S . -DLAWS_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS"

# detect_leaks catches FitScratch/arena lifetime bugs; UBSan aborts on the
# first report so failures surface as test failures, not log noise.
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
# LAWS_THREADS>1 so the parallel paths actually fan out even on 1-core CI.
export LAWS_THREADS="${LAWS_THREADS:-4}"

ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
echo "ASan/UBSan-instrumented test suite passed."
