#!/usr/bin/env bash
# Durability gate: runs the corruption-fuzz sweep and the save-path
# fault-injection matrix (tests/robustness_test.cc), and the column
# decoders' mutated-payload sweep (tests/compress_test.cc), under ASan +
# UBSan.
# The sweep mutates serialized images with seeded bit flips, truncations
# and splices and asserts every mutation is either rejected with a clean
# Status or loads bit-identically; the fault matrix arms each persist/*
# fault point in turn and asserts the previous image survives the failed
# save. A crash, leak, or UB report anywhere in a load path fails this
# script.
#
# Also exercises the LAWS_FAULTS environment interface end to end: a save
# with persist/rename armed via the env var must fail.
#
# Usage: tools/check_robustness.sh [ctest-args...]
#   LAWS_ROBUST_BUILD_DIR  override the build tree (default: build-asan, the
#                          ASan+UBSan tree every check script shares)
#   LAWS_ROBUST_JOBS       parallel build jobs (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${LAWS_ROBUST_BUILD_DIR:-build-asan}"
JOBS="${LAWS_ROBUST_JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S . -DLAWS_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS" --target robustness_test common_test \
  core_test compress_test lawsdb_shell

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
export LAWS_THREADS="${LAWS_THREADS:-4}"

# The sweep + fault matrix, plus the parser-hardening regression tests in
# common_test, the persistence round-trips in core_test and every column
# codec's malformed and mutated payloads in compress_test.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'robustness_test|common_test|core_test|compress_test' "$@"

# End-to-end check of the LAWS_FAULTS env interface: armed via the
# environment (not the API), a save must fail at the rename fault point
# and leave no image behind. The shell reads commands from stdin.
img="$(mktemp -u /tmp/lawsdb_faults_env.XXXXXX.bin)"
out="$(printf 'save %s\nquit\n' "$img" \
  | LAWS_FAULTS="persist/rename=error" "$BUILD_DIR/examples/lawsdb_shell")"
if ! grep -q "injected fault at persist/rename" <<<"$out"; then
  echo "FAIL: save did not report the injected rename fault:" >&2
  echo "$out" >&2
  exit 1
fi
if [ -e "$img" ]; then
  echo "FAIL: $img exists after a failed (fault-injected) save" >&2
  rm -f "$img"
  exit 1
fi

echo "Robustness gate passed: corruption sweep + fault matrix clean under ASan/UBSan."
