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
# atomics and each table's block-index slot is read and filled through
# the atomic shared_ptr functions — differential_test indexes tables and
# runs the compressed tier on pool lanes, so a race in the slot or the
# counters surfaces here.
#
# The serving layer rides in serve_test: concurrent sessions pin
# snapshots while writers copy-and-swap commits, the admission gate's
# condvar hands slots across threads, session interrupts land from
# foreign threads, and builders at two block sizes race queries to
# install one table's block index while other tables are created,
# indexed and dropped — all instrumented here.
# ServerTest.ConcurrentExplainAnalyzeCountsOnlyItsOwnQuery runs two
# sessions' EXPLAIN ANALYZE at once: every Counter::Add also credits the
# TraceSink installed on its thread, so a sink shared across threads
# would race here. TableBlockIndexTest.RacingCallersShareOneBuild sends
# eight threads at one table's empty index slot: one builds under the
# table's build lock while the others wait on it.
#
# WHERE and the row gather run on lanes: FilterRows' morsels write into
# disjoint slices of one caller-sized buffer, each on its lane's
# thread-local evaluator, and Column::Gather's chunks own whole validity
# bytes. FilterLanesTest.SameIdsAtOneTwoAndFourLanes,
# FilterLanesTest.SameErrorAtOneTwoAndFourLanes (bytecode_test),
# GatherLanesTest.EqualsPerRowAppendsAtOneTwoAndFourLanes (storage_test),
# ExplainAnalyzeTest.FilterBatchCountIsTheSameAtOneAndFourLanes
# (query_test) and GovernedQueryTest.LaneFilterAndGatherHonorCancelAndDeadline
# (governor_test) run them on 2 and 4 lanes, so a shared byte or
# scratch register surfaces here.
#
# The image save's encoder runs on lanes: CompressTable's (column, codec)
# trials and (column, block) DEFLATE units are claimed from one atomic
# cursor, blocks deflate into staging buffers handed out under one mutex,
# and the lane whose block is next in its column appends it, and every
# block parked behind it, to the column's payload.
# AutoChoiceTest.CompressTableIsByteIdenticalAtOneTwoAndFourLanes,
# AutoChoiceTest.CompressTableStopsWithinABlockOfACancel and
# StreamingZlibTest.PayloadsEqualOneShotReference (compress_test) run it
# on 2 and 4 lanes, so a buffer handed to two lanes or a join outside the
# lock surfaces here.
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
