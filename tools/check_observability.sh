#!/usr/bin/env bash
# Observability smoke gate: drives the shell end to end and asserts the
# EXPLAIN ANALYZE / metrics surface works for both arbitration outcomes:
#
#  1. a model-answered query renders a HybridDecision(model-point ...)
#     span tree with per-stage rows and timings plus the "answered by:"
#     decision line;
#  2. an exact-fallback query (COUNT(*)) renders the ExactScan subtree
#     with its fallback reason;
#  3. `metrics` reports the hybrid arbitration counters that those two
#     queries must have bumped, and `metrics reset` zeroes them;
#  4. the expression engine (DESIGN.md §13) is visible: a filtered exact
#     query (with an arithmetic predicate the compressed tier declines)
#     renders the compiled bytecode program and the `expr:` counter
#     line;
#  5. the compressed scan tier (DESIGN.md §14) is visible: on a table of
#     several 4096-row blocks whose prefix is sorted by source, a
#     selective filter on source shows a `zonescan:` Filter detail with
#     pruned blocks followed by the program the VM ran over the rest, the
#     `scan:` line reports nonzero pruning, and the scan.* counters
#     appear in `metrics`.
#
# Usage: tools/check_observability.sh
#   LAWS_OBS_BUILD_DIR  override the build tree (default: build)
#   LAWS_OBS_JOBS       parallel build jobs (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${LAWS_OBS_BUILD_DIR:-build}"
JOBS="${LAWS_OBS_JOBS:-$(nproc)}"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j "$JOBS" --target lawsdb_shell

out="$(printf '%s\n' \
  'gen lofar 100 4000' \
  'fit measurements power_law wavelength intensity group source' \
  'explain analyze SELECT intensity FROM measurements WHERE source = 42 AND wavelength = 0.15' \
  'explain analyze SELECT COUNT(*) FROM measurements' \
  'explain analyze SELECT COUNT(*) FROM measurements WHERE intensity * 2.0 > 0.0' \
  'metrics' \
  'metrics reset' \
  'metrics' \
  'quit' | "$BUILD_DIR/examples/lawsdb_shell")"

fail() {
  echo "FAIL: $1" >&2
  echo "--- shell transcript ---" >&2
  echo "$out" >&2
  exit 1
}

# 1. Model-answered plan: arbitration span with the captured model's id,
#    the reconstructed pipeline stages, rows, timings, and the decision.
grep -q 'HybridDecision(model-point, model 1' <<<"$out" \
  || fail "no model-point HybridDecision span"
grep -q 'ModelPath' <<<"$out" || fail "no ModelPath span"
grep -Eq 'Filter\(.*source = 42.*\)  rows=[0-9]+->[0-9]+' <<<"$out" \
  || fail "no Filter stage with row counts"
grep -Eq 'time=[0-9.]+ ms' <<<"$out" || fail "no per-stage timings"
grep -q 'answered by: model-point (approximate, error bound' <<<"$out" \
  || fail "no approximate decision line"

# 2. Exact fallback: COUNT(*) must take the exact path and say why.
grep -q 'HybridDecision(exact: COUNT(\*)' <<<"$out" \
  || fail "no exact-fallback HybridDecision span"
grep -q 'ExactScan' <<<"$out" || fail "no ExactScan span"
grep -Eq 'HashAggregate\(<global> \| one group\)  rows=4000->1' <<<"$out" \
  || fail "no aggregate stage in the exact plan"
grep -q 'answered by: exact (COUNT(\*)' <<<"$out" \
  || fail "no exact decision line"

# 3. Counters: the two queries above bumped both arbitration outcomes,
#    and the fit phase reported its dispatch tally.
grep -Eq 'aqp\.hybrid\.model_hit +1' <<<"$out" \
  || fail "aqp.hybrid.model_hit != 1"
# Two exact fallbacks now: bare COUNT(*) and the filtered COUNT(*).
grep -Eq 'aqp\.hybrid\.exact_fallback +2' <<<"$out" \
  || fail "aqp.hybrid.exact_fallback != 2"
grep -Eq 'fit\.groups_fitted +100' <<<"$out" \
  || fail "fit.groups_fitted != 100"
grep -q 'metrics reset' <<<"$out" || fail "metrics reset not acknowledged"

# After the reset the second `metrics` dump must not list the hybrid
# counters again (non-zero entries only).
post_reset="${out##*metrics reset}"
if grep -q 'aqp.hybrid.model_hit' <<<"$post_reset"; then
  fail "counters survived metrics reset"
fi

# 4. Expression engine: the filtered exact query's Filter span must carry
#    the compiled program dump, and the expr: accounting line must say
#    something was compiled.
grep -q 'bytecode: ' <<<"$out" || fail "no compiled-program dump in spans"
grep -q 'cmpgt.f64' <<<"$out" || fail "predicate program missing cmpgt.f64"
grep -Eq 'expr: compiled=[1-9][0-9]* batches=[0-9]+' <<<"$out" \
  || fail "no expr: compiled=N batches=N accounting line"

# 5. Compressed scan tier: `gen lofar 5000 60000` puts a 40,000-row
#    prefix sorted by source in front of an interleaved tail, so the
#    source column's zone maps prune most prefix blocks, and the VM runs
#    over the blocks they leave undecided. Assert the whole surface:
#    per-span zonescan detail and its program, the scan: summary line, and
#    the counters.
scan_out="$(printf '%s\n' \
  'gen lofar 5000 60000' \
  'explain analyze SELECT COUNT(*) FROM measurements WHERE source = 1' \
  'metrics' \
  'quit' | "$BUILD_DIR/examples/lawsdb_shell")"
grep -Eq 'zonescan: blocks=[0-9]+ pruned=[1-9][0-9]* taken=[0-9]+ \| bytecode: ' \
  <<<"$scan_out" \
  || { out="$scan_out"; fail "no zonescan Filter detail with pruned blocks and the VM's program"; }
grep -Eq 'scan: blocks=[0-9]+ pruned=[1-9][0-9]* encoded_agg=[0-9]+' \
  <<<"$scan_out" \
  || { out="$scan_out"; fail "scan: line missing or reports zero pruning"; }
grep -Eq 'scan\.blocks_pruned +[1-9]' <<<"$scan_out" \
  || { out="$scan_out"; fail "scan.blocks_pruned counter not reported"; }
grep -Eq 'scan\.index_builds +[1-9]' <<<"$scan_out" \
  || { out="$scan_out"; fail "scan.index_builds counter not reported"; }

echo "Observability gate passed: EXPLAIN ANALYZE (model + exact + bytecode" \
     "tier + compressed scans) and metrics OK."
