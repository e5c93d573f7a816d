#ifndef LAWSDB_TESTING_DIFFERENTIAL_H_
#define LAWSDB_TESTING_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "query/ast.h"
#include "storage/table.h"
#include "testing/query_gen.h"

namespace laws {
namespace testing {

/// Configuration for a differential sweep.
struct DiffOptions {
  uint64_t seed = 0x1AB5;
  size_t num_queries = 2000;
  /// Repro evaluations the shrinker may spend per mismatch.
  size_t shrink_budget = 400;
  /// Stop sweeping after this many mismatches (each is expensive to
  /// shrink and one is already a failure).
  size_t max_reported = 8;
};

/// One diagnosed disagreement, replayable by seed.
struct DiffMismatch {
  uint64_t case_seed = 0;
  std::string sql;
  std::string reason;
  std::string shrunk_sql;
  std::string shrunk_tables;
};

struct DiffReport {
  size_t queries = 0;
  /// Cases where oracle and executor agreed on result rows.
  size_t agree_rows = 0;
  /// Cases where both sides errored (error-ness is compared, messages are
  /// not).
  size_t agree_errors = 0;
  /// Generator emitted SQL the parser rejected — a harness bug, counted
  /// separately so it can be asserted to zero.
  size_t parse_failures = 0;
  std::vector<DiffMismatch> mismatches;

  std::string Summary() const;
};

/// Compares two result tables: schema (names + types) and values must be
/// bit-identical — every NaN is one equivalence class, but -0.0 and +0.0
/// are distinct. With `order_sensitive` rows are compared in order,
/// otherwise as multisets. On mismatch fills *why.
bool TablesEquivalent(const Table& a, const Table& b, bool order_sensitive,
                      std::string* why);

/// Outcome of diffing one statement across the oracle and the executor
/// tier matrix: bytecode@1-thread on the decode path is the reference the
/// oracle is compared with; bytecode@default-threads and the compressed
/// scan tier at both widths must match it bit for bit, or the case
/// fails.
struct CaseDiff {
  /// Both sides raised an error (counted as agreement).
  bool agreed_error = false;
  /// Empty = agreement; otherwise a human-readable divergence.
  std::string reason;
};

CaseDiff DiffCase(const std::vector<GenTable>& tables,
                  const SelectStatement& stmt);

/// The differential sweep: generate → parse → run on both engines → diff,
/// shrinking every mismatch before reporting it.
DiffReport RunDifferential(const DiffOptions& opts);

/// Configuration for the governor chaos sweep.
struct ChaosOptions {
  uint64_t seed = 0xC4A05;
  size_t num_queries = 300;
  /// Stop collecting after this many violations (each report is large).
  size_t max_reported = 8;
};

struct ChaosReport {
  size_t queries = 0;
  /// Governed run completed and matched the ungoverned reference
  /// bit-for-bit on the same tier.
  size_t completed_identical = 0;
  /// Governed run stopped with a clean typed governor error
  /// (kCanceled / kDeadlineExceeded / kResourceExhausted).
  size_t governor_stopped = 0;
  /// Both runs raised a (non-governor) query error.
  size_t agreed_errors = 0;
  /// Invariant breaches: wrong rows, a non-governor error the reference
  /// did not raise, or a success where the reference failed. Each entry
  /// is replayable by the seed it names. Crashes never reach this list —
  /// they kill the sanitizer-instrumented process, which is the point.
  std::vector<std::string> violations;

  std::string Summary() const;
};

/// The chaos leg: every generated case runs once ungoverned (the
/// reference) and once under a randomly drawn governor regime — a cancel
/// armed up front, a cancel fired from another thread mid-flight, a tiny
/// or generous deadline, a tiny or generous memory budget, or a fault
/// armed at the governor/poll or governor/alloc site — on a randomly
/// drawn scan tier and thread count. Invariant: the governed run either
/// matches the reference exactly (rows bit-identical, or both error) or
/// fails with a clean governor error. Disarms all injected faults before
/// returning.
ChaosReport RunGovernorChaos(const ChaosOptions& opts);

}  // namespace testing
}  // namespace laws

#endif  // LAWSDB_TESTING_DIFFERENTIAL_H_
