#ifndef LAWSDB_QUERY_EXECUTOR_H_
#define LAWSDB_QUERY_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "query/ast.h"
#include "storage/catalog.h"

namespace laws {

/// Executes a parsed SELECT against the catalog. This is the *exact* query
/// path: full scans, filters, hash aggregation. The approximate path
/// (laws::aqp) answers the same statements from captured models instead.
Result<Table> ExecuteSelect(const Catalog& catalog,
                            const SelectStatement& stmt);

/// Parses and executes SQL text.
Result<Table> ExecuteQuery(const Catalog& catalog, const std::string& sql);

/// Executes a SELECT against an explicit table (ignores the FROM name).
/// Used by the AQP layer to run rewritten plans over reconstructed data.
Result<Table> ExecuteSelectOnTable(const Table& table,
                                   const SelectStatement& stmt);

/// Three-way comparison defining the total order used by ORDER BY:
/// numbers (int64/double/bool, compared as doubles) < NaN < strings <
/// NULL, ascending. Every NaN compares equal to every other NaN, and -0.0
/// equals 0.0, so the order is a valid strict weak ordering even over
/// NaN-bearing keys.
///
/// The executor does not call this per comparison: it maps each typed key
/// column to order-preserving uint64 codes once (DESIGN.md §11). This
/// boxed comparator is the reference those codes are tested against. A
/// column holds one type, so the number-vs-string ranking only matters
/// for comparing Values of different columns.
int CompareOrderValues(const Value& a, const Value& b);

/// ORDER BY's normalized keys: one uint64 per row of `col` whose unsigned
/// order is CompareOrderValues' order of the row values, ties included;
/// DESC inverts every code. Numbers map through their double value, every
/// NaN to one code above +inf, a string to a code above that by its rank
/// in the column's dictionary, and NULL to the top code. Number, NaN and
/// NULL codes are the same in every column; string codes only compare
/// within one column. Polls the current governor.
Result<std::vector<uint64_t>> OrderCodes(const Column& col, bool ascending);

/// Renders the execution plan for a statement as indented text, one
/// operator per line, innermost (scan) last — a minimal EXPLAIN for
/// diagnostics and tests.
Result<std::string> ExplainSelect(const Catalog& catalog,
                                  const SelectStatement& stmt);
Result<std::string> ExplainQuery(const Catalog& catalog,
                                 const std::string& sql);

/// EXPLAIN ANALYZE over the exact engine: actually executes the query
/// under a TraceSink and renders the measured per-stage plan tree — each
/// operator with rows in/out and wall time — followed by a result-
/// cardinality/total-time line. The hybrid (model-vs-exact) variant lives
/// on HybridQueryEngine::ExplainAnalyze, which adds the arbitration
/// decision to the tree.
Result<std::string> ExplainAnalyzeQuery(const Catalog& catalog,
                                        const std::string& sql);

/// EXPLAIN ANALYZE's `expr:` and `scan:` lines, shared by the exact and
/// hybrid engines: construction snapshots the process-global expr.* and
/// scan.* counters, and Render() prints their deltas since then as
/// "expr: compiled=N batches=N" and "scan: engine=... blocks=N ...".
class ExplainCounterLines {
 public:
  ExplainCounterLines();
  std::string Render() const;

 private:
  std::array<uint64_t, 6> start_{};
};

}  // namespace laws

#endif  // LAWSDB_QUERY_EXECUTOR_H_
