#ifndef LAWSDB_QUERY_EXECUTOR_H_
#define LAWSDB_QUERY_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/trace.h"
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

/// Executes a SELECT against an explicit table (ignores the FROM name and
/// any JOIN). Used by the AQP layer to run statements over reconstructed
/// data.
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

/// EXPLAIN: renders the plan the executor runs for a statement, one
/// operator per line, outermost first and the scan last, each with the
/// detail its EXPLAIN ANALYZE span starts with (the scan adds the table's
/// row count). A statement the planner rejects fails with the executor's
/// error.
Result<std::string> ExplainSelect(const Catalog& catalog,
                                  const SelectStatement& stmt);
Result<std::string> ExplainQuery(const Catalog& catalog,
                                 const std::string& sql);

/// EXPLAIN ANALYZE over the exact engine: actually executes the query
/// under a TraceSink and renders it with RenderExplainAnalyze. The hybrid
/// (model-vs-exact) variant lives on HybridQueryEngine::ExplainAnalyze,
/// which adds the arbitration decision to the tree.
Result<std::string> ExplainAnalyzeQuery(const Catalog& catalog,
                                        const std::string& sql);

/// EXPLAIN ANALYZE's text for a query that ran under `sink`, shared by the
/// exact and hybrid engines: the span tree (each operator with rows in/out
/// and wall time), the counts credited to the sink as "expr: compiled=N
/// batches=N" and "scan: blocks=N pruned=N encoded_agg=N", `engine_lines`
/// verbatim, the current governor's line, and then "query stopped:
/// <status>" when a governor limit stopped the query or "N rows in T ms"
/// when it finished. Any other error in `outcome` is returned as is.
Result<std::string> RenderExplainAnalyze(const TraceSink& sink,
                                         const Status& outcome, size_t rows,
                                         double millis,
                                         std::string_view engine_lines = {});

}  // namespace laws

#endif  // LAWSDB_QUERY_EXECUTOR_H_
