#ifndef LAWSDB_QUERY_EXPR_EVAL_H_
#define LAWSDB_QUERY_EXPR_EVAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "query/ast.h"
#include "storage/table.h"

namespace laws {

/// The expression engine's entry points. Each compiles the expression
/// once (bytecode.h) and runs it batched on the calling thread's register
/// machine (vector_eval.h). A static error — a type, arity, unknown
/// function or column, an aggregate in scalar context — fails before any
/// row is evaluated; the rest are data-dependent (division by zero,
/// int64 overflow, NULLIF of a string and a number on a row where both
/// are non-NULL). SQL NULL semantics: NULL propagates through
/// arithmetic/comparisons; AND/OR use three-valued logic (DESIGN.md §11).
///
/// EvaluateExpr and FilterRows bump the `expr.compiled` and
/// `expr.batches` counters and the `expr.compile_micros` histogram. When
/// `disassembly` is non-null it receives the compiled program's dump (for
/// EXPLAIN ANALYZE).

/// Evaluates a scalar expression (no aggregates) over every row of `table`,
/// producing a column of table.num_rows() values.
Result<Column> EvaluateExpr(const Expr& expr, const Table& table,
                            std::string* disassembly = nullptr);

/// Evaluates an expression with no column references to a single Value.
/// A literal is returned as is, without compiling; nothing is metered.
Result<Value> EvaluateConstant(const Expr& expr);

/// Evaluates a boolean predicate over the table and returns the indices of
/// rows where it is TRUE (NULL and FALSE rows are excluded), ascending.
/// Only the rows of `ranges` (ascending, disjoint) are evaluated; nullptr
/// means every row. A predicate that is not boolean is a static
/// TypeMismatch. The program is compiled once on the calling thread; the
/// rows run as 16,384-row morsels on the pool's lanes, each into its own
/// slice of one buffer the caller sizes, compacted in morsel order — so
/// the selection, the `expr.batches` count and a data error are the
/// same at every lane count (DESIGN.md §6, §13).
Result<std::vector<uint32_t>> FilterRows(
    const Expr& predicate, const Table& table,
    std::string* disassembly = nullptr,
    const std::vector<RowRange>* ranges = nullptr);

}  // namespace laws

#endif  // LAWSDB_QUERY_EXPR_EVAL_H_
