#ifndef LAWSDB_QUERY_VECTOR_EVAL_H_
#define LAWSDB_QUERY_VECTOR_EVAL_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/bytecode.h"
#include "storage/table.h"

namespace laws {

/// Batch register machine executing CompiledExpr programs (bytecode.h)
/// over column batches of kExprBatchSize values, with null validity
/// carried as one byte per lane alongside each register. All register
/// storage lives in the evaluator and is reused across batches, runs and
/// queries — the steady state performs zero allocations per batch.
///
/// This is the expression engine's only interpreter. Callers reach it
/// through EvaluateExpr / FilterRows / EvaluateConstant (expr_eval.h),
/// which compile, meter and run on a per-thread evaluator.

/// Batch width. 1–4K is the classic vectorized-execution sweet spot
/// (registers stay in L1/L2, amortizes dispatch ~1000×); tests use small
/// widths to exercise batch-boundary handling.
inline constexpr size_t kExprBatchSize = 1024;

class BatchEvaluator {
 public:
  explicit BatchEvaluator(size_t batch_size = kExprBatchSize);

  /// Executes `program` over every row of `table`, materializing the
  /// result column (type = program.result_type). Errors carry the
  /// data-dependent diagnostics ("division by zero", ...). A program that
  /// only loads a string column returns a copy of that column.
  Result<Column> Run(const CompiledExpr& program, const Table& table);

  /// Filter fast path: returns the indices of rows where `program` is
  /// TRUE (NULL/FALSE excluded), ascending, without ever materializing
  /// the mask column. Only the rows of `ranges` (ascending, disjoint) are
  /// evaluated; nullptr means every row. A program that is not BOOL fails
  /// with TypeMismatch before any row is evaluated.
  Result<std::vector<uint32_t>> RunFilter(
      const CompiledExpr& program, const Table& table,
      const std::vector<RowRange>* ranges = nullptr);

  /// Runs a column-free `program` once, over one row of a table with no
  /// columns, and returns its value — the compiler's constant folder.
  /// Counts no `expr.batches`.
  Result<Value> RunConstant(const CompiledExpr& program);

 private:
  /// One register: typed lanes plus a 1-byte-per-lane null mask (1 =
  /// NULL, matching GatherNumericMasked). `has_nulls` lets ops take a
  /// dense loop that skips mask reads when no lane is NULL. String lanes
  /// view the column dictionary or the program's constant pool.
  struct Slot {
    std::vector<double> f64;
    std::vector<int64_t> i64;
    std::vector<uint8_t> b8;
    std::vector<std::string_view> str;
    std::vector<uint8_t> null8;
    bool has_nulls = false;
  };

  void Provision(const CompiledExpr& program);
  Status RunBatch(const CompiledExpr& program, const Table& table,
                  size_t base, size_t n);

  size_t batch_size_;
  std::vector<Slot> slots_;
};

}  // namespace laws

#endif  // LAWSDB_QUERY_VECTOR_EVAL_H_
