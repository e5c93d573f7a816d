#include "query/expr_eval.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/governor.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "query/bytecode.h"
#include "query/vector_eval.h"

namespace laws {
namespace {

/// FilterRows' unit of work: 16 VM batches, the grouping's morsel, four
/// of the block index's 4096-row blocks.
constexpr size_t kFilterMorselRows = 16 * kExprBatchSize;

/// Morsels per chunk at least: inputs under eight morsels (128K rows) run
/// on the calling thread.
constexpr size_t kFilterMorselsPerChunk = 4;

Result<CompiledExpr> CompileWithMetrics(const Expr& expr, const Table& table,
                                        std::string* disassembly) {
  static Counter* compiled =
      MetricsRegistry::Global().GetCounter("expr.compiled");
  static MetricHistogram* compile_micros =
      MetricsRegistry::Global().GetHistogram("expr.compile_micros");
  Timer timer;
  Result<CompiledExpr> program = CompileExpr(expr, table.schema());
  compile_micros->Record(timer.ElapsedMicros());
  if (!program.ok()) return program.status();
  compiled->Add(1);
  if (disassembly != nullptr) *disassembly = program->ToString();
  return program;
}

BatchEvaluator& ThreadEvaluator() {
  // One evaluator per thread keeps scratch registers warm across queries
  // without sharing mutable state between pool workers.
  thread_local BatchEvaluator ev;
  return ev;
}

}  // namespace

Result<Column> EvaluateExpr(const Expr& expr, const Table& table,
                            std::string* disassembly) {
  LAWS_ASSIGN_OR_RETURN(const CompiledExpr program,
                        CompileWithMetrics(expr, table, disassembly));
  return ThreadEvaluator().Run(program, table);
}

Result<Value> EvaluateConstant(const Expr& expr) {
  if (expr.kind == ExprKind::kLiteral) return expr.literal;
  LAWS_ASSIGN_OR_RETURN(const CompiledExpr program,
                        CompileExpr(expr, Schema{}));
  return ThreadEvaluator().RunConstant(program);
}

Result<std::vector<uint32_t>> FilterRows(
    const Expr& predicate, const Table& table, std::string* disassembly,
    const std::vector<RowRange>* ranges) {
  static Counter* batches_counter =
      MetricsRegistry::Global().GetCounter("expr.batches");
  LAWS_ASSIGN_OR_RETURN(const CompiledExpr program,
                        CompileWithMetrics(predicate, table, disassembly));
  // A non-boolean predicate is a static error: it fails before any row
  // is evaluated.
  if (program.result_type != DataType::kBool) {
    return Status::TypeMismatch("WHERE predicate is not boolean");
  }

  // Morsels are counted from each range's start, so every batch covers
  // the rows a serial sweep's batch covers and the lowest failing morsel
  // raises the error a serial sweep raises first. Each morsel owns the
  // slice of `selected` that starts at its first evaluated row.
  struct Morsel {
    size_t begin;
    size_t end;
    size_t slice;  // offset of the morsel's slice in `selected`
    size_t count = 0;  // TRUE rows written to the slice
    uint64_t batches = 0;
    Status error;
  };
  const RowRange whole{0, table.num_rows()};
  const std::span<const RowRange> todo =
      ranges != nullptr ? std::span<const RowRange>(*ranges)
                        : std::span<const RowRange>(&whole, 1);
  std::vector<Morsel> morsels;
  size_t evaluated = 0;
  for (const RowRange& range : todo) {
    for (size_t b = range.begin; b < range.end; b += kFilterMorselRows) {
      const size_t e = std::min(range.end, b + kFilterMorselRows);
      morsels.push_back({b, e, evaluated, 0, 0, Status::OK()});
      evaluated += e - b;
    }
  }

  // Column-sized buffers come from the calling thread (DESIGN.md §6).
  std::vector<uint32_t> selected(evaluated);
  ParallelForChunks(
      0, morsels.size(),
      [&](size_t lo, size_t hi) {
        BatchEvaluator& ev = ThreadEvaluator();
        for (size_t m = lo; m < hi; ++m) {
          Morsel& morsel = morsels[m];
          Result<size_t> n =
              ev.FilterMorsel(program, table, morsel.begin, morsel.end,
                              selected.data() + morsel.slice, &morsel.batches);
          if (!n.ok()) {
            // Later morsels of this chunk cannot hold a lower error.
            morsel.error = n.status();
            return;
          }
          morsel.count = *n;
        }
      },
      {.grain = kFilterMorselsPerChunk});
  // A tripped governor skips chunk bodies and leaves their slices
  // unwritten, so its error comes before any morsel's.
  LAWS_GOVERNOR_POLL();
  for (const Morsel& morsel : morsels) {
    if (!morsel.error.ok()) return morsel.error;
  }

  // Compact the slices in morsel order: the selection stays ascending and
  // the same at every lane count.
  size_t kept = 0;
  uint64_t batches = 0;
  for (size_t m = 0; m < morsels.size(); ++m) {
    const uint32_t* slice = selected.data() + morsels[m].slice;
    size_t n = morsels[m].count;
#ifdef LAWS_TESTING_INJECT_BUG
    // Planted mutant for the differential smoke test: every morsel after
    // the first loses its first selected row.
    if (m > 0 && n > 0) {
      ++slice;
      --n;
    }
#endif
    std::memmove(selected.data() + kept, slice, n * sizeof(uint32_t));
    kept += n;
    batches += morsels[m].batches;
  }
  selected.resize(kept);
  // Added on the calling thread, where EXPLAIN ANALYZE's sink sees it
  // (DESIGN.md §10).
  batches_counter->Add(batches);
  return selected;
}

}  // namespace laws
