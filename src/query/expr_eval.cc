#include "query/expr_eval.h"

#include "common/metrics.h"
#include "common/timer.h"
#include "query/bytecode.h"
#include "query/vector_eval.h"

namespace laws {
namespace {

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

Result<std::vector<uint32_t>> FilterRows(const Expr& predicate,
                                         const Table& table,
                                         std::string* disassembly) {
  LAWS_ASSIGN_OR_RETURN(const CompiledExpr program,
                        CompileWithMetrics(predicate, table, disassembly));
  return ThreadEvaluator().RunFilter(program, table);
}

}  // namespace laws
