#ifndef LAWSDB_QUERY_BYTECODE_H_
#define LAWSDB_QUERY_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/ast.h"
#include "storage/schema.h"

namespace laws {

/// The expression engine's compiler: an `Expr` tree is lowered to a flat
/// postfix program of typed opcodes executed by a register machine over
/// column batches (vector_eval.h). The compiler performs constant folding
/// (by running the folded subtree on the VM itself over one row, so a
/// folded value carries the runtime's semantics bit for bit),
/// common-subexpression elimination by expression identity, and
/// int64/double/bool/string type specialization. Register slots are
/// assigned statically — the stack depth at every instruction is known at
/// compile time — so the runtime never manages a dynamic stack and CSE
/// reuses a pinned slot instead of recomputing or copying.
///
/// CompileExpr is total: every expression the parser accepts either
/// compiles or fails with its static diagnostic (type, arity, unknown
/// function or column, aggregate in scalar context) before any row is
/// evaluated. A compiled program fails only on data-dependent errors:
/// division/modulo by zero, checked-int64 overflow, and NULLIF over a
/// string and a number on a row where both are non-NULL. DESIGN.md §13
/// documents the ISA and the invariants against the §11 NaN/NULL
/// semantics.

/// Typed opcodes. Naming: suffix is the *output* type family; numeric
/// comparison inputs are always doubles (every numeric pair compares
/// through double coercion — the §11 2^53 horizon).
enum class OpCode : uint8_t {
  // Loads. aux = column index (schema position) or constant-pool index.
  kLoadColI64,
  kLoadColF64,
  kLoadColBool,
  kLoadColStr,
  kConstI64,
  kConstF64,
  kConstBool,
  kConstStr,
  kConstNull,  // typed as F64, every lane NULL (the NULL literal's type)

  // Numeric coercions (int64/bool -> double, NULLs pass through).
  kCastI64F64,
  kCastBoolF64,

  // Unary.
  kNegI64,  // checked: -INT64_MIN -> NumericError
  kNegF64,
  kNotBool,
  kAbsI64,  // checked: abs(INT64_MIN) -> NumericError
  kAbsF64,
  kLnF64,
  kLog10F64,
  kExpF64,
  kSqrtF64,
  kSinF64,
  kCosF64,
  kFloorF64,
  kCeilF64,
  kRoundF64,

  // Binary arithmetic. I64 variants are overflow-checked; kModI64 defines
  // INT64_MIN % -1 = 0 and errors on zero; kDivF64/kModF64 error on a 0.0
  // divisor reached by a non-NULL lane.
  kAddI64,
  kSubI64,
  kMulI64,
  kModI64,
  kAddF64,
  kSubF64,
  kMulF64,
  kDivF64,
  kModF64,
  kPowF64,

  // Comparisons: bool output, NULL-propagating. F64 lanes use the
  // three-way compare c = a < b ? -1 : (a == b ? 0 : 1), so NaN sorts as
  // "greater": NaN > x is true, NaN == x and NaN < x are false. Str lanes
  // compare bytewise, as std::string_view does.
  kCmpEqF64,
  kCmpNeF64,
  kCmpLtF64,
  kCmpLeF64,
  kCmpGtF64,
  kCmpGeF64,
  kCmpEqStr,
  kCmpNeStr,
  kCmpLtStr,
  kCmpLeStr,
  kCmpGtStr,
  kCmpGeStr,

  // Three-valued logic over bool inputs.
  kAnd3VL,
  kOr3VL,

  // N-ary selects. aux indexes CompiledExpr::arg_lists, whose entries are
  // operand slot lists; the suffix is the unified output type (the
  // compiler inserts casts on branches so every operand already has it).
  kCoalesceI64,
  kCoalesceF64,
  kCoalesceBool,
  kCoalesceStr,
  // NULLIF(a, b): output = a's type; lanes where both are non-NULL and
  // equal become NULL — numerically (double compare) for two numbers,
  // bytewise for two strings. arg_list = {a, b, b_type_tag} where the tag
  // says how to read b's slot. A string against a number is a TypeMismatch
  // on every lane where both are non-NULL.
  kNullIfI64,
  kNullIfF64,
  kNullIfBool,
  kNullIfStr,
  // Searched CASE: arg_list = {w1, t1, w2, t2, ..., [else]}; an odd list
  // length means the trailing ELSE is present.
  kCaseI64,
  kCaseF64,
  kCaseBool,
  kCaseStr,
};

std::string_view OpCodeName(OpCode op);

/// One instruction: out = op(a, b). Slots are batch-sized registers in the
/// evaluator; `aux` is the opcode-specific immediate (column index,
/// constant index, or arg-list index).
struct Instruction {
  OpCode op;
  uint16_t out = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint32_t aux = 0;
};

/// A compiled expression program. Immutable once built; executable any
/// number of times over any table with the schema it was compiled for.
struct CompiledExpr {
  std::vector<Instruction> code;
  /// Literal pool, indexed by Const* instructions' aux. String lanes of
  /// kConstStr point into it, so it must outlive every run.
  std::vector<Value> constants;
  /// Column references, indexed by LoadCol* instructions' aux. `index` is
  /// the schema position; `name` is kept for the disassembly.
  struct ColRef {
    uint32_t index = 0;
    std::string name;
  };
  std::vector<ColRef> columns;
  /// Operand slot lists for n-ary opcodes (CASE/COALESCE/NULLIF).
  std::vector<std::vector<uint16_t>> arg_lists;
  /// Registers the evaluator must provision.
  uint16_t num_slots = 0;
  /// Slot holding the final value after the last instruction.
  uint16_t result_slot = 0;
  DataType result_type = DataType::kDouble;

  /// Compact one-line disassembly, e.g.
  /// "s0=loadcol.f64(da); s1=const.f64(1); s0=add.f64(s0,s1)" — the
  /// program dump surfaced by EXPLAIN ANALYZE.
  std::string ToString() const;
};

/// Lowers `expr` against `schema`, or returns the expression's static
/// error (see file comment) with the code and message DESIGN.md §13
/// lists. Bumps no counters: the metered entry points are in expr_eval.h.
Result<CompiledExpr> CompileExpr(const Expr& expr, const Schema& schema);

}  // namespace laws

#endif  // LAWSDB_QUERY_BYTECODE_H_
