#include "query/bytecode.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "query/vector_eval.h"

namespace laws {
namespace {

/// The compiler's view of one evaluated subexpression: which register it
/// lives in and its static type. Every node's type is fully determined by
/// the schema, which is what makes ahead-of-time specialization sound.
struct NodeRes {
  uint16_t slot = 0;
  DataType type = DataType::kDouble;
};

bool IsNumeric(DataType t) { return t != DataType::kString; }

/// One opcode per value type, for the families that exist at every type.
struct TypedOps {
  OpCode i64, f64, boolean, str;

  OpCode For(DataType t) const {
    switch (t) {
      case DataType::kInt64:  return i64;
      case DataType::kDouble: return f64;
      case DataType::kBool:   return boolean;
      case DataType::kString: return str;
    }
    return f64;
  }
};

constexpr TypedOps kLoadColOps{OpCode::kLoadColI64, OpCode::kLoadColF64,
                               OpCode::kLoadColBool, OpCode::kLoadColStr};
constexpr TypedOps kConstOps{OpCode::kConstI64, OpCode::kConstF64,
                             OpCode::kConstBool, OpCode::kConstStr};
constexpr TypedOps kCoalesceOps{OpCode::kCoalesceI64, OpCode::kCoalesceF64,
                                OpCode::kCoalesceBool, OpCode::kCoalesceStr};
constexpr TypedOps kNullIfOps{OpCode::kNullIfI64, OpCode::kNullIfF64,
                              OpCode::kNullIfBool, OpCode::kNullIfStr};
constexpr TypedOps kCaseOps{OpCode::kCaseI64, OpCode::kCaseF64,
                            OpCode::kCaseBool, OpCode::kCaseStr};

DataType LiteralType(const Value& v) {
  if (v.is_int64()) return DataType::kInt64;
  if (v.is_string()) return DataType::kString;
  if (v.is_bool()) return DataType::kBool;
  return DataType::kDouble;  // doubles and the NULL literal
}

/// Comparison opcode for `op` over two doubles or two strings.
OpCode CompareOp(BinaryOp op, bool strings) {
  switch (op) {
    case BinaryOp::kEqual:
      return strings ? OpCode::kCmpEqStr : OpCode::kCmpEqF64;
    case BinaryOp::kNotEqual:
      return strings ? OpCode::kCmpNeStr : OpCode::kCmpNeF64;
    case BinaryOp::kLess:
      return strings ? OpCode::kCmpLtStr : OpCode::kCmpLtF64;
    case BinaryOp::kLessEqual:
      return strings ? OpCode::kCmpLeStr : OpCode::kCmpLeF64;
    case BinaryOp::kGreater:
      return strings ? OpCode::kCmpGtStr : OpCode::kCmpGtF64;
    default:
      return strings ? OpCode::kCmpGeStr : OpCode::kCmpGeF64;
  }
}

/// The one-argument numeric functions and their double opcode (abs also
/// has an INT64 form).
bool UnaryMathOp(const std::string& f, OpCode* op) {
  static const std::unordered_map<std::string, OpCode> kOps = {
      {"abs", OpCode::kAbsF64},     {"ln", OpCode::kLnF64},
      {"log", OpCode::kLnF64},      {"log10", OpCode::kLog10F64},
      {"exp", OpCode::kExpF64},     {"sqrt", OpCode::kSqrtF64},
      {"sin", OpCode::kSinF64},     {"cos", OpCode::kCosF64},
      {"floor", OpCode::kFloorF64}, {"ceil", OpCode::kCeilF64},
      {"round", OpCode::kRoundF64}};
  auto it = kOps.find(f);
  if (it == kOps.end()) return false;
  *op = it->second;
  return true;
}

/// True when the subtree references no column, aggregate or star — i.e.
/// it can be folded (unless running it errors or yields NULL).
bool IsConstSubtree(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef || e.kind == ExprKind::kAggregate ||
      e.kind == ExprKind::kStar) {
    return false;
  }
  for (const auto& c : e.children) {
    if (!IsConstSubtree(*c)) return false;
  }
  return true;
}

/// CSE identity key for a subtree. Expr::ToString() is NOT usable here:
/// it renders double literals through %.10g, so distinct constants that
/// round to the same text (1 vs 1.0000000000001, int64 0 vs double 0.0)
/// would collide and the second occurrence would be rewired onto the
/// first one's register — wrong value, or wrong static type for the
/// CASE/COALESCE unification rules. This key tags every node kind and
/// renders literals exactly (doubles by bit pattern).
void AppendCseKey(const Expr& e, std::string* out) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      const Value& v = e.literal;
      if (v.is_null()) {
        *out += "Ln";
      } else if (v.is_int64()) {
        *out += "Li";
        *out += std::to_string(v.int64());
      } else if (v.is_bool()) {
        *out += v.boolean() ? "Lb1" : "Lb0";
      } else if (v.is_double()) {
        uint64_t bits = 0;
        const double d = v.dbl();
        std::memcpy(&bits, &d, sizeof(bits));
        char buf[24];
        std::snprintf(buf, sizeof(buf), "Ld%016llx",
                      static_cast<unsigned long long>(bits));
        *out += buf;
      } else {
        *out += "Ls";
        *out += v.str();
      }
      break;
    }
    case ExprKind::kColumnRef:
      *out += "C";
      *out += e.column_name;
      break;
    case ExprKind::kUnary:
      *out += "U";
      *out += std::to_string(static_cast<int>(e.unary_op));
      break;
    case ExprKind::kBinary:
      *out += "B";
      *out += std::to_string(static_cast<int>(e.binary_op));
      break;
    case ExprKind::kFunctionCall:
      *out += "F";
      *out += e.function_name;
      break;
    case ExprKind::kCase:
      *out += e.case_has_else ? "Ke" : "K";
      break;
    case ExprKind::kAggregate:
      *out += "A";
      *out += std::to_string(static_cast<int>(e.aggregate_func));
      break;
    case ExprKind::kStar:
      *out += "*";
      break;
  }
  if (!e.children.empty()) {
    *out += "(";
    for (const auto& c : e.children) {
      AppendCseKey(*c, out);
      *out += ",";
    }
    *out += ")";
  }
}

std::string CseKey(const Expr& e) {
  std::string key;
  AppendCseKey(e, &key);
  return key;
}

/// CASE/COALESCE result type: a uniform STRING, INT64 or BOOL list keeps
/// its type, any other numeric mix promotes to DOUBLE, and strings mixed
/// with numbers are a TypeMismatch carrying `mix_error`.
Result<DataType> UnifyTypes(const std::vector<NodeRes>& values,
                            const char* mix_error) {
  bool any_string = false, all_string = true, all_int = true,
       all_bool = true;
  for (const NodeRes& v : values) {
    any_string |= v.type == DataType::kString;
    all_string &= v.type == DataType::kString;
    all_int &= v.type == DataType::kInt64;
    all_bool &= v.type == DataType::kBool;
  }
  if (any_string && !all_string) return Status::TypeMismatch(mix_error);
  return all_string ? DataType::kString
         : all_int  ? DataType::kInt64
         : all_bool ? DataType::kBool
                    : DataType::kDouble;
}

/// Postorder lowering. Static checks run in evaluation order — operands
/// first, left to right, an arity check before its call's operands — so
/// a statement with several static errors reports the first one a
/// row-at-a-time evaluation would reach.
class Compiler {
 public:
  explicit Compiler(const Schema& schema) : schema_(schema) {}

  Result<CompiledExpr> Compile(const Expr& expr) {
    CountUses(expr);
    LAWS_ASSIGN_OR_RETURN(const NodeRes root, CompileNode(expr));
    program_.num_slots = next_slot_;
    program_.result_slot = root.slot;
    program_.result_type = root.type;
    return std::move(program_);
  }

 private:
  // --- Register allocation ----------------------------------------------
  // Slots are SSA-flavored: a fresh slot per instruction output, recycled
  // through a free list once the value's last use has been emitted. CSE
  // results are pinned for the program's lifetime so later occurrences
  // reference the original register directly (no copy instruction).

  uint16_t AllocSlot() {
    if (!free_slots_.empty()) {
      const uint16_t s = free_slots_.back();
      free_slots_.pop_back();
      return s;
    }
    return next_slot_++;
  }

  void ReleaseSlot(uint16_t slot) {
    if (pinned_.count(slot) == 0) free_slots_.push_back(slot);
  }

  void CountUses(const Expr& e) {
    ++use_count_[CseKey(e)];
    for (const auto& c : e.children) CountUses(*c);
  }

  // --- Emission helpers --------------------------------------------------

  NodeRes Emit(OpCode op, DataType out_type, uint16_t a = 0, uint16_t b = 0,
               uint32_t aux = 0) {
    Instruction ins;
    ins.op = op;
    ins.out = AllocSlot();
    ins.a = a;
    ins.b = b;
    ins.aux = aux;
    program_.code.push_back(ins);
    return NodeRes{ins.out, out_type};
  }

  /// Emits `op` over `a`, releasing its register.
  NodeRes EmitUnary(OpCode op, DataType out_type, NodeRes a) {
    ReleaseSlot(a.slot);
    return Emit(op, out_type, a.slot);
  }

  /// Emits `op` over `a` and `b`, releasing both registers.
  NodeRes EmitBinary(OpCode op, DataType out_type, NodeRes a, NodeRes b) {
    ReleaseSlot(a.slot);
    ReleaseSlot(b.slot);
    return Emit(op, out_type, a.slot, b.slot);
  }

  /// Emits an n-ary `op` over the registers in `slots`, releasing them.
  NodeRes EmitList(OpCode op, DataType out_type, std::vector<uint16_t> slots) {
    for (uint16_t s : slots) ReleaseSlot(s);
    const auto list = static_cast<uint32_t>(program_.arg_lists.size());
    program_.arg_lists.push_back(std::move(slots));
    return Emit(op, out_type, 0, 0, list);
  }

  NodeRes EmitConst(const Value& v) {
    if (v.is_null()) return Emit(OpCode::kConstNull, DataType::kDouble);
    const auto idx = static_cast<uint32_t>(program_.constants.size());
    program_.constants.push_back(v);
    const DataType t = LiteralType(v);
    return Emit(kConstOps.For(t), t, 0, 0, idx);
  }

  /// Coerces a numeric value to double, releasing the source register.
  /// No-op for values already double.
  NodeRes ToF64(NodeRes r) {
    if (r.type == DataType::kDouble) return r;
    const OpCode op = r.type == DataType::kInt64 ? OpCode::kCastI64F64
                                                 : OpCode::kCastBoolF64;
    return EmitUnary(op, DataType::kDouble, r);
  }

  // --- Constant folding --------------------------------------------------

  /// Compiler state a fold rolls back to.
  struct Mark {
    size_t code = 0;
    size_t constants = 0;
    size_t arg_lists = 0;
    uint16_t next_slot = 0;
    std::vector<uint16_t> free_slots;
  };

  Mark Snapshot() const {
    return Mark{program_.code.size(), program_.constants.size(),
                program_.arg_lists.size(), next_slot_, free_slots_};
  }

  void Restore(const Mark& mark) {
    program_.code.resize(mark.code);
    program_.constants.resize(mark.constants);
    program_.arg_lists.resize(mark.arg_lists);
    next_slot_ = mark.next_slot;
    free_slots_ = mark.free_slots;
  }

  /// Constant folding on the VM: a column-free subtree compiles as usual,
  /// then the instructions it emitted run once over one row of a table
  /// with no columns, and a clean non-NULL result replaces them with one
  /// load from the literal pool. Folding is bottom-up, so each run covers
  /// one operator over operands that already folded. A run-time error
  /// (1/0, overflow) vetoes the fold so the program errors exactly when
  /// rows flow through it; so does a NULL result, which as a literal would
  /// forget the operator's static type (nullif(1, 1) stays INT64, a NULL
  /// comparison stays BOOL). Column-free subtrees bypass CSE, which keeps
  /// the instructions they emit self-contained.
  Result<NodeRes> CompileConstant(const Expr& e) {
    if (e.kind == ExprKind::kLiteral) return EmitConst(e.literal);
    const Mark mark = Snapshot();
    LAWS_ASSIGN_OR_RETURN(const NodeRes res, CompileNodeUncached(e));
    CompiledExpr folded;
    folded.code.assign(program_.code.begin() + mark.code,
                       program_.code.end());
    folded.constants = program_.constants;
    folded.arg_lists = program_.arg_lists;
    folded.num_slots = next_slot_;
    folded.result_slot = res.slot;
    folded.result_type = res.type;
    Result<Value> value = folder_.RunConstant(folded);
    if (!value.ok() || value->is_null()) return res;
    Restore(mark);
    return EmitConst(*value);
  }

  // --- Lowering ----------------------------------------------------------

  /// Memoizing compile: shared subexpressions (by exact structural
  /// identity — see CseKey) compile once into a pinned register.
  Result<NodeRes> CompileNode(const Expr& e) {
    if (IsConstSubtree(e)) return CompileConstant(e);
    const std::string key = CseKey(e);
    auto hit = memo_.find(key);
    if (hit != memo_.end()) return hit->second;
    LAWS_ASSIGN_OR_RETURN(const NodeRes res, CompileNodeUncached(e));
    if (use_count_[key] > 1) {
      pinned_.insert(res.slot);
      memo_.emplace(key, res);
    }
    return res;
  }

  Result<NodeRes> CompileNodeUncached(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return EmitConst(e.literal);
      case ExprKind::kColumnRef:
        return CompileColumnRef(e);
      case ExprKind::kUnary:
        return CompileUnary(e);
      case ExprKind::kBinary:
        return CompileBinary(e);
      case ExprKind::kFunctionCall:
        return CompileFunction(e);
      case ExprKind::kCase:
        return CompileCase(e);
      case ExprKind::kAggregate:
        return Status::InvalidArgument(
            "aggregate in scalar context (missing GROUP BY handling?)");
      case ExprKind::kStar:
        return Status::InvalidArgument("* outside COUNT(*)");
    }
    return Status::Internal("bad expression kind");
  }

  Result<NodeRes> CompileColumnRef(const Expr& e) {
    LAWS_ASSIGN_OR_RETURN(const size_t idx, schema_.FieldIndex(e.column_name));
    const DataType t = schema_.field(idx).type;
    const auto ref = static_cast<uint32_t>(program_.columns.size());
    program_.columns.push_back({static_cast<uint32_t>(idx), e.column_name});
    return Emit(kLoadColOps.For(t), t, 0, 0, ref);
  }

  Result<NodeRes> CompileUnary(const Expr& e) {
    LAWS_ASSIGN_OR_RETURN(const NodeRes operand, CompileNode(*e.children[0]));
    if (e.unary_op == UnaryOp::kNegate) {
      if (!IsNumeric(operand.type)) {
        return Status::TypeMismatch("cannot negate a string");
      }
      if (operand.type == DataType::kInt64) {
        return EmitUnary(OpCode::kNegI64, DataType::kInt64, operand);
      }
      return EmitUnary(OpCode::kNegF64, DataType::kDouble, ToF64(operand));
    }
    if (operand.type != DataType::kBool) {
      return Status::TypeMismatch("NOT requires a boolean operand");
    }
    return EmitUnary(OpCode::kNotBool, DataType::kBool, operand);
  }

  Result<NodeRes> CompileBinary(const Expr& e) {
    LAWS_ASSIGN_OR_RETURN(const NodeRes lhs, CompileNode(*e.children[0]));
    LAWS_ASSIGN_OR_RETURN(const NodeRes rhs, CompileNode(*e.children[1]));

    switch (e.binary_op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSubtract:
      case BinaryOp::kMultiply:
      case BinaryOp::kDivide:
      case BinaryOp::kModulo: {
        if (!IsNumeric(lhs.type) || !IsNumeric(rhs.type)) {
          return Status::TypeMismatch("arithmetic on non-numeric operand");
        }
        const bool int_result = lhs.type == DataType::kInt64 &&
                                rhs.type == DataType::kInt64 &&
                                e.binary_op != BinaryOp::kDivide;
        if (int_result) {
          OpCode op;
          switch (e.binary_op) {
            case BinaryOp::kAdd:      op = OpCode::kAddI64; break;
            case BinaryOp::kSubtract: op = OpCode::kSubI64; break;
            case BinaryOp::kMultiply: op = OpCode::kMulI64; break;
            default:                  op = OpCode::kModI64; break;
          }
          return EmitBinary(op, DataType::kInt64, lhs, rhs);
        }
        const NodeRes a = ToF64(lhs);
        const NodeRes b = ToF64(rhs);
        OpCode op;
        switch (e.binary_op) {
          case BinaryOp::kAdd:      op = OpCode::kAddF64; break;
          case BinaryOp::kSubtract: op = OpCode::kSubF64; break;
          case BinaryOp::kMultiply: op = OpCode::kMulF64; break;
          case BinaryOp::kDivide:   op = OpCode::kDivF64; break;
          default:                  op = OpCode::kModF64; break;
        }
        return EmitBinary(op, DataType::kDouble, a, b);
      }
      case BinaryOp::kEqual:
      case BinaryOp::kNotEqual:
      case BinaryOp::kLess:
      case BinaryOp::kLessEqual:
      case BinaryOp::kGreater:
      case BinaryOp::kGreaterEqual: {
        // Two strings compare bytewise; numeric pairs compare through
        // double coercion (§11 comparison horizon).
        const bool strings =
            lhs.type == DataType::kString && rhs.type == DataType::kString;
        if (strings) {
          return EmitBinary(CompareOp(e.binary_op, true), DataType::kBool,
                            lhs, rhs);
        }
        if (!IsNumeric(lhs.type) || !IsNumeric(rhs.type)) {
          return Status::TypeMismatch("cannot compare string with numeric");
        }
        const NodeRes a = ToF64(lhs);
        const NodeRes b = ToF64(rhs);
        return EmitBinary(CompareOp(e.binary_op, false), DataType::kBool, a,
                          b);
      }
      case BinaryOp::kAnd:
      case BinaryOp::kOr: {
        if (lhs.type != DataType::kBool || rhs.type != DataType::kBool) {
          return Status::TypeMismatch("AND/OR require boolean operands");
        }
        const OpCode op = e.binary_op == BinaryOp::kAnd ? OpCode::kAnd3VL
                                                        : OpCode::kOr3VL;
        return EmitBinary(op, DataType::kBool, lhs, rhs);
      }
    }
    return Status::Internal("bad binary op");
  }

  Result<NodeRes> CompileFunction(const Expr& e) {
    const std::string& f = e.function_name;
    OpCode math_op;
    if (UnaryMathOp(f, &math_op)) {
      if (e.children.size() != 1) {
        return Status::InvalidArgument(f + "() takes one argument");
      }
      LAWS_ASSIGN_OR_RETURN(const NodeRes arg, CompileNode(*e.children[0]));
      if (!IsNumeric(arg.type)) {
        return Status::TypeMismatch(f + "() requires a numeric argument");
      }
      if (math_op == OpCode::kAbsF64 && arg.type == DataType::kInt64) {
        return EmitUnary(OpCode::kAbsI64, DataType::kInt64, arg);
      }
      return EmitUnary(math_op, DataType::kDouble, ToF64(arg));
    }
    if (f == "coalesce") return CompileCoalesce(e);
    if (f == "nullif") return CompileNullIf(e);
    if (f == "pow" || f == "power") {
      if (e.children.size() != 2) {
        return Status::InvalidArgument("pow() takes two arguments");
      }
      LAWS_ASSIGN_OR_RETURN(const NodeRes lhs, CompileNode(*e.children[0]));
      LAWS_ASSIGN_OR_RETURN(const NodeRes rhs, CompileNode(*e.children[1]));
      if (!IsNumeric(lhs.type) || !IsNumeric(rhs.type)) {
        return Status::TypeMismatch("pow() requires numeric arguments");
      }
      const NodeRes a = ToF64(lhs);
      const NodeRes b = ToF64(rhs);
      return EmitBinary(OpCode::kPowF64, DataType::kDouble, a, b);
    }
    return Status::InvalidArgument("unknown function: " + f);
  }

  Result<NodeRes> CompileCoalesce(const Expr& e) {
    if (e.children.empty()) {
      return Status::InvalidArgument("coalesce() needs arguments");
    }
    std::vector<NodeRes> args;
    for (const auto& child : e.children) {
      LAWS_ASSIGN_OR_RETURN(const NodeRes a, CompileNode(*child));
      args.push_back(a);
    }
    LAWS_ASSIGN_OR_RETURN(
        const DataType t,
        UnifyTypes(args, "coalesce() mixes strings and numerics"));
    std::vector<uint16_t> slots;
    for (NodeRes& a : args) {
      if (t == DataType::kDouble) a = ToF64(a);
      slots.push_back(a.slot);
    }
    return EmitList(kCoalesceOps.For(t), t, std::move(slots));
  }

  Result<NodeRes> CompileNullIf(const Expr& e) {
    if (e.children.size() != 2) {
      return Status::InvalidArgument("nullif() takes two arguments");
    }
    LAWS_ASSIGN_OR_RETURN(const NodeRes lhs, CompileNode(*e.children[0]));
    LAWS_ASSIGN_OR_RETURN(const NodeRes rhs, CompileNode(*e.children[1]));
    ReleaseSlot(lhs.slot);
    ReleaseSlot(rhs.slot);
    const auto list = static_cast<uint32_t>(program_.arg_lists.size());
    // The third entry tags b's physical type so the evaluator can read
    // it without a cast instruction, and so a string against a number
    // errors only on the rows where both are non-NULL.
    program_.arg_lists.push_back(
        {lhs.slot, rhs.slot, static_cast<uint16_t>(rhs.type)});
    return Emit(kNullIfOps.For(lhs.type), lhs.type, 0, 0, list);
  }

  Result<NodeRes> CompileCase(const Expr& e) {
    const bool has_else = e.case_has_else;
    const size_t pairs = (e.children.size() - (has_else ? 1 : 0)) / 2;
    std::vector<NodeRes> whens, thens;
    for (size_t i = 0; i < pairs; ++i) {
      LAWS_ASSIGN_OR_RETURN(const NodeRes w, CompileNode(*e.children[2 * i]));
      if (w.type != DataType::kBool) {
        return Status::TypeMismatch("CASE WHEN condition is not boolean");
      }
      LAWS_ASSIGN_OR_RETURN(const NodeRes t,
                            CompileNode(*e.children[2 * i + 1]));
      whens.push_back(w);
      thens.push_back(t);
    }
    if (has_else) {
      LAWS_ASSIGN_OR_RETURN(const NodeRes t, CompileNode(*e.children.back()));
      thens.push_back(t);
    }
    LAWS_ASSIGN_OR_RETURN(const DataType t,
                          UnifyTypes(thens, "CASE mixes strings and numerics"));
    if (t == DataType::kDouble) {
      for (NodeRes& b : thens) b = ToF64(b);
    }
    // Layout: [w1, t1, w2, t2, ..., else?]. Odd length = ELSE present.
    std::vector<uint16_t> slots;
    for (size_t i = 0; i < pairs; ++i) {
      slots.push_back(whens[i].slot);
      slots.push_back(thens[i].slot);
    }
    if (has_else) slots.push_back(thens.back().slot);
    return EmitList(kCaseOps.For(t), t, std::move(slots));
  }

  const Schema& schema_;
  CompiledExpr program_;
  uint16_t next_slot_ = 0;
  std::vector<uint16_t> free_slots_;
  std::unordered_map<std::string, size_t> use_count_;
  std::unordered_map<std::string, NodeRes> memo_;
  std::unordered_set<uint16_t> pinned_;
  BatchEvaluator folder_{1};
};

}  // namespace

std::string_view OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadColI64:  return "loadcol.i64";
    case OpCode::kLoadColF64:  return "loadcol.f64";
    case OpCode::kLoadColBool: return "loadcol.bool";
    case OpCode::kLoadColStr:  return "loadcol.str";
    case OpCode::kConstI64:    return "const.i64";
    case OpCode::kConstF64:    return "const.f64";
    case OpCode::kConstBool:   return "const.bool";
    case OpCode::kConstStr:    return "const.str";
    case OpCode::kConstNull:   return "const.null";
    case OpCode::kCastI64F64:  return "cast.i64.f64";
    case OpCode::kCastBoolF64: return "cast.bool.f64";
    case OpCode::kNegI64:      return "neg.i64";
    case OpCode::kNegF64:      return "neg.f64";
    case OpCode::kNotBool:     return "not.bool";
    case OpCode::kAbsI64:      return "abs.i64";
    case OpCode::kAbsF64:      return "abs.f64";
    case OpCode::kLnF64:       return "ln.f64";
    case OpCode::kLog10F64:    return "log10.f64";
    case OpCode::kExpF64:      return "exp.f64";
    case OpCode::kSqrtF64:     return "sqrt.f64";
    case OpCode::kSinF64:      return "sin.f64";
    case OpCode::kCosF64:      return "cos.f64";
    case OpCode::kFloorF64:    return "floor.f64";
    case OpCode::kCeilF64:     return "ceil.f64";
    case OpCode::kRoundF64:    return "round.f64";
    case OpCode::kAddI64:      return "add.i64";
    case OpCode::kSubI64:      return "sub.i64";
    case OpCode::kMulI64:      return "mul.i64";
    case OpCode::kModI64:      return "mod.i64";
    case OpCode::kAddF64:      return "add.f64";
    case OpCode::kSubF64:      return "sub.f64";
    case OpCode::kMulF64:      return "mul.f64";
    case OpCode::kDivF64:      return "div.f64";
    case OpCode::kModF64:      return "mod.f64";
    case OpCode::kPowF64:      return "pow.f64";
    case OpCode::kCmpEqF64:    return "cmpeq.f64";
    case OpCode::kCmpNeF64:    return "cmpne.f64";
    case OpCode::kCmpLtF64:    return "cmplt.f64";
    case OpCode::kCmpLeF64:    return "cmple.f64";
    case OpCode::kCmpGtF64:    return "cmpgt.f64";
    case OpCode::kCmpGeF64:    return "cmpge.f64";
    case OpCode::kCmpEqStr:    return "cmpeq.str";
    case OpCode::kCmpNeStr:    return "cmpne.str";
    case OpCode::kCmpLtStr:    return "cmplt.str";
    case OpCode::kCmpLeStr:    return "cmple.str";
    case OpCode::kCmpGtStr:    return "cmpgt.str";
    case OpCode::kCmpGeStr:    return "cmpge.str";
    case OpCode::kAnd3VL:      return "and.3vl";
    case OpCode::kOr3VL:       return "or.3vl";
    case OpCode::kCoalesceI64: return "coalesce.i64";
    case OpCode::kCoalesceF64: return "coalesce.f64";
    case OpCode::kCoalesceBool:return "coalesce.bool";
    case OpCode::kCoalesceStr: return "coalesce.str";
    case OpCode::kNullIfI64:   return "nullif.i64";
    case OpCode::kNullIfF64:   return "nullif.f64";
    case OpCode::kNullIfBool:  return "nullif.bool";
    case OpCode::kNullIfStr:   return "nullif.str";
    case OpCode::kCaseI64:     return "case.i64";
    case OpCode::kCaseF64:     return "case.f64";
    case OpCode::kCaseBool:    return "case.bool";
    case OpCode::kCaseStr:     return "case.str";
  }
  return "?";
}

std::string CompiledExpr::ToString() const {
  std::string out;
  for (const Instruction& ins : code) {
    if (!out.empty()) out += "; ";
    out += "s" + std::to_string(ins.out) + "=";
    out += OpCodeName(ins.op);
    switch (ins.op) {
      case OpCode::kLoadColI64:
      case OpCode::kLoadColF64:
      case OpCode::kLoadColBool:
      case OpCode::kLoadColStr:
        out += "(" + columns[ins.aux].name + ")";
        break;
      case OpCode::kConstI64:
      case OpCode::kConstF64:
      case OpCode::kConstBool:
        out += "(" + constants[ins.aux].ToString() + ")";
        break;
      case OpCode::kConstStr:
        out += "('" + constants[ins.aux].str() + "')";
        break;
      case OpCode::kConstNull:
        out += "()";
        break;
      case OpCode::kCoalesceI64:
      case OpCode::kCoalesceF64:
      case OpCode::kCoalesceBool:
      case OpCode::kCoalesceStr:
      case OpCode::kCaseI64:
      case OpCode::kCaseF64:
      case OpCode::kCaseBool:
      case OpCode::kCaseStr: {
        out += "(";
        const auto& list = arg_lists[ins.aux];
        for (size_t i = 0; i < list.size(); ++i) {
          if (i > 0) out += ",";
          out += "s" + std::to_string(list[i]);
        }
        out += ")";
        break;
      }
      case OpCode::kNullIfI64:
      case OpCode::kNullIfF64:
      case OpCode::kNullIfBool:
      case OpCode::kNullIfStr: {
        const auto& list = arg_lists[ins.aux];
        out += "(s" + std::to_string(list[0]) + ",s" +
               std::to_string(list[1]) + ")";
        break;
      }
      case OpCode::kCastI64F64:
      case OpCode::kCastBoolF64:
      case OpCode::kNegI64:
      case OpCode::kNegF64:
      case OpCode::kNotBool:
      case OpCode::kAbsI64:
      case OpCode::kAbsF64:
      case OpCode::kLnF64:
      case OpCode::kLog10F64:
      case OpCode::kExpF64:
      case OpCode::kSqrtF64:
      case OpCode::kSinF64:
      case OpCode::kCosF64:
      case OpCode::kFloorF64:
      case OpCode::kCeilF64:
      case OpCode::kRoundF64:
        out += "(s" + std::to_string(ins.a) + ")";
        break;
      default:
        out += "(s" + std::to_string(ins.a) + ",s" +
               std::to_string(ins.b) + ")";
        break;
    }
  }
  return out;
}

Result<CompiledExpr> CompileExpr(const Expr& expr, const Schema& schema) {
  Compiler compiler(schema);
  return compiler.Compile(expr);
}

}  // namespace laws
