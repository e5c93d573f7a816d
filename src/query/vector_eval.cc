#include "query/vector_eval.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "common/governor.h"
#include "common/metrics.h"

namespace laws {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Counter* BatchesCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter("expr.batches");
  return c;
}

/// The table a constant folds over: one row, no columns.
const Table& OneRowTable() {
  static const Table table = [] {
    Table t{Schema{}};
    (void)t.AppendRow({});
    return t;
  }();
  return table;
}

}  // namespace

BatchEvaluator::BatchEvaluator(size_t batch_size)
    : batch_size_(batch_size == 0 ? 1 : batch_size) {}

void BatchEvaluator::Provision(const CompiledExpr& program) {
  if (slots_.size() < program.num_slots) slots_.resize(program.num_slots);
  for (size_t s = 0; s < program.num_slots; ++s) {
    Slot& slot = slots_[s];
    if (slot.f64.size() < batch_size_) {
      slot.f64.resize(batch_size_);
      slot.i64.resize(batch_size_);
      slot.b8.resize(batch_size_);
      slot.str.resize(batch_size_);
      slot.null8.resize(batch_size_);
    }
  }
}

/// Lane discipline, everywhere in this file: every loop reads all input
/// lanes at index i before writing any output lane at index i, so an
/// output register may alias an input register (the compiler recycles
/// slots at an operand's last use). Null masks are 1 = NULL; when a
/// slot's has_nulls is false its null8 contents are undefined and must
/// not be read. Value lanes under a set null bit hold unspecified
/// scratch — they never escape (materialization and filtering consult
/// the mask first) and every error check skips them: errors fire only on
/// rows that evaluate, "b == 0.0 only on non-NULL lanes". A NULL string
/// lane may even view a dictionary that no longer exists, so string ops
/// dereference only non-NULL lanes.
Status BatchEvaluator::RunBatch(const CompiledExpr& program,
                                const Table& table, size_t base, size_t n) {
  auto nulls_of = [](const Slot& s) -> const uint8_t* {
    return s.has_nulls ? s.null8.data() : nullptr;
  };

  auto union_nulls = [&](const Slot& a, const Slot& b, Slot& out) -> bool {
    const uint8_t* na = nulls_of(a);
    const uint8_t* nb = nulls_of(b);
    if (na == nullptr && nb == nullptr) {
      out.has_nulls = false;
      return false;
    }
    uint8_t any = 0;
    uint8_t* no = out.null8.data();
    for (size_t i = 0; i < n; ++i) {
      const uint8_t v =
          static_cast<uint8_t>((na != nullptr ? na[i] : 0) |
                               (nb != nullptr ? nb[i] : 0));
      no[i] = v;
      any |= v;
    }
    out.has_nulls = any != 0;
    return out.has_nulls;
  };

  auto copy_nulls = [&](const Slot& a, Slot& out) {
    if (&a == &out) return;
    out.has_nulls = a.has_nulls;
    if (a.has_nulls) std::memcpy(out.null8.data(), a.null8.data(), n);
  };

  auto load_nulls = [&](const Column& col, Slot& out) {
    if (col.null_count() == 0) {
      out.has_nulls = false;
      return;
    }
    uint8_t any = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint8_t v = col.IsNull(base + i) ? 1 : 0;
      out.null8[i] = v;
      any |= v;
    }
    out.has_nulls = any != 0;
  };

  auto unary_f64 = [&](const Instruction& ins, double (*fn)(double)) {
    const Slot& a = slots_[ins.a];
    Slot& o = slots_[ins.out];
    const double* pa = a.f64.data();
    double* po = o.f64.data();
    for (size_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
    copy_nulls(a, o);
  };

  // Checked int64 arithmetic: fn(x, y, out) returns true on overflow.
  auto i64_checked = [&](const Instruction& ins, auto fn) -> Status {
    const Slot& a = slots_[ins.a];
    const Slot& b = slots_[ins.b];
    Slot& o = slots_[ins.out];
    const bool has = union_nulls(a, b, o);
    const uint8_t* no = has ? o.null8.data() : nullptr;
    const int64_t* pa = a.i64.data();
    const int64_t* pb = b.i64.data();
    int64_t* po = o.i64.data();
    for (size_t i = 0; i < n; ++i) {
      if (no != nullptr && no[i] != 0) continue;
      int64_t v = 0;
      if (fn(pa[i], pb[i], &v)) {
        return Status::NumericError("integer overflow in arithmetic");
      }
      po[i] = v;
    }
    return Status::OK();
  };

  // Unchecked double arithmetic runs branchless over every lane: IEEE
  // arithmetic on the scratch under null bits is harmless and the union
  // mask hides it.
  auto f64_bin = [&](const Instruction& ins, auto fn) {
    const Slot& a = slots_[ins.a];
    const Slot& b = slots_[ins.b];
    Slot& o = slots_[ins.out];
    union_nulls(a, b, o);
    const double* pa = a.f64.data();
    const double* pb = b.f64.data();
    double* po = o.f64.data();
    for (size_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
  };

  // Comparisons express the §11 three-way compare
  // c = a < b ? -1 : (a == b ? 0 : 1): an unordered pair (NaN) lands in
  // the c = 1 bucket, so NaN > x and NaN >= x are true while NaN == x,
  // NaN < x and NaN <= x are false. Plain IEEE comparisons would get
  // Gt/Ge wrong on NaN.
  auto cmp_f64 = [&](const Instruction& ins, auto fn) {
    const Slot& a = slots_[ins.a];
    const Slot& b = slots_[ins.b];
    Slot& o = slots_[ins.out];
    union_nulls(a, b, o);
    const double* pa = a.f64.data();
    const double* pb = b.f64.data();
    uint8_t* po = o.b8.data();
    for (size_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]) ? 1 : 0;
  };

  // String comparisons map the bytewise std::string_view compare onto the
  // same three-way buckets; fn tests the sign of the compare.
  auto cmp_str = [&](const Instruction& ins, auto fn) {
    const Slot& a = slots_[ins.a];
    const Slot& b = slots_[ins.b];
    Slot& o = slots_[ins.out];
    const bool has = union_nulls(a, b, o);
    const uint8_t* no = has ? o.null8.data() : nullptr;
    for (size_t i = 0; i < n; ++i) {
      if (no != nullptr && no[i] != 0) continue;
      o.b8[i] = fn(a.str[i].compare(b.str[i])) ? 1 : 0;
    }
  };

  // N-ary selects share one per-lane shape; copy_lane moves one lane of
  // the unified output type.
  auto coalesce = [&](const Instruction& ins, auto copy_lane) {
    const auto& list = program.arg_lists[ins.aux];
    Slot& o = slots_[ins.out];
    uint8_t* no = o.null8.data();
    uint8_t any = 0;
    for (size_t i = 0; i < n; ++i) {
      const Slot* hit = nullptr;
      for (const uint16_t s : list) {
        const Slot& arg = slots_[s];
        if (!(arg.has_nulls && arg.null8[i] != 0)) {
          hit = &arg;
          break;
        }
      }
      if (hit == nullptr) {
        no[i] = 1;
        any = 1;
      } else {
        copy_lane(*hit, o, i);
        no[i] = 0;
      }
    }
    o.has_nulls = any != 0;
  };

  // NULLIF compares two numbers numerically through double coercion,
  // whatever their physical types, and two strings bytewise. A string
  // against a number is a type error on the first lane where both are
  // non-NULL, and only there.
  auto num_at = [](const Slot& s, DataType t, size_t i) -> double {
    switch (t) {
      case DataType::kInt64:
        return static_cast<double>(s.i64[i]);
      case DataType::kBool:
        return s.b8[i] != 0 ? 1.0 : 0.0;
      default:
        return s.f64[i];
    }
  };
  auto nullif = [&](const Instruction& ins, DataType at,
                    auto copy_lane) -> Status {
    const auto& list = program.arg_lists[ins.aux];
    const Slot& a = slots_[list[0]];
    const Slot& b = slots_[list[1]];
    const DataType bt = static_cast<DataType>(list[2]);
    const bool strings = at == DataType::kString;
    const bool mismatch = strings != (bt == DataType::kString);
    Slot& o = slots_[ins.out];
    uint8_t* no = o.null8.data();
    uint8_t any = 0;
    for (size_t i = 0; i < n; ++i) {
      const bool an = a.has_nulls && a.null8[i] != 0;
      const bool bn = b.has_nulls && b.null8[i] != 0;
      bool equal = false;
      if (!an && !bn) {
        if (mismatch) return Status::TypeMismatch("nullif() type mismatch");
        equal = strings ? a.str[i] == b.str[i]
                        : num_at(a, at, i) == num_at(b, bt, i);
      }
      if (an || equal) {
        no[i] = 1;
        any = 1;
      } else {
        copy_lane(a, o, i);
        no[i] = 0;
      }
    }
    o.has_nulls = any != 0;
    return Status::OK();
  };

  auto case_op = [&](const Instruction& ins, auto copy_lane) {
    const auto& list = program.arg_lists[ins.aux];
    const bool has_else = (list.size() % 2) == 1;
    const size_t pairs = list.size() / 2;
    Slot& o = slots_[ins.out];
    uint8_t* no = o.null8.data();
    uint8_t any = 0;
    for (size_t i = 0; i < n; ++i) {
      const Slot* hit = nullptr;
      for (size_t p = 0; p < pairs; ++p) {
        const Slot& w = slots_[list[2 * p]];
        if (!(w.has_nulls && w.null8[i] != 0) && w.b8[i] != 0) {
          hit = &slots_[list[2 * p + 1]];
          break;
        }
      }
      if (hit == nullptr && has_else) hit = &slots_[list.back()];
      if (hit == nullptr || (hit->has_nulls && hit->null8[i] != 0)) {
        no[i] = 1;
        any = 1;
      } else {
        copy_lane(*hit, o, i);
        no[i] = 0;
      }
    }
    o.has_nulls = any != 0;
  };

  for (const Instruction& ins : program.code) {
    Slot& o = slots_[ins.out];
    switch (ins.op) {
      case OpCode::kLoadColI64: {
        const Column& col = table.column(program.columns[ins.aux].index);
        std::memcpy(o.i64.data(), col.int64_data().data() + base,
                    n * sizeof(int64_t));
        load_nulls(col, o);
        break;
      }
      case OpCode::kLoadColF64: {
        const Column& col = table.column(program.columns[ins.aux].index);
        std::memcpy(o.f64.data(), col.double_data().data() + base,
                    n * sizeof(double));
        load_nulls(col, o);
        break;
      }
      case OpCode::kLoadColBool: {
        const Column& col = table.column(program.columns[ins.aux].index);
        std::memcpy(o.b8.data(), col.bool_data().data() + base, n);
        load_nulls(col, o);
        break;
      }
      case OpCode::kLoadColStr: {
        const Column& col = table.column(program.columns[ins.aux].index);
        const std::vector<std::string>& dict = col.dictionary();
        const uint32_t* codes = col.string_codes().data() + base;
        for (size_t i = 0; i < n; ++i) o.str[i] = dict[codes[i]];
        load_nulls(col, o);
        break;
      }
      case OpCode::kConstI64:
        std::fill_n(o.i64.data(), n, program.constants[ins.aux].int64());
        o.has_nulls = false;
        break;
      case OpCode::kConstF64:
        std::fill_n(o.f64.data(), n, program.constants[ins.aux].dbl());
        o.has_nulls = false;
        break;
      case OpCode::kConstBool:
        std::fill_n(o.b8.data(), n,
                    static_cast<uint8_t>(
                        program.constants[ins.aux].boolean() ? 1 : 0));
        o.has_nulls = false;
        break;
      case OpCode::kConstStr:
        std::fill_n(o.str.data(), n,
                    std::string_view(program.constants[ins.aux].str()));
        o.has_nulls = false;
        break;
      case OpCode::kConstNull:
        std::fill_n(o.f64.data(), n, kNaN);
        std::fill_n(o.null8.data(), n, uint8_t{1});
        o.has_nulls = true;
        break;
      case OpCode::kCastI64F64: {
        const Slot& a = slots_[ins.a];
        const int64_t* pa = a.i64.data();
        double* po = o.f64.data();
        for (size_t i = 0; i < n; ++i) po[i] = static_cast<double>(pa[i]);
        copy_nulls(a, o);
        break;
      }
      case OpCode::kCastBoolF64: {
        const Slot& a = slots_[ins.a];
        const uint8_t* pa = a.b8.data();
        double* po = o.f64.data();
        for (size_t i = 0; i < n; ++i) po[i] = pa[i] != 0 ? 1.0 : 0.0;
        copy_nulls(a, o);
        break;
      }
      case OpCode::kNegI64: {
        const Slot& a = slots_[ins.a];
        copy_nulls(a, o);
        const uint8_t* no = o.has_nulls ? o.null8.data() : nullptr;
        const int64_t* pa = a.i64.data();
        int64_t* po = o.i64.data();
        for (size_t i = 0; i < n; ++i) {
          if (no != nullptr && no[i] != 0) continue;
          int64_t v = 0;
          if (__builtin_sub_overflow(int64_t{0}, pa[i], &v)) {
            return Status::NumericError("integer overflow in negation");
          }
          po[i] = v;
        }
        break;
      }
      case OpCode::kNegF64: {
        const Slot& a = slots_[ins.a];
        const double* pa = a.f64.data();
        double* po = o.f64.data();
        for (size_t i = 0; i < n; ++i) po[i] = -pa[i];
        copy_nulls(a, o);
        break;
      }
      case OpCode::kNotBool: {
        const Slot& a = slots_[ins.a];
        const uint8_t* pa = a.b8.data();
        uint8_t* po = o.b8.data();
        for (size_t i = 0; i < n; ++i) po[i] = pa[i] != 0 ? 0 : 1;
        copy_nulls(a, o);
        break;
      }
      case OpCode::kAbsI64: {
        const Slot& a = slots_[ins.a];
        copy_nulls(a, o);
        const uint8_t* no = o.has_nulls ? o.null8.data() : nullptr;
        const int64_t* pa = a.i64.data();
        int64_t* po = o.i64.data();
        for (size_t i = 0; i < n; ++i) {
          if (no != nullptr && no[i] != 0) continue;
          const int64_t v = pa[i];
          if (v == std::numeric_limits<int64_t>::min()) {
            return Status::NumericError("integer overflow in abs()");
          }
          po[i] = v < 0 ? -v : v;
        }
        break;
      }
      case OpCode::kAbsF64:
        unary_f64(ins, [](double x) { return std::fabs(x); });
        break;
      case OpCode::kLnF64:
        unary_f64(ins, [](double x) { return std::log(x); });
        break;
      case OpCode::kLog10F64:
        unary_f64(ins, [](double x) { return std::log10(x); });
        break;
      case OpCode::kExpF64:
        unary_f64(ins, [](double x) { return std::exp(x); });
        break;
      case OpCode::kSqrtF64:
        unary_f64(ins, [](double x) { return std::sqrt(x); });
        break;
      case OpCode::kSinF64:
        unary_f64(ins, [](double x) { return std::sin(x); });
        break;
      case OpCode::kCosF64:
        unary_f64(ins, [](double x) { return std::cos(x); });
        break;
      case OpCode::kFloorF64:
        unary_f64(ins, [](double x) { return std::floor(x); });
        break;
      case OpCode::kCeilF64:
        unary_f64(ins, [](double x) { return std::ceil(x); });
        break;
      case OpCode::kRoundF64:
        unary_f64(ins, [](double x) { return std::round(x); });
        break;
      case OpCode::kAddI64:
        LAWS_RETURN_IF_ERROR(i64_checked(
            ins, [](int64_t x, int64_t y, int64_t* out) {
              return __builtin_add_overflow(x, y, out);
            }));
        break;
      case OpCode::kSubI64:
        LAWS_RETURN_IF_ERROR(i64_checked(
            ins, [](int64_t x, int64_t y, int64_t* out) {
              return __builtin_sub_overflow(x, y, out);
            }));
        break;
      case OpCode::kMulI64:
        LAWS_RETURN_IF_ERROR(i64_checked(
            ins, [](int64_t x, int64_t y, int64_t* out) {
              return __builtin_mul_overflow(x, y, out);
            }));
        break;
      case OpCode::kModI64: {
        const Slot& a = slots_[ins.a];
        const Slot& b = slots_[ins.b];
        const bool has = union_nulls(a, b, o);
        const uint8_t* no = has ? o.null8.data() : nullptr;
        const int64_t* pa = a.i64.data();
        const int64_t* pb = b.i64.data();
        int64_t* po = o.i64.data();
        for (size_t i = 0; i < n; ++i) {
          if (no != nullptr && no[i] != 0) continue;
          const int64_t d = pb[i];
          if (d == 0) return Status::NumericError("modulo by zero");
          // INT64_MIN % -1 overflows in hardware even though the
          // mathematical remainder is 0.
          po[i] = d == -1 ? 0 : pa[i] % d;
        }
        break;
      }
      case OpCode::kAddF64: {
        const Slot& a = slots_[ins.a];
        const Slot& b = slots_[ins.b];
        union_nulls(a, b, o);
        const double* pa = a.f64.data();
        const double* pb = b.f64.data();
        double* po = o.f64.data();
        size_t lanes = n;
#ifdef LAWS_TESTING_INJECT_BUG
        // Planted mutant for the differential smoke test: the bytecode
        // adder drops the last lane of every batch, leaving stale
        // scratch there.
        if (lanes > 0) --lanes;
#endif
        for (size_t i = 0; i < lanes; ++i) po[i] = pa[i] + pb[i];
        break;
      }
      case OpCode::kSubF64:
        f64_bin(ins, [](double x, double y) { return x - y; });
        break;
      case OpCode::kMulF64:
        f64_bin(ins, [](double x, double y) { return x * y; });
        break;
      case OpCode::kPowF64:
        f64_bin(ins, [](double x, double y) { return std::pow(x, y); });
        break;
      case OpCode::kDivF64:
      case OpCode::kModF64: {
        const Slot& a = slots_[ins.a];
        const Slot& b = slots_[ins.b];
        const bool has = union_nulls(a, b, o);
        const uint8_t* no = has ? o.null8.data() : nullptr;
        const double* pa = a.f64.data();
        const double* pb = b.f64.data();
        double* po = o.f64.data();
        const bool is_div = ins.op == OpCode::kDivF64;
        for (size_t i = 0; i < n; ++i) {
          if (no != nullptr && no[i] != 0) continue;
          if (pb[i] == 0.0) {
            return Status::NumericError(is_div ? "division by zero"
                                               : "modulo by zero");
          }
          po[i] = is_div ? pa[i] / pb[i] : std::fmod(pa[i], pb[i]);
        }
        break;
      }
      case OpCode::kCmpEqF64:
        cmp_f64(ins, [](double x, double y) { return x == y; });
        break;
      case OpCode::kCmpNeF64:
        cmp_f64(ins, [](double x, double y) { return !(x == y); });
        break;
      case OpCode::kCmpLtF64:
        cmp_f64(ins, [](double x, double y) { return x < y; });
        break;
      case OpCode::kCmpLeF64:
        cmp_f64(ins, [](double x, double y) { return x < y || x == y; });
        break;
      case OpCode::kCmpGtF64:
        cmp_f64(ins, [](double x, double y) { return !(x < y || x == y); });
        break;
      case OpCode::kCmpGeF64:
        cmp_f64(ins, [](double x, double y) { return !(x < y); });
        break;
      case OpCode::kCmpEqStr:
        cmp_str(ins, [](int c) { return c == 0; });
        break;
      case OpCode::kCmpNeStr:
        cmp_str(ins, [](int c) { return c != 0; });
        break;
      case OpCode::kCmpLtStr:
        cmp_str(ins, [](int c) { return c < 0; });
        break;
      case OpCode::kCmpLeStr:
        cmp_str(ins, [](int c) { return c <= 0; });
        break;
      case OpCode::kCmpGtStr:
        cmp_str(ins, [](int c) { return c > 0; });
        break;
      case OpCode::kCmpGeStr:
        cmp_str(ins, [](int c) { return c >= 0; });
        break;
      case OpCode::kAnd3VL:
      case OpCode::kOr3VL: {
        const Slot& a = slots_[ins.a];
        const Slot& b = slots_[ins.b];
        const uint8_t* na = nulls_of(a);
        const uint8_t* nb = nulls_of(b);
        const uint8_t* pa = a.b8.data();
        const uint8_t* pb = b.b8.data();
        uint8_t* po = o.b8.data();
        uint8_t* no = o.null8.data();
        uint8_t any = 0;
        const bool is_and = ins.op == OpCode::kAnd3VL;
        for (size_t i = 0; i < n; ++i) {
          const bool ln = na != nullptr && na[i] != 0;
          const bool rn = nb != nullptr && nb[i] != 0;
          const bool l = !ln && pa[i] != 0;
          const bool r = !rn && pb[i] != 0;
          uint8_t val = 0;
          uint8_t nul = 0;
          if (is_and) {
            if ((!ln && !l) || (!rn && !r)) {
              val = 0;  // a definite FALSE dominates NULL
            } else if (ln || rn) {
              nul = 1;
            } else {
              val = 1;
            }
          } else {
            if ((!ln && l) || (!rn && r)) {
              val = 1;  // a definite TRUE dominates NULL
            } else if (ln || rn) {
              nul = 1;
            } else {
              val = 0;
            }
          }
          po[i] = val;
          no[i] = nul;
          any |= nul;
        }
        o.has_nulls = any != 0;
        break;
      }
      case OpCode::kCoalesceI64:
        coalesce(ins, [](const Slot& s, Slot& out, size_t i) {
          out.i64[i] = s.i64[i];
        });
        break;
      case OpCode::kCoalesceF64:
        coalesce(ins, [](const Slot& s, Slot& out, size_t i) {
          out.f64[i] = s.f64[i];
        });
        break;
      case OpCode::kCoalesceBool:
        coalesce(ins, [](const Slot& s, Slot& out, size_t i) {
          out.b8[i] = s.b8[i];
        });
        break;
      case OpCode::kCoalesceStr:
        coalesce(ins, [](const Slot& s, Slot& out, size_t i) {
          out.str[i] = s.str[i];
        });
        break;
      case OpCode::kNullIfI64:
        LAWS_RETURN_IF_ERROR(nullif(
            ins, DataType::kInt64, [](const Slot& s, Slot& out, size_t i) {
              out.i64[i] = s.i64[i];
            }));
        break;
      case OpCode::kNullIfF64:
        LAWS_RETURN_IF_ERROR(nullif(
            ins, DataType::kDouble, [](const Slot& s, Slot& out, size_t i) {
              out.f64[i] = s.f64[i];
            }));
        break;
      case OpCode::kNullIfBool:
        LAWS_RETURN_IF_ERROR(nullif(
            ins, DataType::kBool, [](const Slot& s, Slot& out, size_t i) {
              out.b8[i] = s.b8[i];
            }));
        break;
      case OpCode::kNullIfStr:
        LAWS_RETURN_IF_ERROR(nullif(
            ins, DataType::kString, [](const Slot& s, Slot& out, size_t i) {
              out.str[i] = s.str[i];
            }));
        break;
      case OpCode::kCaseI64:
        case_op(ins, [](const Slot& s, Slot& out, size_t i) {
          out.i64[i] = s.i64[i];
        });
        break;
      case OpCode::kCaseF64:
        case_op(ins, [](const Slot& s, Slot& out, size_t i) {
          out.f64[i] = s.f64[i];
        });
        break;
      case OpCode::kCaseBool:
        case_op(ins, [](const Slot& s, Slot& out, size_t i) {
          out.b8[i] = s.b8[i];
        });
        break;
      case OpCode::kCaseStr:
        case_op(ins, [](const Slot& s, Slot& out, size_t i) {
          out.str[i] = s.str[i];
        });
        break;
    }
  }
  return Status::OK();
}

Result<Column> BatchEvaluator::Run(const CompiledExpr& program,
                                   const Table& table) {
  // A bare string column is its own result: appending it lane by lane
  // would re-intern every row only to rebuild the same dictionary.
  if (program.code.size() == 1 && program.code[0].op == OpCode::kLoadColStr) {
    return table.column(program.columns[0].index);
  }
  Provision(program);
  const size_t rows = table.num_rows();
  Column out(program.result_type);
  const Slot& r = slots_[program.result_slot];
  uint64_t batches = 0;
  for (size_t base = 0; base < rows; base += batch_size_) {
    LAWS_GOVERNOR_POLL();
    const size_t n = std::min(batch_size_, rows - base);
    LAWS_RETURN_IF_ERROR(RunBatch(program, table, base, n));
    ++batches;
    const uint8_t* nulls = r.has_nulls ? r.null8.data() : nullptr;
    switch (program.result_type) {
      case DataType::kInt64:
        out.AppendInt64Batch(r.i64.data(), nulls, n);
        break;
      case DataType::kDouble:
        out.AppendDoubleBatch(r.f64.data(), nulls, n);
        break;
      case DataType::kBool:
        out.AppendBoolBatch(r.b8.data(), nulls, n);
        break;
      case DataType::kString:
        for (size_t i = 0; i < n; ++i) {
          if (nulls != nullptr && nulls[i] != 0) {
            LAWS_RETURN_IF_ERROR(out.AppendNull());
          } else {
            out.AppendString(r.str[i]);
          }
        }
        break;
    }
  }
  BatchesCounter()->Add(batches);
  return out;
}

Result<std::vector<uint32_t>> BatchEvaluator::RunFilter(
    const CompiledExpr& program, const Table& table,
    const std::vector<RowRange>* ranges) {
  // A non-boolean predicate is a static error: it fails before any row
  // is evaluated.
  if (program.result_type != DataType::kBool) {
    return Status::TypeMismatch("WHERE predicate is not boolean");
  }
  Provision(program);
  const RowRange whole{0, table.num_rows()};
  const std::span<const RowRange> todo =
      ranges != nullptr ? std::span<const RowRange>(*ranges)
                        : std::span<const RowRange>(&whole, 1);
  std::vector<uint32_t> selected;
  const Slot& r = slots_[program.result_slot];
  uint64_t batches = 0;
  for (const RowRange& range : todo) {
    for (size_t base = range.begin; base < range.end; base += batch_size_) {
      LAWS_GOVERNOR_POLL();
      const size_t n = std::min(batch_size_, range.end - base);
      LAWS_RETURN_IF_ERROR(RunBatch(program, table, base, n));
      ++batches;
      const uint8_t* nulls = r.has_nulls ? r.null8.data() : nullptr;
      const uint8_t* vals = r.b8.data();
      for (size_t i = 0; i < n; ++i) {
        if ((nulls == nullptr || nulls[i] == 0) && vals[i] != 0) {
          selected.push_back(static_cast<uint32_t>(base + i));
        }
      }
    }
  }
  BatchesCounter()->Add(batches);
  return selected;
}

Result<Value> BatchEvaluator::RunConstant(const CompiledExpr& program) {
  Provision(program);
  LAWS_RETURN_IF_ERROR(RunBatch(program, OneRowTable(), 0, 1));
  const Slot& r = slots_[program.result_slot];
  if (r.has_nulls && r.null8[0] != 0) return Value::Null();
  switch (program.result_type) {
    case DataType::kInt64:
      return Value::Int64(r.i64[0]);
    case DataType::kDouble:
      return Value::Double(r.f64[0]);
    case DataType::kBool:
      return Value::Bool(r.b8[0] != 0);
    case DataType::kString:
      return Value::String(std::string(r.str[0]));
  }
  return Status::Internal("bad result type");
}

}  // namespace laws
