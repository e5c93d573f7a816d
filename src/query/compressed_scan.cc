#include "query/compressed_scan.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/governor.h"
#include "common/metrics.h"
#include "compress/block_store.h"
#include "query/expr_eval.h"

namespace laws {
namespace {

// --- Counters --------------------------------------------------------------

Counter* BlocksTotalCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter("scan.blocks_total");
  return c;
}
Counter* BlocksPrunedCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("scan.blocks_pruned");
  return c;
}
Counter* BlocksTakenCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter("scan.blocks_taken");
  return c;
}
Counter* EncodedAggCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter("scan.encoded_agg");
  return c;
}
Counter* FallbackDecodeCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("scan.fallback_decode");
  return c;
}

// --- Predicate classification ----------------------------------------------
//
// The compressed tier only accepts the shapes whose evaluation under the
// engine's §11 semantics is total (no column-level type errors, no
// arithmetic that could overflow): comparisons between numeric column
// refs and numeric/NULL literals (optionally negated), AND/OR/NOT over
// statically-boolean operands, bare boolean column refs and boolean
// literals. Everything else declines so the decode path keeps its exact
// error behavior.

enum class Tri : uint8_t { kTrue, kFalse, kNull };

constexpr uint8_t kT = 1;  // TRUE possible
constexpr uint8_t kF = 2;  // FALSE possible
constexpr uint8_t kN = 4;  // NULL possible

uint8_t TriBit(Tri v) {
  switch (v) {
    case Tri::kTrue: return kT;
    case Tri::kFalse: return kF;
    case Tri::kNull: return kN;
  }
  return kN;
}

struct ScanPred {
  enum class Kind { kCmp, kAnd, kOr, kNot, kBoolCol, kConst };
  Kind kind = Kind::kConst;

  // kCmp: each side is a column (index >= 0) or a constant.
  BinaryOp op = BinaryOp::kEqual;
  int lhs_col = -1;
  int rhs_col = -1;
  double lhs_val = 0.0;
  double rhs_val = 0.0;
  bool lhs_null = false;
  bool rhs_null = false;

  int col = -1;        // kBoolCol
  Tri const_val = Tri::kTrue;  // kConst

  std::unique_ptr<ScanPred> a, b;  // kAnd/kOr both; kNot uses a
};

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEqual:
    case BinaryOp::kNotEqual:
    case BinaryOp::kLess:
    case BinaryOp::kLessEqual:
    case BinaryOp::kGreater:
    case BinaryOp::kGreaterEqual:
      return true;
    default:
      return false;
  }
}

/// Classifies one comparison side. Accepts numeric (non-string) column
/// refs, numeric/bool/NULL literals, and unary minus over a numeric
/// literal (the engine negates in int64 space first, so -INT64_MIN would
/// overflow there — decline it rather than diverge).
bool ClassifySide(const Expr& e, const Table& t, int* col, double* val,
                  bool* is_null) {
  *col = -1;
  *val = 0.0;
  *is_null = false;
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      const auto idx = t.schema().FieldIndex(e.column_name);
      if (!idx.ok()) return false;
      if (t.column(*idx).type() == DataType::kString) return false;
      *col = static_cast<int>(*idx);
      return true;
    }
    case ExprKind::kLiteral: {
      const Value& v = e.literal;
      if (v.is_null()) {
        *is_null = true;
        return true;
      }
      if (v.is_int64()) { *val = static_cast<double>(v.int64()); return true; }
      if (v.is_double()) { *val = v.dbl(); return true; }
      if (v.is_bool()) { *val = v.boolean() ? 1.0 : 0.0; return true; }
      return false;
    }
    case ExprKind::kUnary: {
      if (e.unary_op != UnaryOp::kNegate) return false;
      const Expr& c = *e.children[0];
      if (c.kind != ExprKind::kLiteral) return false;
      if (c.literal.is_int64()) {
        const int64_t iv = c.literal.int64();
        if (iv == std::numeric_limits<int64_t>::min()) return false;
        *val = -static_cast<double>(iv);
        return true;
      }
      if (c.literal.is_double()) { *val = -c.literal.dbl(); return true; }
      return false;
    }
    default:
      return false;
  }
}

std::unique_ptr<ScanPred> Classify(const Expr& e, const Table& t) {
  switch (e.kind) {
    case ExprKind::kBinary: {
      if (IsComparisonOp(e.binary_op)) {
        auto p = std::make_unique<ScanPred>();
        p->kind = ScanPred::Kind::kCmp;
        p->op = e.binary_op;
        if (!ClassifySide(*e.children[0], t, &p->lhs_col, &p->lhs_val,
                          &p->lhs_null) ||
            !ClassifySide(*e.children[1], t, &p->rhs_col, &p->rhs_val,
                          &p->rhs_null)) {
          return nullptr;
        }
        return p;
      }
      if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
        auto a = Classify(*e.children[0], t);
        if (a == nullptr) return nullptr;
        auto b = Classify(*e.children[1], t);
        if (b == nullptr) return nullptr;
        auto p = std::make_unique<ScanPred>();
        p->kind = e.binary_op == BinaryOp::kAnd ? ScanPred::Kind::kAnd
                                                : ScanPred::Kind::kOr;
        p->a = std::move(a);
        p->b = std::move(b);
        return p;
      }
      return nullptr;
    }
    case ExprKind::kUnary: {
      if (e.unary_op != UnaryOp::kNot) return nullptr;
      auto a = Classify(*e.children[0], t);
      if (a == nullptr) return nullptr;
      auto p = std::make_unique<ScanPred>();
      p->kind = ScanPred::Kind::kNot;
      p->a = std::move(a);
      return p;
    }
    case ExprKind::kColumnRef: {
      const auto idx = t.schema().FieldIndex(e.column_name);
      if (!idx.ok()) return nullptr;
      if (t.column(*idx).type() != DataType::kBool) return nullptr;
      auto p = std::make_unique<ScanPred>();
      p->kind = ScanPred::Kind::kBoolCol;
      p->col = static_cast<int>(*idx);
      return p;
    }
    case ExprKind::kLiteral: {
      // Only a boolean literal is a valid predicate on its own; a NULL or
      // numeric literal is a column-level type error on the decode path.
      if (!e.literal.is_bool()) return nullptr;
      auto p = std::make_unique<ScanPred>();
      p->kind = ScanPred::Kind::kConst;
      p->const_val = e.literal.boolean() ? Tri::kTrue : Tri::kFalse;
      return p;
    }
    default:
      return nullptr;
  }
}

// --- Comparison outcomes -----------------------------------------------------
//
// The VM's comparison opcodes (vector_eval.cc) under §11: either side
// NULL -> NULL; otherwise a three-way compare c in the coerced double
// space, with a NaN landing in c = 1 whichever side it is on.

bool CmpToBool(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEqual: return c == 0;
    case BinaryOp::kNotEqual: return c != 0;
    case BinaryOp::kLess: return c < 0;
    case BinaryOp::kLessEqual: return c <= 0;
    case BinaryOp::kGreater: return c > 0;
    case BinaryOp::kGreaterEqual: return c >= 0;
    default: return false;
  }
}

/// Result of `op` when the three-way compare lands in c = 1 — the slot
/// every NaN comparison falls into, whichever side the NaN is on.
bool OpAtC1(BinaryOp op) { return CmpToBool(op, 1); }

// --- Zone-map analysis ------------------------------------------------------
//
// Per block, the possible-truth-set of a predicate: which of {T, F, N}
// its row-level result could take. Computed bottom-up; every case is a
// superset approximation, which is sound for both decisions that use it
// (prune when T is impossible, take the whole block when only T is
// possible).

Tri And3(Tri x, Tri y) {
  if (x == Tri::kFalse || y == Tri::kFalse) return Tri::kFalse;
  if (x == Tri::kNull || y == Tri::kNull) return Tri::kNull;
  return Tri::kTrue;
}
Tri Or3(Tri x, Tri y) {
  if (x == Tri::kTrue || y == Tri::kTrue) return Tri::kTrue;
  if (x == Tri::kNull || y == Tri::kNull) return Tri::kNull;
  return Tri::kFalse;
}

uint8_t ComposeSets(uint8_t sa, uint8_t sb, Tri (*op3)(Tri, Tri)) {
  static constexpr Tri kAll[3] = {Tri::kTrue, Tri::kFalse, Tri::kNull};
  uint8_t out = 0;
  for (Tri x : kAll) {
    if ((sa & TriBit(x)) == 0) continue;
    for (Tri y : kAll) {
      if ((sb & TriBit(y)) == 0) continue;
      out |= TriBit(op3(x, y));
    }
  }
  return out;
}

/// Possible-set of `col interval_op lit` for one block. `interval_op` is
/// the comparison rewritten with the column on the left (mirrored when
/// the column is the right operand: a < b <=> b > a for comparable
/// values); `nan_op` is the ORIGINAL operator, because a NaN row lands in
/// c = 1 on either side, so its result is nan_op(c=1) un-mirrored.
uint8_t ColCmpConstSet(const ZoneMap& z, BinaryOp interval_op,
                       BinaryOp nan_op, double lit, bool lit_null) {
  if (z.rows == 0) return 0;
  if (lit_null) return kN;  // NULL literal: every row's result is NULL
  uint8_t s = 0;
  if (z.null_count > 0) s |= kN;
  const uint32_t comparable = z.comparable_count();
  if (std::isnan(lit)) {
    // Every non-null row compares into c = 1 against a NaN literal.
    if (comparable + z.nan_count > 0) s |= OpAtC1(nan_op) ? kT : kF;
    return s;
  }
  if (z.nan_count > 0) s |= OpAtC1(nan_op) ? kT : kF;
  if (comparable > 0) {
    bool t = true, f = true;
    switch (interval_op) {
      case BinaryOp::kLess:
        t = z.min < lit;
        f = z.max >= lit;
        break;
      case BinaryOp::kLessEqual:
        t = z.min <= lit;
        f = z.max > lit;
        break;
      case BinaryOp::kGreater:
        t = z.max > lit;
        f = z.min <= lit;
        break;
      case BinaryOp::kGreaterEqual:
        t = z.max >= lit;
        f = z.min < lit;
        break;
      case BinaryOp::kEqual:
        t = z.min <= lit && lit <= z.max;
        f = !(z.min == lit && z.max == lit);
        break;
      case BinaryOp::kNotEqual:
        t = !(z.min == lit && z.max == lit);
        f = z.min <= lit && lit <= z.max;
        break;
      default:
        break;
    }
    if (t) s |= kT;
    if (f) s |= kF;
  }
  return s;
}

BinaryOp MirrorOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLess: return BinaryOp::kGreater;
    case BinaryOp::kLessEqual: return BinaryOp::kGreaterEqual;
    case BinaryOp::kGreater: return BinaryOp::kLess;
    case BinaryOp::kGreaterEqual: return BinaryOp::kLessEqual;
    default: return op;  // =, != are symmetric
  }
}

uint8_t PossibleSet(const ScanPred& p, const BlockIndex& index, size_t b) {
  switch (p.kind) {
    case ScanPred::Kind::kCmp: {
      if (p.lhs_col >= 0 && p.rhs_col >= 0) {
        // Column vs column: no interval reasoning (yet); anything the VM
        // could produce is possible.
        const ZoneMap& za = index.columns[p.lhs_col].zones[b];
        const ZoneMap& zb = index.columns[p.rhs_col].zones[b];
        uint8_t s = kT | kF;
        if (za.null_count > 0 || zb.null_count > 0) s |= kN;
        return s;
      }
      if (p.lhs_col >= 0) {
        return ColCmpConstSet(index.columns[p.lhs_col].zones[b], p.op, p.op,
                              p.rhs_val, p.rhs_null);
      }
      if (p.rhs_col >= 0) {
        return ColCmpConstSet(index.columns[p.rhs_col].zones[b],
                              MirrorOp(p.op), p.op, p.lhs_val, p.lhs_null);
      }
      // Constant comparison: evaluate it once.
      if (p.lhs_null || p.rhs_null) return kN;
      const int c =
          p.lhs_val < p.rhs_val ? -1 : (p.lhs_val == p.rhs_val ? 0 : 1);
      return CmpToBool(p.op, c) ? kT : kF;
    }
    case ScanPred::Kind::kBoolCol: {
      const ZoneMap& z = index.columns[p.col].zones[b];
      uint8_t s = 0;
      if (z.comparable_count() > 0) {
        if (z.max >= 1.0) s |= kT;
        if (z.min <= 0.0) s |= kF;
      }
      if (z.null_count > 0) s |= kN;
      return s;
    }
    case ScanPred::Kind::kConst:
      return TriBit(p.const_val);
    case ScanPred::Kind::kNot: {
      const uint8_t sa = PossibleSet(*p.a, index, b);
      uint8_t s = sa & kN;
      if (sa & kT) s |= kF;
      if (sa & kF) s |= kT;
      return s;
    }
    case ScanPred::Kind::kAnd:
      return ComposeSets(PossibleSet(*p.a, index, b),
                         PossibleSet(*p.b, index, b), And3);
    case ScanPred::Kind::kOr:
      return ComposeSets(PossibleSet(*p.a, index, b),
                         PossibleSet(*p.b, index, b), Or3);
  }
  return kT | kF | kN;
}

double CoercedAt(const Column& col, size_t r) {
  switch (col.type()) {
    case DataType::kInt64:
      return static_cast<double>(col.int64_data()[r]);
    case DataType::kDouble:
      return col.double_data()[r];
    case DataType::kBool:
      return col.bool_data()[r] ? 1.0 : 0.0;
    default:
      return 0.0;  // unreachable: strings are not indexed
  }
}

}  // namespace

std::string ScanStats::Describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "zonescan: blocks=%zu pruned=%zu taken=%zu",
                blocks_total, blocks_pruned, blocks_taken);
  return buf;
}

Result<std::optional<std::vector<uint32_t>>> CompressedFilterRows(
    const Expr& pred, const Table& table, ScanStats* stats,
    std::string* disassembly) {
  using Selection = std::optional<std::vector<uint32_t>>;
  const std::shared_ptr<const BlockIndex> index = FindBlockIndex(table);
  if (index == nullptr) return Selection();
  const std::unique_ptr<ScanPred> plan = Classify(pred, table);
  if (plan == nullptr) {
    FallbackDecodeCounter()->Add();
    return Selection();
  }

  const size_t nb = index->num_blocks;
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  *st = ScanStats{};  // fresh tally per scan, even when the caller reuses one
  st->blocks_total = nb;
  if (nb == 0) return Selection(std::vector<uint32_t>{});  // empty table

  // Zone maps only: prune the block, take it whole, or leave it to the
  // VM. Adjacent undecided blocks form one range.
  enum class Verdict : uint8_t { kPrune, kTake, kEvaluate };
  std::vector<Verdict> verdict(nb);
  std::vector<RowRange> undecided;
  size_t taken_rows = 0;
  for (size_t b = 0; b < nb; ++b) {
    const uint8_t s = PossibleSet(*plan, *index, b);
    const size_t start = index->BlockStart(b);
    const size_t end = start + index->BlockLength(b);
    if ((s & kT) == 0) {
      verdict[b] = Verdict::kPrune;
      ++st->blocks_pruned;
    } else if (s == kT) {
      verdict[b] = Verdict::kTake;
      ++st->blocks_taken;
      taken_rows += end - start;
    } else {
      verdict[b] = Verdict::kEvaluate;
      if (!undecided.empty() && undecided.back().end == start) {
        undecided.back().end = end;
      } else {
        undecided.push_back({start, end});
      }
    }
  }

  // Decline when the index buys nothing: the VM over every row is then
  // the whole scan.
  if (st->blocks_pruned == 0 && st->blocks_taken == 0) {
    FallbackDecodeCounter()->Add();
    *st = ScanStats{};
    return Selection();
  }

  std::vector<uint32_t> evaluated;
  if (!undecided.empty()) {
    LAWS_ASSIGN_OR_RETURN(evaluated,
                          FilterRows(pred, table, disassembly, &undecided));
  }

  // Merge in block order: a taken block contributes every row, an
  // undecided one the rows the VM selected, so the selection stays
  // ascending.
  std::vector<uint32_t> out;
  out.reserve(taken_rows + evaluated.size());
  size_t next = 0;
  for (size_t b = 0; b < nb; ++b) {
    LAWS_GOVERNOR_POLL();
    const size_t start = index->BlockStart(b);
    const size_t end = start + index->BlockLength(b);
    if (verdict[b] == Verdict::kTake) {
      for (size_t r = start; r < end; ++r) {
        out.push_back(static_cast<uint32_t>(r));
      }
    } else if (verdict[b] == Verdict::kEvaluate) {
      while (next < evaluated.size() && evaluated[next] < end) {
        out.push_back(evaluated[next++]);
      }
    }
  }

  BlocksTotalCounter()->Add(st->blocks_total);
  BlocksPrunedCounter()->Add(st->blocks_pruned);
  BlocksTakenCounter()->Add(st->blocks_taken);
  return Selection(std::move(out));
}

namespace {

/// Folds the zone maps of one column into an AggState equivalent to the
/// executor's row sweep, and with `need_sum` sums the rows when the
/// exactness proof holds; when it fails, the fold still serves
/// COUNT/MIN/MAX but `sum_exact` stays false.
struct ColumnFold {
  AggState state;
  bool sum_exact = false;
};

ColumnFold FoldColumn(const Table& table, const BlockIndex& index, int col,
                      bool need_sum) {
  constexpr double kExactIntBound = 9007199254740992.0;  // 2^53
  ColumnFold fold;
  AggState& s = fold.state;
  const ColumnBlockIndex& ci = index.columns[col];

  uint64_t nan_total = 0;
  bool integral = true;
  double magnitude_bound = 0.0;
  for (size_t b = 0; b < index.num_blocks; ++b) {
    const ZoneMap& z = ci.zones[b];
    s.count += z.rows - z.null_count;
    nan_total += z.nan_count;
    const uint32_t comparable = z.comparable_count();
    if (comparable > 0) {
      s.saw_comparable = true;
      s.min = std::min(s.min, z.min);
      s.max = std::max(s.max, z.max);
      if (!z.all_integral) integral = false;
      magnitude_bound += std::max(std::fabs(z.min), std::fabs(z.max)) *
                         static_cast<double>(comparable);
    }
  }
  s.any = s.count > 0;

  // Exactness proof for SUM/AVG: no NaN can poison the total, every
  // addend is an exactly-representable integer, and every partial sum
  // stays within [-2^53, 2^53] where double addition is exact — so the
  // block-by-block sum below is bit-identical to the row sweep in any
  // association order.
  if (!need_sum || nan_total != 0 || !integral ||
      magnitude_bound > kExactIntBound || std::isnan(magnitude_bound)) {
    return fold;
  }
  const Column& column = table.column(col);
  for (size_t b = 0; b < index.num_blocks; ++b) {
    const ZoneMap& z = ci.zones[b];
    const size_t start = index.BlockStart(b);
    const size_t end = start + index.BlockLength(b);
    if (z.null_count == 0 && column.type() == DataType::kInt64) {
      const int64_t* v = column.int64_data().data();
      for (size_t r = start; r < end; ++r) s.sum += static_cast<double>(v[r]);
    } else if (z.null_count == 0 && column.type() == DataType::kDouble) {
      const double* v = column.double_data().data();
      for (size_t r = start; r < end; ++r) s.sum += v[r];
    } else if (z.null_count < z.rows) {
      for (size_t r = start; r < end; ++r) {
        if (!column.IsNull(r)) s.sum += CoercedAt(column, r);
      }
    }
  }
  fold.sum_exact = true;
  return fold;
}

}  // namespace

std::optional<std::vector<AggState>> EncodedGlobalAggregate(
    const Table& table, const std::vector<const Expr*>& slots) {
  const std::shared_ptr<const BlockIndex> index = FindBlockIndex(table);
  if (index == nullptr) return std::nullopt;

  std::vector<AggState> states;
  states.reserve(slots.size());
  for (const Expr* slot : slots) {
    if (slot == nullptr || slot->kind != ExprKind::kAggregate) {
      return std::nullopt;
    }
    const AggregateFunc func = slot->aggregate_func;
    if (slot->children[0]->kind == ExprKind::kStar) {
      if (func != AggregateFunc::kCount) return std::nullopt;
      AggState s;
      s.count = table.num_rows();
      s.any = s.count > 0;
      states.push_back(std::move(s));
      continue;
    }
    // VARIANCE/STDDEV run Welford recurrences whose result depends on
    // input order; a zone fold cannot reproduce them bit-for-bit.
    if (func == AggregateFunc::kVariance || func == AggregateFunc::kStddev) {
      return std::nullopt;
    }
    const Expr& arg = *slot->children[0];
    if (arg.kind != ExprKind::kColumnRef) return std::nullopt;
    const auto idx = table.schema().FieldIndex(arg.column_name);
    if (!idx.ok()) return std::nullopt;
    if (!index->columns[*idx].usable) return std::nullopt;  // string column
    const bool need_sum =
        func == AggregateFunc::kSum || func == AggregateFunc::kAvg;
    ColumnFold fold =
        FoldColumn(table, *index, static_cast<int>(*idx), need_sum);
    if (need_sum && !fold.sum_exact) return std::nullopt;
    states.push_back(std::move(fold.state));
  }
  EncodedAggCounter()->Add();
  return states;
}

}  // namespace laws
