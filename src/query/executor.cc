#include "query/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "common/governor.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "compress/block_store.h"
#include "query/agg_state.h"
#include "query/compressed_scan.h"
#include "query/expr_eval.h"
#include "query/parser.h"
#include "storage/grouping.h"

namespace laws {
namespace {

/// A unique aggregate call discovered in the statement.
struct AggSlot {
  std::unique_ptr<Expr> node;  // canonical instance
  std::string key;             // ToString identity
  std::string hidden_name;
  bool is_star = false;
};

/// The aggregated table's column for GROUP BY key `k`.
std::string KeyColumnName(size_t k) { return "__key" + std::to_string(k); }

void CollectAggregates(const Expr& expr, std::vector<AggSlot>* slots) {
  if (expr.kind == ExprKind::kAggregate) {
    std::string key = expr.ToString();
    for (const AggSlot& s : *slots) {
      if (s.key == key) return;
    }
    AggSlot slot;
    slot.node = expr.Clone();
    slot.key = std::move(key);
    slot.hidden_name = "__agg" + std::to_string(slots->size());
    slot.is_star = expr.children[0]->kind == ExprKind::kStar;
    slots->push_back(std::move(slot));
    return;  // aggregates cannot nest
  }
  for (const auto& c : expr.children) CollectAggregates(*c, slots);
}

/// Replaces aggregate nodes and group-key expressions with column refs into
/// the intermediate aggregated table.
std::unique_ptr<Expr> RewriteForAggregated(
    const Expr& expr, const std::vector<AggSlot>& slots,
    const std::vector<std::string>& key_exprs) {
  const std::string repr = expr.ToString();
  for (size_t i = 0; i < key_exprs.size(); ++i) {
    if (repr == key_exprs[i]) return Expr::MakeColumnRef(KeyColumnName(i));
  }
  if (expr.kind == ExprKind::kAggregate) {
    for (const AggSlot& s : slots) {
      if (s.key == repr) return Expr::MakeColumnRef(s.hidden_name);
    }
  }
  auto out = expr.Clone();
  for (auto& c : out->children) c = RewriteForAggregated(*c, slots, key_exprs);
  return out;
}

/// Folds a group-key value into its canonical GROUP BY identity: every
/// NaN bit pattern to one quiet NaN and -0.0 to +0.0, the same folding
/// GroupRows applies to DOUBLE key codes, so the emitted key does not
/// depend on which row of the group came first.
Value CanonicalGroupValue(Value v) {
  if (v.is_double()) {
    const double d = v.dbl();
    if (std::isnan(d)) return Value::Double(std::numeric_limits<double>::quiet_NaN());
    if (d == 0.0) return Value::Double(0.0);
  }
  return v;
}

/// Appends a collision-free encoding of `col[row]` to a HashJoin key: a
/// one-byte type tag, then a fixed-width payload (length-prefixed for
/// strings), with every NaN folded to one and -0.0 to +0.0. The two join
/// sides have separate dictionaries, so strings are encoded by text.
void AppendCanonicalKey(const Column& col, size_t row, std::string* key) {
  if (col.IsNull(row)) {
    key->push_back('N');
    return;
  }
  switch (col.type()) {
    case DataType::kInt64: {
      const int64_t v = col.Int64At(row);
      key->push_back('i');
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return;
    }
    case DataType::kDouble: {
      double v = col.DoubleAt(row);
      if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
      if (v == 0.0) v = 0.0;  // fold -0.0
      key->push_back('d');
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return;
    }
    case DataType::kBool:
      key->push_back(col.BoolAt(row) ? 'T' : 'F');
      return;
    case DataType::kString: {
      const std::string_view s = col.StringAt(row);
      const uint32_t len = static_cast<uint32_t>(s.size());
      key->push_back('s');
      key->append(reinterpret_cast<const char*>(&len), sizeof(len));
      key->append(s.data(), s.size());
      return;
    }
  }
}

/// Resolves `expr` against `table`: a column reference is read in place,
/// any other expression is evaluated once into `*evaluated`.
Result<const Column*> ResolveColumn(const Expr& expr, const Table& table,
                                    Column* evaluated) {
  if (expr.kind == ExprKind::kColumnRef) {
    return table.ColumnByName(expr.column_name);
  }
  LAWS_ASSIGN_OR_RETURN(*evaluated, EvaluateExpr(expr, table));
  return evaluated;
}

/// Adds the schema positions of the columns `expr` reads to `*columns`.
/// A name the schema lacks is left for the compiler to report.
void CollectReadColumns(const Expr& expr, const Schema& schema,
                        std::vector<size_t>* columns) {
  if (expr.kind == ExprKind::kColumnRef) {
    if (Result<size_t> c = schema.FieldIndex(expr.column_name); c.ok()) {
      columns->push_back(*c);
    }
  }
  for (const auto& c : expr.children) CollectReadColumns(*c, schema, columns);
}

/// The rows `selection` of `table` with only the columns `exprs` read,
/// charged to `charge`. An operator that evaluates a computed expression
/// under a WHERE or HAVING runs the VM over this table, so the VM sees
/// the selected rows only and no other column is copied (DESIGN.md §13).
Result<Table> GatherForEvaluation(const Table& table,
                                  const std::vector<uint32_t>& selection,
                                  const std::vector<const Expr*>& exprs,
                                  ScopedCharge* charge) {
  std::vector<size_t> columns;
  for (const Expr* e : exprs) CollectReadColumns(*e, table.schema(), &columns);
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  LAWS_ASSIGN_OR_RETURN(Table narrow, table.GatherRows(selection, columns));
  LAWS_RETURN_IF_ERROR(
      charge->Acquire(narrow.MemoryBytes(), "selected columns"));
  return narrow;
}

// AggState and AggFinalValue live in query/agg_state.h, shared with the
// encoded aggregator (compressed_scan.cc).

/// The rows one aggregate sweep folds, in table order: rows[i] (row i
/// when `rows` is null) into group group[i] (group 0 when `group` is
/// null).
struct SweepRows {
  const uint32_t* rows = nullptr;
  const uint32_t* group = nullptr;
  size_t len = 0;
  /// The aggregate input's last row: the last selected row under a
  /// selection. Only the planted mutant of tools/check_differential.sh
  /// reads it.
  size_t last_row = 0;
};

/// One group's numeric recurrences held in locals while a stride folds
/// into that group alone, so they stay in registers.
struct LocalState {
  explicit LocalState(const AggState& s)
      : count(s.count), sum(s.sum), min(s.min), max(s.max), mean(s.mean),
        m2(s.m2), any(s.any), saw_comparable(s.saw_comparable) {}
  void StoreTo(AggState* s) const {
    s->count = count;
    s->sum = sum;
    s->min = min;
    s->max = max;
    s->mean = mean;
    s->m2 = m2;
    s->any = any;
    s->saw_comparable = saw_comparable;
  }

  size_t count;
  double sum, min, max, mean, m2;
  bool any, saw_comparable;
};

/// Folds the rows `in` into their groups' states ([group * num_slots +
/// slot]), slot by slot, each in table order. Every group lives in one
/// partition, so partitions write disjoint states, and each group's SUM
/// and Welford recurrences see its rows in exactly the serial order.
/// Numeric arguments are read one kGovernorPollStride-row stride at a
/// time into one stride-sized buffer: one type dispatch per stride, and
/// each function runs only the recurrences its final value reads.
Status Sweep(const SweepRows& in, const std::vector<AggSlot>& slots,
             const std::vector<const Column*>& args, AggState* states) {
  const size_t num_slots = slots.size();
  const size_t stride = std::min(in.len, kGovernorPollStride);
  std::vector<uint32_t> ids(in.rows == nullptr ? stride : 0);
  std::vector<double> values;
  std::vector<uint8_t> nulls;
  const auto row = [&](size_t i) -> size_t {
    return in.rows != nullptr ? in.rows[i] : i;
  };
  for (size_t a = 0; a < num_slots; ++a) {
    const auto state = [&](size_t i) -> AggState& {
      return states[(in.group != nullptr ? in.group[i] : 0) * num_slots + a];
    };
    // Runs fold(lo, hi) over the rows in polled strides.
    const auto strides = [&](auto fold) -> Status {
      for (size_t lo = 0; lo < in.len; lo += kGovernorPollStride) {
        LAWS_GOVERNOR_POLL();
        LAWS_RETURN_IF_ERROR(fold(lo, std::min(in.len, lo + kGovernorPollStride)));
      }
      return Status::OK();
    };
    if (args[a] == nullptr) {  // COUNT(*)
      LAWS_RETURN_IF_ERROR(strides([&](size_t lo, size_t hi) {
        if (in.group == nullptr) {
          states[a].count += hi - lo;
          states[a].any = true;
          return Status::OK();
        }
        for (size_t i = lo; i < hi; ++i) {
          AggState& s = state(i);
          ++s.count;
          s.any = true;
        }
        return Status::OK();
      }));
      continue;
    }
    const Column& arg = *args[a];
    if (arg.type() == DataType::kString) {
      // Strings keep the element-wise path (dictionary lookups, ordering).
      LAWS_RETURN_IF_ERROR(strides([&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          if (arg.IsNull(row(i))) continue;
          AggState& s = state(i);
          ++s.count;
          s.any = true;
          s.is_string = true;
          const std::string_view v = arg.StringAt(row(i));
          if (s.count == 1 || v < s.smin) s.smin = v;
          if (s.count == 1 || v > s.smax) s.smax = v;
        }
        return Status::OK();
      }));
      continue;
    }
    values.resize(stride);
    nulls.resize(stride);
    const auto sweep = [&](auto update) {
      return strides([&](size_t lo, size_t hi) -> Status {
        const uint32_t* at = in.rows + lo;
        if (in.rows == nullptr) {
          std::iota(ids.begin(), ids.begin() + (hi - lo),
                    static_cast<uint32_t>(lo));
          at = ids.data();
        }
        LAWS_RETURN_IF_ERROR(
            arg.GatherNumericMasked(at, hi - lo, values.data(), nulls.data())
                .status());
        // Folds position i of the stride into `s`.
        const auto fold = [&](auto& s, size_t i) {
#ifdef LAWS_TESTING_INJECT_BUG
          // Deliberate off-by-one for the mutation smoke check in
          // tools/check_differential.sh: the sweep drops the input's last
          // row. Never defined in production builds.
          if (at[i] == in.last_row) return;
#endif
          if (nulls[i]) return;
          ++s.count;
          s.any = true;
          update(s, values[i]);
        };
        if (in.group == nullptr) {
          LocalState s(states[a]);
          for (size_t i = 0; i < hi - lo; ++i) fold(s, i);
          s.StoreTo(&states[a]);
          return Status::OK();
        }
        for (size_t i = 0; i < hi - lo; ++i) fold(state(lo + i), i);
        return Status::OK();
      });
    };
    switch (slots[a].node->aggregate_func) {
      case AggregateFunc::kCount:
        LAWS_RETURN_IF_ERROR(sweep([](auto&, double) {}));
        break;
      case AggregateFunc::kSum:
      case AggregateFunc::kAvg:
        LAWS_RETURN_IF_ERROR(sweep([](auto& s, double v) { s.sum += v; }));
        break;
      case AggregateFunc::kMin:
      case AggregateFunc::kMax:
        LAWS_RETURN_IF_ERROR(sweep([](auto& s, double v) {
          if (!std::isnan(v)) s.saw_comparable = true;
          s.min = std::min(s.min, v);
          s.max = std::max(s.max, v);
        }));
        break;
      case AggregateFunc::kVariance:
      case AggregateFunc::kStddev:
        // Welford, in the group's table order.
        LAWS_RETURN_IF_ERROR(sweep([](auto& s, double v) {
          const double delta = v - s.mean;
          s.mean += delta / static_cast<double>(s.count);
          s.m2 += delta * (v - s.mean);
        }));
        break;
    }
  }
  return Status::OK();
}

/// Aggregates the rows of `input` — those of `selection` when it is not
/// null — and emits one row per group in first-seen order: key columns
/// `__key<k>`, then the slots' hidden columns. Column-reference keys and
/// arguments are read in place at the selected rows. When a key or an
/// argument is computed, the selected rows are first gathered with only
/// the columns the keys and arguments read, and the VM runs on those. A
/// statement with GROUP BY groups the rows (GroupRows) and sweeps each
/// partition on its lane; one without is one group, folded in table
/// order with no grouping. `*note` (when non-null) gets the grouping that
/// ran, for the HashAggregate span.
Result<Table> Aggregate(const Table& input,
                        const std::vector<uint32_t>* selection,
                        const std::vector<std::unique_ptr<Expr>>& group_by,
                        const std::vector<AggSlot>& slots, std::string* note) {
  // Evaluated key and argument columns are the aggregation's big
  // materializations; charge them as they appear.
  ScopedCharge charge;
  if (selection != nullptr) {
    std::vector<const Expr*> exprs;
    for (const auto& g : group_by) exprs.push_back(g.get());
    for (const AggSlot& s : slots) {
      if (!s.is_star) exprs.push_back(s.node->children[0].get());
    }
    if (std::any_of(exprs.begin(), exprs.end(), [](const Expr* e) {
          return e->kind != ExprKind::kColumnRef;
        })) {
      LAWS_ASSIGN_OR_RETURN(
          const Table selected,
          GatherForEvaluation(input, *selection, exprs, &charge));
      return Aggregate(selected, nullptr, group_by, slots, note);
    }
  }

  std::vector<Column> evaluated(group_by.size() + slots.size(),
                                Column(DataType::kInt64));
  std::vector<const Column*> keys;
  for (size_t k = 0; k < group_by.size(); ++k) {
    LAWS_GOVERNOR_POLL();
    LAWS_ASSIGN_OR_RETURN(const Column* c,
                          ResolveColumn(*group_by[k], input, &evaluated[k]));
    LAWS_RETURN_IF_ERROR(
        charge.Acquire(evaluated[k].MemoryBytes(), "group keys"));
    keys.push_back(c);
  }
  const size_t num_slots = slots.size();
  std::vector<uint32_t> first_row{0};  // first row of each group
  std::vector<AggState> states;        // [group * num_slots + slot]
  std::vector<const Column*> args;     // nullptr for COUNT(*)
  size_t partitions = 1;

  // A global aggregation over a whole indexed base table can often be
  // folded from zone statistics (DESIGN.md §14). EncodedGlobalAggregate
  // only answers when the fold is provably bit-identical to the sweep
  // below, so the shortcut is invisible to everything downstream. Zone
  // statistics describe every row of a block, so a selection rules it
  // out.
  bool encoded = false;
  LAWS_GOVERNOR_POLL();
  if (group_by.empty() && selection == nullptr) {
    std::vector<const Expr*> nodes;
    nodes.reserve(slots.size());
    for (const AggSlot& s : slots) nodes.push_back(s.node.get());
    if (auto enc = EncodedGlobalAggregate(input, nodes)) {
      states = std::move(*enc);
      encoded = true;
    }
  }

  if (!encoded) {
    // Resolve aggregate argument columns (once each).
    for (size_t a = 0; a < num_slots; ++a) {
      const AggSlot& s = slots[a];
      if (s.is_star) {
        args.push_back(nullptr);
        continue;
      }
      LAWS_GOVERNOR_POLL();
      Column* owned = &evaluated[group_by.size() + a];
      LAWS_ASSIGN_OR_RETURN(
          const Column* c, ResolveColumn(*s.node->children[0], input, owned));
      // SUM/AVG/VARIANCE/STDDEV over a string argument is a planning-time
      // type error, not a data-dependent one (the old behavior errored only
      // when some group actually held a non-null string).
      const AggregateFunc func = s.node->aggregate_func;
      if (c->type() == DataType::kString &&
          (func == AggregateFunc::kSum || func == AggregateFunc::kAvg ||
           func == AggregateFunc::kVariance ||
           func == AggregateFunc::kStddev)) {
        return Status::TypeMismatch(std::string(AggregateFuncToString(func)) +
                                    "() requires a numeric argument");
      }
      LAWS_RETURN_IF_ERROR(
          charge.Acquire(owned->MemoryBytes(), "aggregate arguments"));
      args.push_back(c);
    }

    const size_t n = input.num_rows();
    SweepRows all;
    all.rows = selection != nullptr ? selection->data() : nullptr;
    all.len = selection != nullptr ? selection->size() : n;
    all.last_row = selection != nullptr
                       ? (selection->empty() ? 0 : selection->back())
                       : n - 1;
    if (group_by.empty()) {
      LAWS_RETURN_IF_ERROR(
          charge.Acquire(num_slots * sizeof(AggState), "aggregate states"));
      states.resize(num_slots);
      LAWS_RETURN_IF_ERROR(Sweep(all, slots, args, states.data()));
    } else {
      LAWS_ASSIGN_OR_RETURN(Grouping grouping,
                            GroupRows(keys, n, selection, &charge));
      partitions = grouping.num_partitions();
      LAWS_RETURN_IF_ERROR(charge.Acquire(
          grouping.num_groups() * num_slots * sizeof(AggState),
          "aggregate states"));
      states.resize(grouping.num_groups() * num_slots);
      LAWS_RETURN_IF_ERROR(
          ForEachPartition(grouping, [&](size_t begin, size_t end) {
            SweepRows part = all;
            part.rows = grouping.rows.data() + begin;
            part.group = grouping.group.data() + begin;
            part.len = end - begin;
            return Sweep(part, slots, args, states.data());
          }));
      first_row = std::move(grouping.first_row);
    }
  }

  const size_t num_groups = first_row.size();
  if (note != nullptr) {
    *note = group_by.empty() ? std::string(" | one group")
                             : " | " + std::to_string(num_groups) +
                                   " groups in " + std::to_string(partitions) +
                                   " partitions";
  }

  // Build the intermediate table: key columns then aggregate columns.
  std::vector<Field> fields;
  for (size_t k = 0; k < keys.size(); ++k) {
    fields.push_back(Field{KeyColumnName(k), keys[k]->type(), true});
  }
  for (size_t a = 0; a < slots.size(); ++a) {
    const DataType t =
        slots[a].node->aggregate_func == AggregateFunc::kCount
            ? DataType::kInt64
            : (a < args.size() && args[a] != nullptr &&
                       args[a]->type() == DataType::kString
                   ? DataType::kString
                   : DataType::kDouble);
    fields.push_back(Field{slots[a].hidden_name, t, true});
  }
  Table out{Schema(std::move(fields))};
  std::vector<Value> row_values;
  for (size_t g = 0; g < num_groups; ++g) {
    row_values.clear();
    for (size_t k = 0; k < keys.size(); ++k) {
      // Key values pass through the same canonicalization as the key
      // codes, so a group whose first row held -0.0 (or a sign-flipped
      // NaN) emits the canonical key, not a first-seen artifact.
      row_values.push_back(
          CanonicalGroupValue(keys[k]->GetValue(first_row[g])));
    }
    for (size_t a = 0; a < slots.size(); ++a) {
      row_values.push_back(
          AggFinalValue(*slots[a].node, states[g * num_slots + a]));
    }
    LAWS_RETURN_IF_ERROR(out.AppendRow(row_values));
  }
  return out;
}

// ORDER BY codes (DESIGN.md §11): every key value maps to a uint64 whose
// unsigned order is the total order numbers < NaN < strings < NULL.
constexpr uint64_t kSignBit = uint64_t{1} << 63;
constexpr uint64_t kNanCode = 0xFFF0000000000001ull;  // just above +inf
constexpr uint64_t kNullCode = ~uint64_t{0};

/// Positive doubles gain the sign bit and negative ones flip every bit, so
/// unsigned order is numeric order. -0.0 folds to 0.0 and every NaN bit
/// pattern shares one code.
uint64_t NumberOrderCode(double d) {
  if (std::isnan(d)) return kNanCode;
  if (d == 0.0) d = 0.0;
  const uint64_t bits = std::bit_cast<uint64_t>(d);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

/// The codes of one ORDER BY key, read in place: code(i) is the code of
/// the key's value at position i, which is row sel[i] when the key reads
/// at a selection and row i otherwise. A string's code is its rank in
/// the column's dictionary sorted by text (dictionary ids follow
/// insertion order), ranked once, at construction; equal texts share a
/// rank.
class OrderCoder {
 public:
  OrderCoder(const Column& col, bool ascending, const uint32_t* sel)
      : col_(&col), sel_(sel), flip_(ascending ? 0 : ~uint64_t{0}) {
    if (col.type() != DataType::kString) return;
    const std::vector<std::string>& dict = col.dictionary();
    std::vector<uint32_t> by_text(dict.size());
    std::iota(by_text.begin(), by_text.end(), uint32_t{0});
    std::sort(by_text.begin(), by_text.end(),
              [&](uint32_t a, uint32_t b) { return dict[a] < dict[b]; });
    rank_.resize(dict.size());
    uint64_t code = kNanCode;
    for (size_t i = 0; i < by_text.size(); ++i) {
      if (i == 0 || dict[by_text[i]] != dict[by_text[i - 1]]) ++code;
      rank_[by_text[i]] = code;
    }
  }

  /// Returns f(code) with `code` typed to the column, so a loop that
  /// codes row after row dispatches on the type once.
  template <typename F>
  decltype(auto) Visit(F&& f) const {
    const Column& col = *col_;
    const uint32_t* sel = sel_;
    const uint64_t flip = flip_;
    // The validity bitmap (1 = valid), or null when no row is NULL.
    const uint8_t* valid = col.nullable() && !col.validity().empty()
                               ? col.validity().data()
                               : nullptr;
    const auto coded = [&](auto value_code) -> decltype(auto) {
      return f([sel, valid, flip, value_code](size_t i) {
        const size_t r = sel != nullptr ? sel[i] : i;
        const bool null = valid != nullptr && ((valid[r >> 3] >> (r & 7)) & 1) == 0;
        return (null ? kNullCode : value_code(r)) ^ flip;
      });
    };
    switch (col.type()) {
      case DataType::kInt64: {
        const int64_t* v = col.int64_data().data();
        return coded([v](size_t r) {
          return NumberOrderCode(static_cast<double>(v[r]));
        });
      }
      case DataType::kDouble: {
        const double* v = col.double_data().data();
        return coded([v](size_t r) { return NumberOrderCode(v[r]); });
      }
      case DataType::kBool: {
        const uint8_t* v = col.bool_data().data();
        return coded(
            [v](size_t r) { return NumberOrderCode(v[r] != 0 ? 1.0 : 0.0); });
      }
      case DataType::kString:
        break;
    }
    const uint32_t* ids = col.string_codes().data();
    const uint64_t* rank = rank_.data();
    return coded([ids, rank](size_t r) { return rank[ids[r]]; });
  }

  uint64_t operator()(size_t i) const {
    return Visit([i](auto code) { return code(i); });
  }

 private:
  const Column* col_;
  const uint32_t* sel_;
  uint64_t flip_;
  std::vector<uint64_t> rank_;  // string dictionary id -> code
};

/// codes[i] = code(i) for every position i, polling the governor between
/// strides.
Status FillOrderCodes(const OrderCoder& coder, std::vector<uint64_t>* codes) {
  return coder.Visit([codes](auto code) -> Status {
    const size_t n = codes->size();
    for (size_t begin = 0; begin < n; begin += kGovernorPollStride) {
      LAWS_GOVERNOR_POLL();
      const size_t end = std::min(n, begin + kGovernorPollStride);
      for (size_t i = begin; i < end; ++i) (*codes)[i] = code(i);
    }
    return Status::OK();
  });
}

/// ORDER BY keys as order codes, [key][position]. Less() compares them
/// key by key and breaks ties on position, which is row order. The order
/// is therefore total: std::sort reproduces a stable sort exactly.
struct OrderKeys {
  std::vector<std::vector<uint64_t>> codes;

  int Compare(uint32_t x, uint32_t y) const {
    for (const std::vector<uint64_t>& c : codes) {
      if (c[x] != c[y]) return c[x] < c[y] ? -1 : 1;
    }
    return 0;
  }
  bool Less(uint32_t x, uint32_t y) const {
    const int c = Compare(x, y);
    return c != 0 ? c < 0 : x < y;
  }
};

/// A top-k candidate: its first key's code and its position.
struct Candidate {
  uint64_t code;
  uint32_t pos;
};

/// OrderKeys' order over candidates: the first key's code, the later
/// keys' codes computed from the key columns, then position.
struct CandidateOrder {
  const std::vector<OrderCoder>* keys;

  int Compare(const Candidate& x, const Candidate& y) const {
    if (x.code != y.code) return x.code < y.code ? -1 : 1;
    for (size_t k = 1; k < keys->size(); ++k) {
      const uint64_t cx = (*keys)[k](x.pos);
      const uint64_t cy = (*keys)[k](y.pos);
      if (cx != cy) return cx < cy ? -1 : 1;
    }
    return 0;
  }
  bool operator()(const Candidate& x, const Candidate& y) const {
    const int c = Compare(x, y);
    return c != 0 ? c < 0 : x.pos < y.pos;
  }
};

/// Positions per top-k chunk at least: inputs under two chunks (128K
/// rows) stay on the caller (DESIGN.md §6).
constexpr size_t kTopKGrainRows = size_t{1} << 16;

/// The first `k` (0 < k) of `m` positions under `keys`, in order.
/// Contiguous chunks run on the pool's lanes, each keeping its k best
/// candidates in a bounded max-heap whose worst first-key code sits in a
/// register, so most rows cost one code and one compare; the caller
/// merges the chunks' sorted candidates under the same total order, so
/// the result is the serial heap's at every lane count.
Result<std::vector<uint32_t>> SelectTopK(const std::vector<OrderCoder>& keys,
                                         size_t m, size_t k,
                                         ScopedCharge* charge) {
  LAWS_RETURN_IF_ERROR(charge->Acquire(
      std::min(m, k * ThreadPool::Global().num_threads()) * sizeof(Candidate),
      "sort candidates"));
  const CandidateOrder less{&keys};
  const auto admit = [&less](const Candidate& x, const Candidate& worst) {
#ifdef LAWS_TESTING_INJECT_BUG
    // Deliberate tie-break inversion for the mutation smoke check in
    // tools/check_differential.sh: a row tied with its lane's k-th
    // candidate on every key replaces it. Never defined in production
    // builds.
    if (less.Compare(x, worst) == 0) return true;
#endif
    return less(x, worst);
  };
  struct Chunk {
    size_t begin;
    std::vector<Candidate> best;  // sorted
  };
  std::mutex mutex;
  std::vector<Chunk> chunks;
  ParallelForChunks(
      0, m,
      [&](size_t lo, size_t hi) {
        std::vector<Candidate> heap;
        heap.reserve(std::min(k, hi - lo));
        // A governor trip stops the chunk; the caller re-polls.
        (void)keys[0].Visit([&](auto code) -> Status {
          uint64_t worst = 0;  // heap.front().code once the heap is full
          for (size_t begin = lo; begin < hi; begin += kGovernorPollStride) {
            LAWS_GOVERNOR_POLL();
            const size_t end = std::min(hi, begin + kGovernorPollStride);
            size_t i = begin;
            for (; i < end && heap.size() < k; ++i) {
              heap.push_back(Candidate{code(i), static_cast<uint32_t>(i)});
              std::push_heap(heap.begin(), heap.end(), less);
              worst = heap.front().code;
            }
            for (; i < end; ++i) {
              const Candidate x{code(i), static_cast<uint32_t>(i)};
              if (x.code > worst) continue;
              if (x.code == worst && !admit(x, heap.front())) continue;
              std::pop_heap(heap.begin(), heap.end(), less);
              heap.back() = x;
              std::push_heap(heap.begin(), heap.end(), less);
              worst = heap.front().code;
            }
          }
          return Status::OK();
        });
        std::sort_heap(heap.begin(), heap.end(), less);
        std::lock_guard<std::mutex> lock(mutex);
        chunks.push_back(Chunk{lo, std::move(heap)});
      },
      {.grain = kTopKGrainRows});
  // A tripped governor skips or stops chunks, leaving candidates out.
  LAWS_GOVERNOR_POLL();

  // Every chunk kept min(k, its rows) candidates, so together they hold
  // at least k. Merge them in chunk order.
  std::sort(chunks.begin(), chunks.end(),
            [](const Chunk& x, const Chunk& y) { return x.begin < y.begin; });
  std::vector<size_t> next(chunks.size(), 0);
  std::vector<uint32_t> top;
  top.reserve(k);
  while (top.size() < k) {
    if (top.size() % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
    size_t best = chunks.size();
    for (size_t c = 0; c < chunks.size(); ++c) {
      if (next[c] == chunks[c].best.size()) continue;
      if (best == chunks.size()) {
        best = c;
        continue;
      }
      const Candidate& x = chunks[c].best[next[c]];
      const Candidate& y = chunks[best].best[next[best]];
#ifdef LAWS_TESTING_INJECT_BUG
      // Deliberate merge-order break for the mutation smoke check in
      // tools/check_differential.sh: of two tied candidates, the later
      // chunk's wins. Never defined in production builds.
      if (less.Compare(x, y) == 0) {
        best = c;
        continue;
      }
#endif
      if (less(x, y)) best = c;
    }
    top.push_back(chunks[best].best[next[best]++].pos);
  }
  return top;
}

/// ORDER BY over the rows of `table` — those of `selection` when it is
/// not null — coded at those rows only: a column reference in place, a
/// computed key once into a column, evaluated over the selected rows.
/// With 0 <= `top_k` < rows only the first top_k rows are selected;
/// otherwise every row is sorted. Only the output rows are gathered.
Result<Table> SortRows(const Table& table,
                       const std::vector<uint32_t>* selection,
                       const SelectStatement& stmt,
                       const std::vector<std::unique_ptr<Expr>>& keys,
                       int64_t top_k) {
  ScopedCharge charge;
  const size_t m = selection != nullptr ? selection->size() : table.num_rows();
  Table selected{Schema{}};
  if (selection != nullptr) {
    std::vector<const Expr*> computed;
    for (const auto& key : keys) {
      if (key->kind != ExprKind::kColumnRef) computed.push_back(key.get());
    }
    if (!computed.empty()) {
      LAWS_ASSIGN_OR_RETURN(
          selected, GatherForEvaluation(table, *selection, computed, &charge));
    }
  }
  std::vector<Column> evaluated(keys.size(), Column(DataType::kInt64));
  std::vector<OrderCoder> coders;
  coders.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    LAWS_GOVERNOR_POLL();
    const bool ascending = stmt.order_by[k].ascending;
    if (keys[k]->kind == ExprKind::kColumnRef) {
      LAWS_ASSIGN_OR_RETURN(const Column* col,
                            table.ColumnByName(keys[k]->column_name));
      coders.emplace_back(*col, ascending,
                          selection != nullptr ? selection->data() : nullptr);
      continue;
    }
    LAWS_ASSIGN_OR_RETURN(
        evaluated[k],
        EvaluateExpr(*keys[k], selection != nullptr ? selected : table));
    LAWS_RETURN_IF_ERROR(
        charge.Acquire(evaluated[k].MemoryBytes(), "sort keys"));
    coders.emplace_back(evaluated[k], ascending, nullptr);
  }

  std::vector<uint32_t> perm;
  if (top_k >= 0 && static_cast<size_t>(top_k) < m) {
    if (top_k > 0) {
      LAWS_ASSIGN_OR_RETURN(
          perm, SelectTopK(coders, m, static_cast<size_t>(top_k), &charge));
    }
  } else {
    OrderKeys order;
    for (const OrderCoder& coder : coders) {
      LAWS_RETURN_IF_ERROR(charge.Acquire(m * sizeof(uint64_t), "sort keys"));
      std::vector<uint64_t> codes(m);
      LAWS_RETURN_IF_ERROR(FillOrderCodes(coder, &codes));
      order.codes.push_back(std::move(codes));
    }
    LAWS_RETURN_IF_ERROR(
        charge.Acquire(m * sizeof(uint32_t), "sort permutation"));
    perm.resize(m);
    std::iota(perm.begin(), perm.end(), uint32_t{0});
    // The comparator cannot return an error, so deadline/cancel are
    // observed between comparisons and surfaced after the sort.
    size_t comparisons = 0;
    Status tripped;
    std::sort(perm.begin(), perm.end(), [&](uint32_t x, uint32_t y) {
      if (tripped.ok() && ++comparisons % kGovernorPollStride == 0) {
        if (QueryGovernor* gov = QueryGovernor::Current()) {
          tripped = gov->Poll();
        }
      }
      return order.Less(x, y);
    });
    if (!tripped.ok()) return tripped;
  }
  if (selection != nullptr) {
    for (uint32_t& p : perm) p = (*selection)[p];
  }
  return table.GatherRows(perm);
}

/// The schema of `left ⋈ right` for the statement's JOIN: left fields,
/// then right fields, a right name that collides with a left one exposed
/// as "<right_table>_<name>". Fails unless every ON key names a column on
/// its side and both sides share its type.
Result<Schema> JoinSchema(const Schema& left, const Schema& right,
                          const SelectStatement& stmt) {
  if (stmt.join_keys.empty()) {
    return Status::InvalidArgument("JOIN requires at least one ON key");
  }
  for (const JoinKey& k : stmt.join_keys) {
    LAWS_ASSIGN_OR_RETURN(const size_t l, left.FieldIndex(k.left_column));
    LAWS_ASSIGN_OR_RETURN(const size_t r, right.FieldIndex(k.right_column));
    if (left.field(l).type != right.field(r).type) {
      return Status::TypeMismatch("join key type mismatch on " +
                                  k.left_column + " = " + k.right_column);
    }
  }
  std::vector<Field> fields = left.fields();
  for (const Field& f : right.fields()) {
    Field out = f;
    if (left.HasField(f.name)) {
      out.name = stmt.join_table + "_" + f.name;
      if (left.HasField(out.name)) {
        return Status::InvalidArgument("cannot disambiguate join column " +
                                       f.name);
      }
    }
    fields.push_back(std::move(out));
  }
  return Schema(std::move(fields));
}

/// INNER equi-join on `keys` into `schema` (JoinSchema's): hash-builds on
/// the right side, probes with the left. NULL keys never match (SQL
/// semantics).
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<JoinKey>& keys, Schema schema) {
  std::vector<const Column*> left_keys, right_keys;
  for (const JoinKey& k : keys) {
    LAWS_ASSIGN_OR_RETURN(const Column* lc,
                          left.ColumnByName(k.left_column));
    LAWS_ASSIGN_OR_RETURN(const Column* rc,
                          right.ColumnByName(k.right_column));
    left_keys.push_back(lc);
    right_keys.push_back(rc);
  }

  // SQL equi-join semantics: NULL keys never match, and neither do NaN
  // keys (NaN = NaN is false). -0.0 and +0.0 must match, which the
  // canonical encoding guarantees.
  auto row_key = [](const std::vector<const Column*>& cols, size_t row,
                    std::string* out) {
    out->clear();
    for (const Column* c : cols) {
      if (c->IsNull(row)) return false;
      if (c->type() == DataType::kDouble && std::isnan(c->DoubleAt(row))) {
        return false;
      }
      AppendCanonicalKey(*c, row, out);
    }
    return true;
  };

  // Build on the right side. The hash table is the join's dominant
  // allocation; charge a conservative per-entry estimate up front and
  // the match vectors as they grow.
  ScopedCharge charge;
  LAWS_RETURN_IF_ERROR(charge.Acquire(
      right.num_rows() * (sizeof(uint32_t) + 2 * sizeof(void*)),
      "hash join build"));
  std::unordered_map<std::string, std::vector<uint32_t>> build;
  build.reserve(right.num_rows());
  std::string key;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (r % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
    if (!row_key(right_keys, r, &key)) continue;
    build[key].push_back(static_cast<uint32_t>(r));
  }

  // Probe with the left side, collecting matching row-index pairs. The
  // output can be quadratic in the inputs (many-to-many keys), so the
  // match vectors are re-charged as they double.
  std::vector<uint32_t> left_rows, right_rows;
  uint64_t charged_matches = 0;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    if (l % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
    if (!row_key(left_keys, l, &key)) continue;
    auto it = build.find(key);
    if (it == build.end()) continue;
    for (uint32_t r : it->second) {
      left_rows.push_back(static_cast<uint32_t>(l));
      right_rows.push_back(r);
    }
    if (left_rows.size() > charged_matches) {
      const uint64_t grown = left_rows.size() - charged_matches;
      LAWS_RETURN_IF_ERROR(charge.Acquire(grown * 2 * sizeof(uint32_t),
                                          "hash join matches"));
      charged_matches = left_rows.size();
    }
  }

  std::vector<Column> columns;
  columns.reserve(schema.num_fields());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    LAWS_ASSIGN_OR_RETURN(Column gathered, left.column(c).Gather(left_rows));
    columns.push_back(std::move(gathered));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    LAWS_ASSIGN_OR_RETURN(Column gathered,
                          right.column(c).Gather(right_rows));
    columns.push_back(std::move(gathered));
  }
  return Table::FromColumns(std::move(schema), std::move(columns));
}

/// Keeps the first occurrence of each distinct row (order-preserving).
/// DISTINCT uses grouping identity (GroupRows over every column): NULLs
/// equal each other and differ from the text 'NULL', all NaNs are one
/// class, and -0.0 equals +0.0.
Result<Table> DistinctRows(Table table) {
  ScopedCharge charge;
  std::vector<const Column*> keys;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    keys.push_back(&table.column(c));
  }
  LAWS_ASSIGN_OR_RETURN(Grouping grouping,
                        GroupRows(keys, table.num_rows(), nullptr, &charge));
  // Group ids are first-seen, so the first rows ascend.
  if (grouping.num_groups() == table.num_rows()) return table;
  return table.GatherRows(grouping.first_row);
}

Result<Table> LimitRows(Table table, int64_t limit) {
  if (limit < 0 || static_cast<size_t>(limit) >= table.num_rows()) {
    return table;
  }
  std::vector<uint32_t> head(static_cast<size_t>(limit));
  for (size_t i = 0; i < head.size(); ++i) head[i] = static_cast<uint32_t>(i);
  return table.GatherRows(head);
}

/// Substitutes references to select-list aliases in ORDER BY / HAVING with
/// the aliased expressions.
std::unique_ptr<Expr> SubstituteAliases(const Expr& expr,
                                        const SelectStatement& stmt) {
  if (expr.kind == ExprKind::kColumnRef) {
    for (const SelectItem& item : stmt.select_list) {
      if (!item.is_star && !item.alias.empty() &&
          item.alias == expr.column_name) {
        return item.expr->Clone();
      }
    }
  }
  auto out = expr.Clone();
  for (auto& c : out->children) c = SubstituteAliases(*c, stmt);
  return out;
}

/// The operators a SELECT runs, in the order they run.
enum class PlanOp {
  kScan, kHashJoin, kFilter, kHashAggregate, kHaving,
  kSort, kProject, kDistinct, kLimit
};

/// The operator's span name, which EXPLAIN prints too.
const char* OpName(PlanOp op) {
  static constexpr const char* kNames[] = {
      "Scan", "HashJoin", "Filter",   "HashAggregate", "Filter[having]",
      "Sort", "Project",  "Distinct", "Limit"};
  return kNames[static_cast<size_t>(op)];
}

/// A SELECT planned once for both execution and EXPLAIN: the operators,
/// innermost (Scan) first, and the rewritten expressions they evaluate.
struct SelectPlan {
  const SelectStatement* stmt = nullptr;
  std::vector<PlanOp> ops;
  Schema joined;                // HashJoin's output
  std::vector<AggSlot> slots;   // HashAggregate's aggregate calls
  std::unique_ptr<Expr> having;               // over the aggregated table
  std::vector<std::unique_ptr<Expr>> order;   // over Sort's input
  std::vector<SelectItem> projection;         // output name in `alias`
  bool top_k = false;  // Sort selects only the first LIMIT rows
};

/// Plans `stmt` over a source with schema `source`, joined with `right`
/// when that is non-null. Finds and slots the aggregates, substitutes
/// select-list aliases in HAVING and ORDER BY, rewrites them and the
/// projection onto the aggregated table's `__key<k>`/`__agg<n>` columns,
/// expands `*`, and decides top-k: without DISTINCT, and when every
/// projected item is a column reference, ORDER BY … LIMIT selects only the
/// first LIMIT rows, since projecting a column cannot fail and so no error
/// can hide in the rows past the limit (DESIGN.md §11).
Result<SelectPlan> PlanSelect(const SelectStatement& stmt,
                              const Schema& source, const Schema* right) {
  SelectPlan plan;
  plan.stmt = &stmt;
  plan.ops.push_back(PlanOp::kScan);
  if (right != nullptr) {
    LAWS_ASSIGN_OR_RETURN(plan.joined, JoinSchema(source, *right, stmt));
    plan.ops.push_back(PlanOp::kHashJoin);
  }
  if (stmt.where != nullptr) plan.ops.push_back(PlanOp::kFilter);

  std::unique_ptr<Expr> having =
      stmt.having == nullptr ? nullptr : SubstituteAliases(*stmt.having, stmt);
  std::vector<std::unique_ptr<Expr>> order;
  for (const OrderKey& k : stmt.order_by) {
    order.push_back(SubstituteAliases(*k.expr, stmt));
  }
  bool has_aggregate = !stmt.group_by.empty() || having != nullptr;
  for (const SelectItem& item : stmt.select_list) {
    if (!item.is_star && item.expr->ContainsAggregate()) has_aggregate = true;
  }
  std::vector<std::string> key_reprs;
  if (has_aggregate) {
    for (const SelectItem& item : stmt.select_list) {
      if (item.is_star) {
        return Status::InvalidArgument("SELECT * is invalid with GROUP BY");
      }
      CollectAggregates(*item.expr, &plan.slots);
    }
    if (having != nullptr) CollectAggregates(*having, &plan.slots);
    for (const auto& k : order) CollectAggregates(*k, &plan.slots);
    for (const auto& g : stmt.group_by) key_reprs.push_back(g->ToString());
    plan.ops.push_back(PlanOp::kHashAggregate);
    if (having != nullptr) plan.ops.push_back(PlanOp::kHaving);
  }
  const auto rewrite = [&](const Expr& e) {
    return has_aggregate ? RewriteForAggregated(e, plan.slots, key_reprs)
                         : e.Clone();
  };
  if (having != nullptr) plan.having = rewrite(*having);
  for (const auto& k : order) plan.order.push_back(rewrite(*k));
  const Schema& input = right != nullptr ? plan.joined : source;
  for (const SelectItem& item : stmt.select_list) {
    if (item.is_star) {
      for (const Field& f : input.fields()) {
        SelectItem out;
        out.alias = f.name;
        out.expr = Expr::MakeColumnRef(f.name);
        plan.projection.push_back(std::move(out));
      }
      continue;
    }
    SelectItem out;
    out.alias = item.alias.empty() ? item.expr->ToString() : item.alias;
    out.expr = rewrite(*item.expr);
    plan.projection.push_back(std::move(out));
  }

  // ORDER BY runs before the projection (it may reference non-projected
  // columns); LIMIT waits until after DISTINCT.
  if (!plan.order.empty()) {
    plan.ops.push_back(PlanOp::kSort);
    plan.top_k = stmt.limit >= 0 && !stmt.distinct &&
                 std::all_of(plan.projection.begin(), plan.projection.end(),
                             [](const SelectItem& item) {
                               return item.expr->kind == ExprKind::kColumnRef;
                             });
  }
  plan.ops.push_back(PlanOp::kProject);
  if (stmt.distinct) plan.ops.push_back(PlanOp::kDistinct);
  if (stmt.limit >= 0) plan.ops.push_back(PlanOp::kLimit);
  return plan;
}

/// An operator's static detail, the one text its span and EXPLAIN both
/// print: the statement's own expressions, never the `__key`/`__agg`
/// columns of the rewrite. The span appends what only running tells.
std::string OpDetail(const SelectPlan& plan, PlanOp op) {
  const SelectStatement& stmt = *plan.stmt;
  std::string out;
  const auto append = [&out](const std::string& item) {
    if (!out.empty()) out += ", ";
    out += item;
  };
  switch (op) {
    case PlanOp::kScan:
    case PlanOp::kDistinct:
      break;
    case PlanOp::kHashJoin:
      out = stmt.from_table + " \xE2\x8B\x88 " + stmt.join_table + " on ";
      for (size_t i = 0; i < stmt.join_keys.size(); ++i) {
        if (i > 0) out += " AND ";
        out += stmt.join_keys[i].left_column + " = " +
               stmt.join_keys[i].right_column;
      }
      break;
    case PlanOp::kFilter:
      out = stmt.where->ToString();
      break;
    case PlanOp::kHashAggregate:
      for (const auto& g : stmt.group_by) append(g->ToString());
      if (out.empty()) out = "<global>";
      break;
    case PlanOp::kHaving:
      out = stmt.having->ToString();
      break;
    case PlanOp::kSort:
      for (const OrderKey& k : stmt.order_by) {
        append(k.expr->ToString() + (k.ascending ? " ASC" : " DESC"));
      }
      out += plan.top_k ? " | top " + std::to_string(stmt.limit) : " | full";
      break;
    case PlanOp::kProject:
      for (const SelectItem& item : plan.projection) append(item.alias);
      break;
    case PlanOp::kLimit:
      out = std::to_string(stmt.limit);
      break;
  }
  return out;
}

/// WHERE over `input`: the rows it keeps, ascending. Zone maps first:
/// when the table carries a block index and the predicate is in the
/// conservative class, they prune and take whole blocks and the VM
/// evaluates only the rest (DESIGN.md §14) — bit-identical to the VM over
/// every row, which runs when they decline. `*note` (when non-null) gets
/// the scan and the program that ran.
Result<std::vector<uint32_t>> FilterWhere(const Expr& where,
                                          const Table& input,
                                          std::string* note) {
  std::string disasm;
  std::string* const disasm_out = note != nullptr ? &disasm : nullptr;
  ScanStats scan_stats;
  LAWS_ASSIGN_OR_RETURN(
      std::optional<std::vector<uint32_t>> selection,
      CompressedFilterRows(where, input, &scan_stats, disasm_out));
  if (selection.has_value()) {
    if (note != nullptr) {
      *note = " | " + scan_stats.Describe();
      if (!disasm.empty()) *note += " | bytecode: " + disasm;
    }
    return std::move(*selection);
  }
  LAWS_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                        FilterRows(where, input, disasm_out));
  if (note != nullptr) *note = " | bytecode: " + disasm;
  return rows;
}

/// Evaluates `items` over the rows of `input` — those of `selection`,
/// gathered with only the columns the items read, when it is not null —
/// charging each output column as it appears. `*note` (when non-null)
/// gets each item's program.
Result<Table> Project(const std::vector<SelectItem>& items,
                      const Table& input,
                      const std::vector<uint32_t>* selection,
                      ScopedCharge* charge, std::string* note) {
  Table selected{Schema{}};
  if (selection != nullptr) {
    std::vector<const Expr*> exprs;
    for (const SelectItem& item : items) exprs.push_back(item.expr.get());
    LAWS_ASSIGN_OR_RETURN(
        selected, GatherForEvaluation(input, *selection, exprs, charge));
  }
  const Table& rows = selection != nullptr ? selected : input;
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (const SelectItem& item : items) {
    LAWS_GOVERNOR_POLL();
    std::string disasm;
    LAWS_ASSIGN_OR_RETURN(
        Column c,
        EvaluateExpr(*item.expr, rows, note != nullptr ? &disasm : nullptr));
    if (note != nullptr) *note += " | bytecode: " + disasm;
    LAWS_RETURN_IF_ERROR(
        charge->Acquire(c.MemoryBytes(), "projection output"));
    fields.push_back(Field{item.alias, c.type(), true});
    columns.push_back(std::move(c));
  }
  // `*` over a table without columns expands to no items but keeps its
  // rows.
  return Table::FromColumns(
      Schema(std::move(fields)), std::move(columns),
      selection != nullptr ? selection->size() : input.num_rows());
}

/// Runs `plan`'s operators in order over `source` (and `right`, the
/// JOIN's right table), each under its span. A WHERE or HAVING hands the
/// operator above it a selection of its input, which stays alive until
/// that operator has read it.
Result<Table> RunPlan(const SelectPlan& plan, const Table& source,
                      const Table* right) {
  const SelectStatement& stmt = *plan.stmt;
  // Operator outputs are the pipeline's big materializations; each is
  // charged against the current governor (if any) and held until the
  // query finishes, which models the executor's true high-water mark
  // closely enough for a coarse budget.
  ScopedCharge charge;
  const Table* current = &source;
  Table owned{Schema{}};  // the last operator's output
  std::optional<std::vector<uint32_t>> selection;  // of *current, ascending
  for (const PlanOp op : plan.ops) {
    ScopedSpan span(OpName(op));
    const std::vector<uint32_t>* const sel =
        selection.has_value() ? &*selection : nullptr;
    const size_t rows_in = op == PlanOp::kHashJoin
                               ? source.num_rows() + right->num_rows()
                           : sel != nullptr ? sel->size()
                                            : current->num_rows();
    std::string runtime;  // the span detail only running tells
    std::string* const note = span.active() ? &runtime : nullptr;
    Table out{Schema{}};
    std::optional<std::vector<uint32_t>> kept;  // set by WHERE and HAVING
    const char* charged_as = nullptr;  // set when the output is charged
    switch (op) {
      case PlanOp::kScan:
        // Synthetic and free: records the source cardinality, so the
        // EXPLAIN ANALYZE tree starts at the scan like EXPLAIN does.
        span.SetRows(rows_in, rows_in);
        span.End();
        LAWS_GOVERNOR_POLL();
        continue;
      case PlanOp::kHashJoin: {
        LAWS_ASSIGN_OR_RETURN(
            out, HashJoin(source, *right, stmt.join_keys, plan.joined));
        charged_as = "join output";
        break;
      }
      case PlanOp::kFilter: {
        LAWS_ASSIGN_OR_RETURN(kept, FilterWhere(*stmt.where, *current, note));
        charged_as = "filter output";
        break;
      }
      case PlanOp::kHashAggregate: {
        LAWS_ASSIGN_OR_RETURN(
            out, Aggregate(*current, sel, stmt.group_by, plan.slots, note));
        charged_as = "aggregate output";
        break;
      }
      case PlanOp::kHaving: {
        std::string disasm;
        LAWS_ASSIGN_OR_RETURN(
            kept, FilterRows(*plan.having, *current,
                             note != nullptr ? &disasm : nullptr));
        if (note != nullptr) runtime = " | bytecode: " + disasm;
        charged_as = "having output";
        break;
      }
      case PlanOp::kSort: {
        LAWS_ASSIGN_OR_RETURN(out, SortRows(*current, sel, stmt, plan.order,
                                            plan.top_k ? stmt.limit : -1));
        if (plan.top_k && note != nullptr) {
          runtime = " of " + std::to_string(rows_in);
        }
        charged_as = "sort output";
        break;
      }
      case PlanOp::kProject: {  // charges each column as it appears
        LAWS_ASSIGN_OR_RETURN(
            out, Project(plan.projection, *current, sel, &charge, note));
        break;
      }
      // Distinct and Limit follow Project, whose output `owned` holds.
      case PlanOp::kDistinct: {
        LAWS_ASSIGN_OR_RETURN(out, DistinctRows(std::move(owned)));
        break;
      }
      case PlanOp::kLimit:
        LAWS_ASSIGN_OR_RETURN(out, LimitRows(std::move(owned), stmt.limit));
        break;
    }
    if (span.active()) span.SetDetail(OpDetail(plan, op) + runtime);
    span.SetRows(rows_in, kept.has_value() ? kept->size() : out.num_rows());
    if (kept.has_value()) {
      // A selection: 4 bytes a row, and `*current` stays the input.
      LAWS_RETURN_IF_ERROR(
          charge.Acquire(kept->size() * sizeof(uint32_t), charged_as));
      selection = std::move(kept);
      continue;
    }
    if (charged_as != nullptr) {
      LAWS_RETURN_IF_ERROR(charge.Acquire(out.MemoryBytes(), charged_as));
    }
    selection.reset();
    owned = std::move(out);
    current = &owned;
  }
  return owned;
}

}  // namespace

int CompareOrderValues(const Value& a, const Value& b) {
  const bool an = a.is_null();
  const bool bn = b.is_null();
  if (an || bn) {
    if (an && bn) return 0;
    return an ? 1 : -1;  // NULLs last ascending
  }
  const bool as = a.is_string();
  const bool bs = b.is_string();
  if (as && bs) {
    return a.str() < b.str() ? -1 : (a.str() == b.str() ? 0 : 1);
  }
  if (as != bs) return as ? 1 : -1;  // numbers (and NaN) before strings
  // Both numeric: AsDouble cannot fail for non-null, non-string values.
  const double x = *a.AsDouble();
  const double y = *b.AsDouble();
  const bool xn = std::isnan(x);
  const bool yn = std::isnan(y);
  if (xn || yn) {
    if (xn && yn) return 0;  // all NaNs are one equivalence class
    return xn ? 1 : -1;      // numbers < NaN
  }
  return x < y ? -1 : (x == y ? 0 : 1);
}

Result<std::vector<uint64_t>> OrderCodes(const Column& col, bool ascending) {
  std::vector<uint64_t> codes(col.size());
  LAWS_RETURN_IF_ERROR(
      FillOrderCodes(OrderCoder(col, ascending, nullptr), &codes));
  return codes;
}

Result<Table> ExecuteSelectOnTable(const Table& source,
                                   const SelectStatement& stmt) {
  LAWS_ASSIGN_OR_RETURN(const SelectPlan plan,
                        PlanSelect(stmt, source.schema(), nullptr));
  return RunPlan(plan, source, nullptr);
}

Result<Table> ExecuteSelect(const Catalog& catalog,
                            const SelectStatement& stmt) {
  static Counter* executed =
      MetricsRegistry::Global().GetCounter("query.executed");
  executed->Add();
  LAWS_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(stmt.from_table));
  TablePtr right;
  if (stmt.join_table.empty()) {
    // Give the base table a block index, if it has none yet, so the
    // compressed scan tier can serve this and later queries. Joined and
    // derived tables stay unindexed — they take the decode path.
    EnsureBlockIndex(table);
  } else {
    LAWS_ASSIGN_OR_RETURN(right, catalog.Get(stmt.join_table));
  }
  LAWS_ASSIGN_OR_RETURN(
      const SelectPlan plan,
      PlanSelect(stmt, table->schema(), right ? &right->schema() : nullptr));
  return RunPlan(plan, *table, right.get());
}

Result<Table> ExecuteQuery(const Catalog& catalog, const std::string& sql) {
  SelectStatement stmt;
  {
    ScopedSpan span("Parse");
    LAWS_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
  }
  return ExecuteSelect(catalog, stmt);
}

Result<std::string> ExplainSelect(const Catalog& catalog,
                                  const SelectStatement& stmt) {
  LAWS_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(stmt.from_table));
  TablePtr right;
  if (!stmt.join_table.empty()) {
    LAWS_ASSIGN_OR_RETURN(right, catalog.Get(stmt.join_table));
  }
  LAWS_ASSIGN_OR_RETURN(
      const SelectPlan plan,
      PlanSelect(stmt, table->schema(), right ? &right->schema() : nullptr));
  // The plan runs innermost first; print it outermost first.
  std::string out;
  for (size_t depth = 0; depth < plan.ops.size(); ++depth) {
    const PlanOp op = plan.ops[plan.ops.size() - 1 - depth];
    const std::string detail =
        op == PlanOp::kScan ? stmt.from_table + ", " +
                                  std::to_string(table->num_rows()) + " rows"
                            : OpDetail(plan, op);
    out.append(depth * 2, ' ');
    out += OpName(op);
    if (!detail.empty()) out += "(" + detail + ")";
    out += '\n';
  }
  return out;
}

Result<std::string> ExplainQuery(const Catalog& catalog,
                                 const std::string& sql) {
  LAWS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return ExplainSelect(catalog, stmt);
}

Result<std::string> RenderExplainAnalyze(const TraceSink& sink,
                                         const Status& outcome, size_t rows,
                                         double millis,
                                         std::string_view engine_lines) {
  // A governed query may be stopped mid-plan; that is a legitimate
  // outcome worth explaining, so the partial trace is still rendered with
  // the stop reason. Any other error propagates as usual.
  if (!outcome.ok() && !IsGovernorStatusCode(outcome.code())) return outcome;
  std::string out = sink.Render();
  char buf[192];
  std::snprintf(
      buf, sizeof(buf),
      "expr: compiled=%llu batches=%llu\n"
      "scan: blocks=%llu pruned=%llu encoded_agg=%llu\n",
      static_cast<unsigned long long>(sink.Credited("expr.compiled")),
      static_cast<unsigned long long>(sink.Credited("expr.batches")),
      static_cast<unsigned long long>(sink.Credited("scan.blocks_total")),
      static_cast<unsigned long long>(sink.Credited("scan.blocks_pruned")),
      static_cast<unsigned long long>(sink.Credited("scan.encoded_agg")));
  out += buf;
  out += engine_lines;
  if (QueryGovernor* gov = QueryGovernor::Current()) {
    out += gov->DescribeLine();
  }
  if (!outcome.ok()) {
    out += "query stopped: " + outcome.ToString() + "\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf), "%zu row%s in %.3f ms\n", rows,
                rows == 1 ? "" : "s", millis);
  out += buf;
  return out;
}

Result<std::string> ExplainAnalyzeQuery(const Catalog& catalog,
                                        const std::string& sql) {
  TraceSink sink;
  Timer total;
  Result<Table> result = [&]() -> Result<Table> {
    ScopedSpan span("Query");
    SelectStatement stmt;
    {
      ScopedSpan parse_span("Parse");
      LAWS_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
    }
    return ExecuteSelect(catalog, stmt);
  }();
  return RenderExplainAnalyze(sink, result.status(),
                              result.ok() ? result->num_rows() : 0,
                              total.ElapsedMillis());
}

}  // namespace laws
