#include "query/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/governor.h"
#include "common/metrics.h"
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
  const Expr* node;       // canonical instance
  std::string key;        // ToString identity
  std::string hidden_name;
  bool is_star = false;
};

void CollectAggregates(const Expr& expr, std::vector<AggSlot>* slots) {
  if (expr.kind == ExprKind::kAggregate) {
    const std::string key = expr.ToString();
    for (const AggSlot& s : *slots) {
      if (s.key == key) return;
    }
    AggSlot slot;
    slot.node = &expr;
    slot.key = key;
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
    const std::vector<std::string>& key_exprs,
    const std::vector<std::string>& key_names) {
  const std::string repr = expr.ToString();
  for (size_t i = 0; i < key_exprs.size(); ++i) {
    if (repr == key_exprs[i]) return Expr::MakeColumnRef(key_names[i]);
  }
  if (expr.kind == ExprKind::kAggregate) {
    for (const AggSlot& s : slots) {
      if (s.key == repr) return Expr::MakeColumnRef(s.hidden_name);
    }
  }
  auto out = expr.Clone();
  for (auto& c : out->children) {
    c = RewriteForAggregated(*c, slots, key_exprs, key_names);
  }
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

// AggState and AggFinalValue live in query/agg_state.h, shared with the
// encoded aggregator (compressed_scan.cc).

/// Folds one partition's rows, in table order, into their groups' states
/// ([group * num_slots + slot]). Every group lives in one partition, so
/// partitions write disjoint states, and each group's SUM and Welford
/// recurrences see its rows in exactly the serial order.
Status SweepPartition(const Grouping& grouping, size_t begin, size_t end,
                      const std::vector<AggSlot>& slots,
                      const std::vector<const Column*>& args,
                      std::vector<AggState>* states) {
  const size_t num_slots = slots.size();
  const uint32_t* rows = grouping.rows.data() + begin;
  const uint32_t* group = grouping.group.data() + begin;
  const size_t len = end - begin;
  std::vector<double> values;
  std::vector<uint8_t> nulls;
  for (size_t a = 0; a < num_slots; ++a) {
    LAWS_GOVERNOR_POLL();
    const auto state = [&](size_t i) -> AggState& {
      return (*states)[group[i] * num_slots + a];
    };
    if (args[a] == nullptr) {  // COUNT(*)
      for (size_t i = 0; i < len; ++i) {
        if (i % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
        AggState& s = state(i);
        ++s.count;
        s.any = true;
      }
      continue;
    }
    const Column& arg = *args[a];
    if (arg.type() == DataType::kString) {
      // Strings keep the element-wise path (dictionary lookups, ordering).
      for (size_t i = 0; i < len; ++i) {
        if (i % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
        if (arg.IsNull(rows[i])) continue;
        AggState& s = state(i);
        ++s.count;
        s.any = true;
        s.is_string = true;
        const std::string_view v = arg.StringAt(rows[i]);
        if (s.count == 1 || v < s.smin) s.smin = v;
        if (s.count == 1 || v > s.smax) s.smax = v;
      }
      continue;
    }
    // Numeric arguments are gathered in bulk: one type dispatch per
    // partition instead of a Result-wrapped NumericAt per cell. Each
    // function runs only the recurrences its final value reads.
    values.resize(len);
    nulls.resize(len);
    LAWS_RETURN_IF_ERROR(
        arg.GatherNumericMasked(rows, len, values.data(), nulls.data())
            .status());
    const auto sweep = [&](auto update) -> Status {
      for (size_t i = 0; i < len; ++i) {
        if (i % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
#ifdef LAWS_TESTING_INJECT_BUG
        // Deliberate off-by-one for the mutation smoke check in
        // tools/check_differential.sh: the sweep drops the last input row.
        // Never defined in production builds.
        if (rows[i] + size_t{1} == grouping.rows.size()) continue;
#endif
        if (nulls[i]) continue;
        AggState& s = state(i);
        ++s.count;
        s.any = true;
        update(s, values[i]);
      }
      return Status::OK();
    };
    switch (slots[a].node->aggregate_func) {
      case AggregateFunc::kCount:
        LAWS_RETURN_IF_ERROR(sweep([](AggState&, double) {}));
        break;
      case AggregateFunc::kSum:
      case AggregateFunc::kAvg:
        LAWS_RETURN_IF_ERROR(sweep([](AggState& s, double v) { s.sum += v; }));
        break;
      case AggregateFunc::kMin:
      case AggregateFunc::kMax:
        LAWS_RETURN_IF_ERROR(sweep([](AggState& s, double v) {
          if (!std::isnan(v)) s.saw_comparable = true;
          s.min = std::min(s.min, v);
          s.max = std::max(s.max, v);
        }));
        break;
      case AggregateFunc::kVariance:
      case AggregateFunc::kStddev:
        // Welford, in the group's table order.
        LAWS_RETURN_IF_ERROR(sweep([](AggState& s, double v) {
          const double delta = v - s.mean;
          s.mean += delta / static_cast<double>(s.count);
          s.m2 += delta * (v - s.mean);
        }));
        break;
    }
  }
  return Status::OK();
}

/// Groups `input` (GroupRows), folds every aggregate slot into per-group
/// states, and emits one row per group in first-seen order: key columns
/// `__key<k>`, then the slots' hidden columns. `*detail` names the
/// grouping that ran, for the HashAggregate span.
Result<Table> Aggregate(const Table& input, const SelectStatement& stmt,
                        const std::vector<AggSlot>& slots,
                        std::vector<std::string>* key_names,
                        std::string* detail) {
  // Resolve group-key expressions. Evaluated key and argument columns are
  // the aggregation's big materializations; charge them as they appear.
  ScopedCharge charge;
  std::vector<Column> evaluated(stmt.group_by.size() + slots.size(),
                                Column(DataType::kInt64));
  std::vector<const Column*> keys;
  for (size_t k = 0; k < stmt.group_by.size(); ++k) {
    LAWS_GOVERNOR_POLL();
    LAWS_ASSIGN_OR_RETURN(
        const Column* c,
        ResolveColumn(*stmt.group_by[k], input, &evaluated[k]));
    LAWS_RETURN_IF_ERROR(
        charge.Acquire(evaluated[k].MemoryBytes(), "group keys"));
    keys.push_back(c);
  }
  const size_t num_slots = slots.size();
  std::vector<uint32_t> representative_row;  // first row of each group
  std::vector<AggState> states;              // [group * num_slots + slot]
  std::vector<const Column*> args;           // nullptr for COUNT(*)
  size_t partitions = 1;

  // Global aggregations over an indexed base table can often be folded
  // from zone statistics (DESIGN.md §14). EncodedGlobalAggregate only
  // answers when the fold is provably bit-identical to the sweep below,
  // so the shortcut is invisible to everything downstream.
  bool encoded = false;
  LAWS_GOVERNOR_POLL();
  if (stmt.group_by.empty()) {
    std::vector<const Expr*> nodes;
    nodes.reserve(slots.size());
    for (const AggSlot& s : slots) nodes.push_back(s.node);
    if (auto enc = EncodedGlobalAggregate(input, nodes)) {
      states = std::move(*enc);
      representative_row.push_back(0);
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
      Column* owned = &evaluated[stmt.group_by.size() + a];
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
    LAWS_ASSIGN_OR_RETURN(Grouping grouping,
                          GroupRows(keys, n, nullptr, &charge));
    partitions = grouping.num_partitions();
    LAWS_RETURN_IF_ERROR(charge.Acquire(
        grouping.num_groups() * num_slots * sizeof(AggState) +
            n * (sizeof(double) + sizeof(uint8_t)),
        "aggregate states"));
    states.resize(grouping.num_groups() * num_slots);
    LAWS_RETURN_IF_ERROR(
        ForEachPartition(grouping, [&](size_t begin, size_t end) {
          return SweepPartition(grouping, begin, end, slots, args, &states);
        }));
    representative_row = std::move(grouping.first_row);
  }

  // Global aggregation with no GROUP BY and zero rows still yields one row
  // (COUNT(*) = 0, SUM = NULL, ...).
  if (stmt.group_by.empty() && representative_row.empty()) {
    representative_row.push_back(0);
    states.resize(num_slots);
  }
  const size_t num_groups = representative_row.size();
  *detail = stmt.group_by.empty()
                ? std::string("one group")
                : std::to_string(num_groups) + " groups in " +
                      std::to_string(partitions) + " partitions";

  // Build the intermediate table: key columns then aggregate columns.
  std::vector<Field> fields;
  key_names->clear();
  for (size_t k = 0; k < keys.size(); ++k) {
    const std::string name = "__key" + std::to_string(k);
    key_names->push_back(name);
    fields.push_back(Field{name, keys[k]->type(), true});
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
          CanonicalGroupValue(keys[k]->GetValue(representative_row[g])));
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

/// Fills `codes[row]` with `code_of(row)`, or the NULL code, XOR `flip`.
template <typename CodeOf>
Status FillOrderCodes(const Column& col, CodeOf code_of, uint64_t flip,
                      std::vector<uint64_t>* codes) {
  const size_t n = col.size();
  for (size_t begin = 0; begin < n; begin += kGovernorPollStride) {
    LAWS_GOVERNOR_POLL();
    const size_t end = std::min(n, begin + kGovernorPollStride);
    for (size_t r = begin; r < end; ++r) {
      (*codes)[r] = (col.IsNull(r) ? kNullCode : code_of(r)) ^ flip;
    }
  }
  return Status::OK();
}

/// ORDER BY keys as order codes, [key][row]. Less() compares them key by
/// key and breaks ties on row id. The order is therefore total: std::sort
/// reproduces a stable sort exactly, and a top-k selection keeps exactly
/// the first k rows of it.
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

/// The first `k` of `n` rows under `keys`, in order: a bounded max-heap
/// over row ids, O(n log k), polling the governor between strides.
Result<std::vector<uint32_t>> SelectTopK(const OrderKeys& keys, size_t n,
                                         size_t k) {
  const auto less = [&](uint32_t x, uint32_t y) {
#ifdef LAWS_TESTING_INJECT_BUG
    // Deliberate tie-break inversion for the mutation smoke check in
    // tools/check_differential.sh: of two tied rows the later one wins.
    // Never defined in production builds.
    if (keys.Compare(x, y) == 0) return x > y;
#endif
    return keys.Less(x, y);
  };
  std::vector<uint32_t> heap;
  heap.reserve(k);
  for (size_t begin = 0; begin < n; begin += kGovernorPollStride) {
    LAWS_GOVERNOR_POLL();
    const size_t end = std::min(n, begin + kGovernorPollStride);
    for (size_t r = begin; r < end; ++r) {
      const uint32_t row = static_cast<uint32_t>(r);
      if (heap.size() < k) {
        heap.push_back(row);
        std::push_heap(heap.begin(), heap.end(), less);
      } else if (k > 0 && less(row, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), less);
        heap.back() = row;
        std::push_heap(heap.begin(), heap.end(), less);
      }
    }
  }
  std::sort_heap(heap.begin(), heap.end(), less);
  return heap;
}

/// ORDER BY over normalized keys. With `top_k` >= 0 only the first top_k
/// rows are selected and gathered; otherwise every row is sorted.
Result<Table> SortRows(const Table& table, const SelectStatement& stmt,
                       const std::vector<std::unique_ptr<Expr>>& keys,
                       int64_t top_k) {
  ScopedCharge charge;
  const size_t n = table.num_rows();
  OrderKeys order;
  for (size_t k = 0; k < keys.size(); ++k) {
    LAWS_GOVERNOR_POLL();
    Column evaluated(DataType::kInt64);
    LAWS_ASSIGN_OR_RETURN(const Column* col,
                          ResolveColumn(*keys[k], table, &evaluated));
    LAWS_RETURN_IF_ERROR(charge.Acquire(n * sizeof(uint64_t), "sort keys"));
    LAWS_ASSIGN_OR_RETURN(std::vector<uint64_t> codes,
                          OrderCodes(*col, stmt.order_by[k].ascending));
    order.codes.push_back(std::move(codes));
  }
  if (top_k >= 0) {
    const size_t k = static_cast<size_t>(top_k);
    LAWS_RETURN_IF_ERROR(
        charge.Acquire(k * sizeof(uint32_t), "sort permutation"));
    LAWS_ASSIGN_OR_RETURN(std::vector<uint32_t> top,
                          SelectTopK(order, n, k));
    return table.GatherRows(top);
  }
  LAWS_RETURN_IF_ERROR(
      charge.Acquire(n * sizeof(uint32_t), "sort permutation"));
  std::vector<uint32_t> perm(n);
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
  return table.GatherRows(perm);
}

/// INNER equi-join: hash-builds on the right side, probes with the left.
/// Right-side columns whose names collide with left ones are exposed as
/// "<right_table>_<name>". NULL keys never match (SQL semantics).
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<JoinKey>& keys,
                       const std::string& right_name) {
  if (keys.empty()) {
    return Status::InvalidArgument("JOIN requires at least one ON key");
  }
  std::vector<const Column*> left_keys, right_keys;
  for (const JoinKey& k : keys) {
    LAWS_ASSIGN_OR_RETURN(const Column* lc,
                          left.ColumnByName(k.left_column));
    LAWS_ASSIGN_OR_RETURN(const Column* rc,
                          right.ColumnByName(k.right_column));
    if (lc->type() != rc->type()) {
      return Status::TypeMismatch("join key type mismatch on " +
                                  k.left_column + " = " + k.right_column);
    }
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

  // Assemble the output schema: left fields, then right fields with
  // collision-avoiding names.
  std::vector<Field> fields = left.schema().fields();
  std::vector<std::string> right_out_names;
  for (const Field& f : right.schema().fields()) {
    Field out = f;
    if (left.schema().HasField(f.name)) {
      out.name = right_name + "_" + f.name;
      if (left.schema().HasField(out.name)) {
        return Status::InvalidArgument("cannot disambiguate join column " +
                                       f.name);
      }
    }
    right_out_names.push_back(out.name);
    fields.push_back(std::move(out));
  }

  std::vector<Column> columns;
  columns.reserve(fields.size());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    columns.push_back(left.column(c).Gather(left_rows));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    columns.push_back(right.column(c).Gather(right_rows));
  }
  return Table::FromColumns(Schema(std::move(fields)), std::move(columns));
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

Table LimitRows(Table table, int64_t limit) {
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
  const uint64_t flip = ascending ? 0 : ~uint64_t{0};
  switch (col.type()) {
    case DataType::kInt64:
      LAWS_RETURN_IF_ERROR(FillOrderCodes(
          col,
          [&](size_t r) {
            return NumberOrderCode(static_cast<double>(col.Int64At(r)));
          },
          flip, &codes));
      break;
    case DataType::kDouble:
      LAWS_RETURN_IF_ERROR(FillOrderCodes(
          col, [&](size_t r) { return NumberOrderCode(col.DoubleAt(r)); },
          flip, &codes));
      break;
    case DataType::kBool:
      LAWS_RETURN_IF_ERROR(FillOrderCodes(
          col,
          [&](size_t r) { return NumberOrderCode(col.BoolAt(r) ? 1.0 : 0.0); },
          flip, &codes));
      break;
    case DataType::kString: {
      // Dictionary codes follow insertion order, so rank the dictionary by
      // text once; equal texts share a rank.
      const std::vector<std::string>& dict = col.dictionary();
      std::vector<uint32_t> by_text(dict.size());
      std::iota(by_text.begin(), by_text.end(), uint32_t{0});
      std::sort(by_text.begin(), by_text.end(),
                [&](uint32_t a, uint32_t b) { return dict[a] < dict[b]; });
      std::vector<uint64_t> rank(dict.size());
      uint64_t code = kNanCode;
      for (size_t i = 0; i < by_text.size(); ++i) {
        if (i == 0 || dict[by_text[i]] != dict[by_text[i - 1]]) ++code;
        rank[by_text[i]] = code;
      }
      const std::vector<uint32_t>& ids = col.string_codes();
      LAWS_RETURN_IF_ERROR(FillOrderCodes(
          col, [&](size_t r) { return rank[ids[r]]; }, flip, &codes));
      break;
    }
  }
  return codes;
}

// Note: `source` must already incorporate the statement's JOIN when one is
// present — ExecuteSelect materializes it; callers passing explicit tables
// (the AQP layer) use joinless statements.
Result<Table> ExecuteSelectOnTable(const Table& source,
                                   const SelectStatement& stmt) {
  {
    // Synthetic zero-cost span recording the source cardinality, so the
    // EXPLAIN ANALYZE tree starts at the scan like the static plan does.
    ScopedSpan scan("Scan");
    scan.SetRows(source.num_rows(), source.num_rows());
  }

  // Stage outputs are the pipeline's big materializations; each is
  // charged against the current governor (if any) and held until the
  // query finishes, which models the executor's true high-water mark
  // closely enough for a coarse budget.
  ScopedCharge pipeline_charge;
  LAWS_GOVERNOR_POLL();

  // 1. WHERE.
  Table filtered{Schema{}};
  const Table* current = &source;
  if (stmt.where != nullptr) {
    ScopedSpan span("Filter");
    std::string disasm;
    std::string* const disasm_out = span.active() ? &disasm : nullptr;
    // Zone maps first: when the table carries a block index and the
    // predicate is in the conservative class, they prune and take whole
    // blocks and the VM evaluates only the rest (DESIGN.md §14) —
    // bit-identical to the VM over every row, which runs when they
    // decline.
    ScanStats scan_stats;
    LAWS_ASSIGN_OR_RETURN(
        std::optional<std::vector<uint32_t>> zoned,
        CompressedFilterRows(*stmt.where, source, &scan_stats, disasm_out));
    std::vector<uint32_t> selection;
    std::string detail;
    if (zoned.has_value()) {
      selection = std::move(*zoned);
      detail = scan_stats.Describe();
      if (!disasm.empty()) detail += " | bytecode: " + disasm;
    } else {
      LAWS_ASSIGN_OR_RETURN(selection,
                            FilterRows(*stmt.where, source, disasm_out));
      detail = "bytecode: " + disasm;
    }
    if (span.active()) {
      span.SetDetail(stmt.where->ToString() + " | " + detail);
    }
    filtered = source.GatherRows(selection);
    LAWS_RETURN_IF_ERROR(
        pipeline_charge.Acquire(filtered.MemoryBytes(), "filter output"));
    current = &filtered;
    span.SetRows(source.num_rows(), filtered.num_rows());
  }

  // 2. Aggregation if needed.
  bool has_aggregate = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.select_list) {
    if (!item.is_star && item.expr->ContainsAggregate()) has_aggregate = true;
  }
  if (stmt.having != nullptr) has_aggregate = true;

  std::vector<SelectItem> projected_items;
  std::unique_ptr<Expr> having;
  std::vector<std::unique_ptr<Expr>> order_exprs;
  Table aggregated{Schema{}};

  if (has_aggregate) {
    // Collect aggregates across all clauses (aliases resolved first).
    std::vector<AggSlot> slots;
    std::vector<std::unique_ptr<Expr>> resolved_order;
    std::unique_ptr<Expr> resolved_having;
    for (const SelectItem& item : stmt.select_list) {
      if (item.is_star) {
        return Status::InvalidArgument("SELECT * is invalid with GROUP BY");
      }
      CollectAggregates(*item.expr, &slots);
    }
    if (stmt.having != nullptr) {
      resolved_having = SubstituteAliases(*stmt.having, stmt);
      CollectAggregates(*resolved_having, &slots);
    }
    for (const OrderKey& k : stmt.order_by) {
      resolved_order.push_back(SubstituteAliases(*k.expr, stmt));
      CollectAggregates(*resolved_order.back(), &slots);
    }

    std::vector<std::string> key_names;
    {
      ScopedSpan span("HashAggregate");
      const size_t rows_in = current->num_rows();
      std::string grouping;
      LAWS_ASSIGN_OR_RETURN(
          aggregated, Aggregate(*current, stmt, slots, &key_names, &grouping));
      if (span.active()) {
        std::string keys;
        for (const auto& g : stmt.group_by) {
          if (!keys.empty()) keys += ", ";
          keys += g->ToString();
        }
        span.SetDetail((keys.empty() ? "<global>" : keys) + " | " + grouping);
      }
      span.SetRows(rows_in, aggregated.num_rows());
    }
    LAWS_RETURN_IF_ERROR(pipeline_charge.Acquire(aggregated.MemoryBytes(),
                                                 "aggregate output"));
    current = &aggregated;

    std::vector<std::string> key_reprs;
    for (const auto& g : stmt.group_by) key_reprs.push_back(g->ToString());

    for (const SelectItem& item : stmt.select_list) {
      SelectItem out;
      out.alias = item.alias.empty() ? item.expr->ToString() : item.alias;
      out.expr =
          RewriteForAggregated(*item.expr, slots, key_reprs, key_names);
      // Validate: after rewriting, plain column refs must resolve to key or
      // aggregate columns.
      projected_items.push_back(std::move(out));
    }
    if (resolved_having != nullptr) {
      having =
          RewriteForAggregated(*resolved_having, slots, key_reprs, key_names);
    }
    for (auto& k : resolved_order) {
      order_exprs.push_back(
          RewriteForAggregated(*k, slots, key_reprs, key_names));
    }
  } else {
    for (const SelectItem& item : stmt.select_list) {
      if (item.is_star) {
        for (const Field& f : source.schema().fields()) {
          SelectItem out;
          out.alias = f.name;
          out.expr = Expr::MakeColumnRef(f.name);
          projected_items.push_back(std::move(out));
        }
        continue;
      }
      SelectItem out;
      out.alias = item.alias.empty() ? item.expr->ToString() : item.alias;
      out.expr = item.expr->Clone();
      projected_items.push_back(std::move(out));
    }
    for (const OrderKey& k : stmt.order_by) {
      order_exprs.push_back(SubstituteAliases(*k.expr, stmt));
    }
  }

  // 3. HAVING.
  Table post_having{Schema{}};
  if (having != nullptr) {
    ScopedSpan span("Filter[having]");
    const size_t rows_in = current->num_rows();
    std::string disasm;
    LAWS_ASSIGN_OR_RETURN(
        std::vector<uint32_t> selection,
        FilterRows(*having, *current, span.active() ? &disasm : nullptr));
    if (span.active()) {
      span.SetDetail(having->ToString() + " | bytecode: " + disasm);
    }
    post_having = current->GatherRows(selection);
    LAWS_RETURN_IF_ERROR(
        pipeline_charge.Acquire(post_having.MemoryBytes(), "having output"));
    current = &post_having;
    span.SetRows(rows_in, post_having.num_rows());
  }

  // 4. ORDER BY is applied before projection (it may reference
  // non-projected columns); LIMIT waits until after DISTINCT. Without
  // DISTINCT, and when every projected item is a column reference, only
  // the first LIMIT rows are selected: projecting a column cannot fail,
  // so no error can hide in the rows past the limit (DESIGN.md §11).
  Table sorted{Schema{}};
  if (!order_exprs.empty()) {
    ScopedSpan span("Sort");
    const size_t rows_in = current->num_rows();
    const bool top_k =
        stmt.limit >= 0 && static_cast<size_t>(stmt.limit) < rows_in &&
        !stmt.distinct &&
        std::all_of(projected_items.begin(), projected_items.end(),
                    [](const SelectItem& item) {
                      return item.expr->kind == ExprKind::kColumnRef;
                    });
    if (span.active()) {
      std::string keys;
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        if (k > 0) keys += ", ";
        keys += order_exprs[k]->ToString();
        keys += stmt.order_by[k].ascending ? " ASC" : " DESC";
      }
      keys += top_k ? " | top " + std::to_string(stmt.limit) + " of " +
                          std::to_string(rows_in)
                    : " | full";
      span.SetDetail(keys);
    }
    LAWS_ASSIGN_OR_RETURN(sorted, SortRows(*current, stmt, order_exprs,
                                           top_k ? stmt.limit : -1));
    LAWS_RETURN_IF_ERROR(
        pipeline_charge.Acquire(sorted.MemoryBytes(), "sort output"));
    current = &sorted;
    span.SetRows(rows_in, sorted.num_rows());
  }

  // 5. Projection.
  Table projected{Schema{}};
  {
    ScopedSpan span("Project");
    const size_t rows_in = current->num_rows();
    std::vector<Field> out_fields;
    std::vector<Column> out_cols;
    std::string detail;
    for (const SelectItem& item : projected_items) {
      LAWS_GOVERNOR_POLL();
      std::string disasm;
      LAWS_ASSIGN_OR_RETURN(
          Column c, EvaluateExpr(*item.expr, *current,
                                 span.active() ? &disasm : nullptr));
      if (span.active()) {
        if (!detail.empty()) detail += ", ";
        detail += item.alias;
        detail += " | bytecode: " + disasm;
      }
      LAWS_RETURN_IF_ERROR(
          pipeline_charge.Acquire(c.MemoryBytes(), "projection output"));
      out_fields.push_back(Field{item.alias, c.type(), true});
      out_cols.push_back(std::move(c));
    }
    if (span.active()) span.SetDetail(detail);
    auto built =
        Table::FromColumns(Schema(std::move(out_fields)), std::move(out_cols));
    if (!built.ok()) return built.status();
    projected = std::move(*built);
    span.SetRows(rows_in, projected.num_rows());
  }

  // 6. DISTINCT, then LIMIT.
  if (stmt.distinct) {
    ScopedSpan span("Distinct");
    const size_t rows_in = projected.num_rows();
    LAWS_ASSIGN_OR_RETURN(projected, DistinctRows(std::move(projected)));
    span.SetRows(rows_in, projected.num_rows());
  }
  if (stmt.limit >= 0) {
    ScopedSpan span("Limit");
    if (span.active()) span.SetDetail(std::to_string(stmt.limit));
    const size_t rows_in = projected.num_rows();
    projected = LimitRows(std::move(projected), stmt.limit);
    span.SetRows(rows_in, projected.num_rows());
    return projected;
  }
  return projected;
}

Result<Table> ExecuteSelect(const Catalog& catalog,
                            const SelectStatement& stmt) {
  static Counter* executed =
      MetricsRegistry::Global().GetCounter("query.executed");
  executed->Add();
  LAWS_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(stmt.from_table));
  if (stmt.join_table.empty()) {
    // Register (or refresh) the block index for the base table so the
    // compressed scan tier can serve this and later queries. Joined and
    // derived tables stay unindexed — they take the decode path.
    EnsureBlockIndex(table);
    return ExecuteSelectOnTable(*table, stmt);
  }
  LAWS_ASSIGN_OR_RETURN(TablePtr right, catalog.Get(stmt.join_table));
  Table joined{Schema{}};
  {
    ScopedSpan span("HashJoin");
    if (span.active()) {
      std::string keys = stmt.from_table + " \xE2\x8B\x88 " + stmt.join_table;
      for (const JoinKey& k : stmt.join_keys) {
        keys += " on " + k.left_column + " = " + k.right_column;
      }
      span.SetDetail(keys);
    }
    LAWS_ASSIGN_OR_RETURN(
        joined, HashJoin(*table, *right, stmt.join_keys, stmt.join_table));
    span.SetRows(table->num_rows() + right->num_rows(), joined.num_rows());
  }
  ScopedCharge joined_charge;
  LAWS_RETURN_IF_ERROR(
      joined_charge.Acquire(joined.MemoryBytes(), "join output"));
  return ExecuteSelectOnTable(joined, stmt);
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
  // Assemble the pipeline outside-in, then print outermost first.
  std::vector<std::string> ops;
  if (stmt.limit >= 0) ops.push_back("Limit(" + std::to_string(stmt.limit) + ")");
  if (stmt.distinct) ops.push_back("Distinct");
  {
    std::string proj = "Project(";
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      if (i > 0) proj += ", ";
      proj += stmt.select_list[i].is_star
                  ? "*"
                  : stmt.select_list[i].expr->ToString();
    }
    ops.push_back(proj + ")");
  }
  if (!stmt.order_by.empty()) {
    std::string sort = "Sort(";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i > 0) sort += ", ";
      sort += stmt.order_by[i].expr->ToString();
      sort += stmt.order_by[i].ascending ? " ASC" : " DESC";
    }
    ops.push_back(sort + ")");
  }
  if (stmt.having != nullptr) {
    ops.push_back("Filter[having](" + stmt.having->ToString() + ")");
  }
  bool has_aggregate = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.select_list) {
    if (!item.is_star && item.expr->ContainsAggregate()) has_aggregate = true;
  }
  if (has_aggregate) {
    std::string agg = "HashAggregate(keys: ";
    if (stmt.group_by.empty()) {
      agg += "<global>";
    } else {
      for (size_t i = 0; i < stmt.group_by.size(); ++i) {
        if (i > 0) agg += ", ";
        agg += stmt.group_by[i]->ToString();
      }
    }
    ops.push_back(agg + ")");
  }
  if (stmt.where != nullptr) {
    ops.push_back("Filter(" + stmt.where->ToString() + ")");
  }
  if (!stmt.join_table.empty()) {
    std::string join = "HashJoin(" + stmt.from_table + " ⋈ " +
                       stmt.join_table + " on ";
    for (size_t i = 0; i < stmt.join_keys.size(); ++i) {
      if (i > 0) join += " AND ";
      join += stmt.join_keys[i].left_column + " = " +
              stmt.join_keys[i].right_column;
    }
    ops.push_back(join + ")");
  }
  ops.push_back("Scan(" + stmt.from_table + ", " +
                std::to_string(table->num_rows()) + " rows)");

  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    out.append(i * 2, ' ');
    out += ops[i];
    out += '\n';
  }
  return out;
}

Result<std::string> ExplainQuery(const Catalog& catalog,
                                 const std::string& sql) {
  LAWS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return ExplainSelect(catalog, stmt);
}

namespace {

/// The counters behind EXPLAIN ANALYZE's `expr:` and `scan:` lines, in
/// print order.
constexpr const char* kExplainCounters[] = {
    "expr.compiled", "expr.batches", "scan.blocks_total",
    "scan.blocks_pruned", "scan.encoded_agg"};
static_assert(std::size(kExplainCounters) == 5,
              "ExplainCounterLines keeps one start value per counter");

}  // namespace

ExplainCounterLines::ExplainCounterLines() {
  for (size_t i = 0; i < start_.size(); ++i) {
    start_[i] =
        MetricsRegistry::Global().GetCounter(kExplainCounters[i])->value();
  }
}

std::string ExplainCounterLines::Render() const {
  unsigned long long d[std::size(kExplainCounters)];
  for (size_t i = 0; i < start_.size(); ++i) {
    d[i] = MetricsRegistry::Global().GetCounter(kExplainCounters[i])->value() -
           start_[i];
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "expr: compiled=%llu batches=%llu\n"
                "scan: blocks=%llu pruned=%llu encoded_agg=%llu\n",
                d[0], d[1], d[2], d[3], d[4]);
  return buf;
}

Result<std::string> ExplainAnalyzeQuery(const Catalog& catalog,
                                        const std::string& sql) {
  TraceSink sink;
  Timer total;
  const ExplainCounterLines counters;
  size_t result_rows = 0;
  // A governed query may be stopped mid-plan; that is a legitimate
  // outcome worth explaining, so the partial trace is still rendered
  // with the stop reason. Any other error propagates as usual.
  Status stopped;
  {
    ScopedSpan span("Query");
    SelectStatement stmt;
    {
      ScopedSpan parse_span("Parse");
      LAWS_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
    }
    Result<Table> result = ExecuteSelect(catalog, stmt);
    if (result.ok()) {
      result_rows = result->num_rows();
    } else if (IsGovernorStatusCode(result.status().code())) {
      stopped = result.status();
    } else {
      return result.status();
    }
  }
  std::string out = sink.Render();
  out += counters.Render();
  if (QueryGovernor* gov = QueryGovernor::Current()) {
    out += gov->DescribeLine();
  }
  if (!stopped.ok()) {
    out += "query stopped: " + stopped.ToString() + "\n";
    return out;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu row%s in %.3f ms\n", result_rows,
                result_rows == 1 ? "" : "s", total.ElapsedMillis());
  out += buf;
  return out;
}

}  // namespace laws
