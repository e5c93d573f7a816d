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

/// Groups `input` by `group_by` (GroupRows), folds every aggregate slot
/// into per-group states, and emits one row per group in first-seen
/// order: key columns `__key<k>`, then the slots' hidden columns. `*note`
/// (when non-null) gets the grouping that ran, for the HashAggregate span.
Result<Table> Aggregate(const Table& input,
                        const std::vector<std::unique_ptr<Expr>>& group_by,
                        const std::vector<AggSlot>& slots, std::string* note) {
  // Resolve group-key expressions. Evaluated key and argument columns are
  // the aggregation's big materializations; charge them as they appear.
  ScopedCharge charge;
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
  if (group_by.empty()) {
    std::vector<const Expr*> nodes;
    nodes.reserve(slots.size());
    for (const AggSlot& s : slots) nodes.push_back(s.node.get());
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
  if (group_by.empty() && representative_row.empty()) {
    representative_row.push_back(0);
    states.resize(num_slots);
  }
  const size_t num_groups = representative_row.size();
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

/// ORDER BY over normalized keys. With 0 <= `top_k` < rows only the first
/// top_k rows are selected and gathered; otherwise every row is sorted.
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
  if (top_k >= 0 && static_cast<size_t>(top_k) < n) {
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

/// WHERE over `input`. Zone maps first: when the table carries a block
/// index and the predicate is in the conservative class, they prune and
/// take whole blocks and the VM evaluates only the rest (DESIGN.md §14) —
/// bit-identical to the VM over every row, which runs when they decline.
/// `*note` (when non-null) gets the scan and the program that ran.
Result<Table> FilterWhere(const Expr& where, const Table& input,
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
  } else {
    LAWS_ASSIGN_OR_RETURN(selection, FilterRows(where, input, disasm_out));
    if (note != nullptr) *note = " | bytecode: " + disasm;
  }
  return input.GatherRows(*selection);
}

/// Evaluates `items` over `input`, charging each output column as it
/// appears. `*note` (when non-null) gets each item's program.
Result<Table> Project(const std::vector<SelectItem>& items,
                      const Table& input, ScopedCharge* charge,
                      std::string* note) {
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (const SelectItem& item : items) {
    LAWS_GOVERNOR_POLL();
    std::string disasm;
    LAWS_ASSIGN_OR_RETURN(
        Column c,
        EvaluateExpr(*item.expr, input, note != nullptr ? &disasm : nullptr));
    if (note != nullptr) *note += " | bytecode: " + disasm;
    LAWS_RETURN_IF_ERROR(
        charge->Acquire(c.MemoryBytes(), "projection output"));
    fields.push_back(Field{item.alias, c.type(), true});
    columns.push_back(std::move(c));
  }
  return Table::FromColumns(Schema(std::move(fields)), std::move(columns));
}

/// Runs `plan`'s operators in order over `source` (and `right`, the
/// JOIN's right table), each under its span.
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
  for (const PlanOp op : plan.ops) {
    ScopedSpan span(OpName(op));
    const size_t rows_in = op == PlanOp::kHashJoin
                               ? source.num_rows() + right->num_rows()
                               : current->num_rows();
    std::string runtime;  // the span detail only running tells
    std::string* const note = span.active() ? &runtime : nullptr;
    Table out{Schema{}};
    const char* charged_as = nullptr;  // set when `out` is charged below
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
        LAWS_ASSIGN_OR_RETURN(out, FilterWhere(*stmt.where, *current, note));
        charged_as = "filter output";
        break;
      }
      case PlanOp::kHashAggregate: {
        LAWS_ASSIGN_OR_RETURN(
            out, Aggregate(*current, stmt.group_by, plan.slots, note));
        charged_as = "aggregate output";
        break;
      }
      case PlanOp::kHaving: {
        std::string disasm;
        LAWS_ASSIGN_OR_RETURN(
            std::vector<uint32_t> selection,
            FilterRows(*plan.having, *current,
                       note != nullptr ? &disasm : nullptr));
        if (note != nullptr) runtime = " | bytecode: " + disasm;
        LAWS_ASSIGN_OR_RETURN(out, current->GatherRows(selection));
        charged_as = "having output";
        break;
      }
      case PlanOp::kSort: {
        LAWS_ASSIGN_OR_RETURN(out, SortRows(*current, stmt, plan.order,
                                            plan.top_k ? stmt.limit : -1));
        if (plan.top_k && note != nullptr) {
          runtime = " of " + std::to_string(rows_in);
        }
        charged_as = "sort output";
        break;
      }
      case PlanOp::kProject: {  // charges each column as it appears
        LAWS_ASSIGN_OR_RETURN(
            out, Project(plan.projection, *current, &charge, note));
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
    span.SetRows(rows_in, out.num_rows());
    if (charged_as != nullptr) {
      LAWS_RETURN_IF_ERROR(charge.Acquire(out.MemoryBytes(), charged_as));
    }
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
