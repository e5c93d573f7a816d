#include "storage/grouping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "compress/block_store.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "testing/differential.h"
#include "testing/reference_oracle.h"

namespace laws {
namespace {

constexpr int64_t k2Pow53 = int64_t{1} << 53;
const double kNan = std::numeric_limits<double>::quiet_NaN();

/// Restores the default pool size when a test leaves.
struct LaneGuard {
  ~LaneGuard() { ThreadPool::SetGlobalThreadCount(0); }
};

/// Grouping identity spelled out independently of GroupRows: NULL is its
/// own class, every NaN one class, -0.0 equals 0.0, and strings compare
/// by text.
std::string ReferenceKey(const Value& v) {
  if (v.is_null()) return "N";
  if (v.is_int64()) return "i" + std::to_string(v.int64());
  if (v.is_bool()) return v.boolean() ? "T" : "F";
  if (v.is_string()) return "s" + v.str();
  const double d = v.dbl();
  if (std::isnan(d)) return "nan";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "d%a", d == 0.0 ? 0.0 : d);
  return buf;
}

/// Naive grouping: an ordered map from the reference key to a group id
/// assigned in first-seen order.
struct ReferenceGroups {
  std::vector<uint32_t> first_row;
  std::vector<std::vector<uint32_t>> rows;  // per group, table order
};

ReferenceGroups NaiveGroups(const std::vector<const Column*>& keys,
                            const std::vector<uint32_t>& selected) {
  ReferenceGroups out;
  std::map<std::vector<std::string>, size_t> ids;
  for (uint32_t row : selected) {
    std::vector<std::string> key;
    for (const Column* c : keys) key.push_back(ReferenceKey(c->GetValue(row)));
    auto [it, inserted] = ids.emplace(std::move(key), out.first_row.size());
    if (inserted) {
      out.first_row.push_back(row);
      out.rows.emplace_back();
    }
    out.rows[it->second].push_back(row);
  }
  return out;
}

/// A salted table of `n` rows: nullable INT64 with 2^53 and 2^53 + 1,
/// DOUBLE with NaN of both signs and ±0.0, BOOL, STRING with the text
/// 'NULL' and the empty string, and a numeric argument column.
Table SaltedTable(size_t n, uint64_t seed) {
  Table t(Schema({Field{"i", DataType::kInt64, true},
                  Field{"d", DataType::kDouble, true},
                  Field{"b", DataType::kBool, true},
                  Field{"s", DataType::kString, true},
                  Field{"v", DataType::kDouble, true},
                  Field{"w", DataType::kInt64, false}}));
  Rng rng(seed);
  const Value ints[] = {Value::Int64(k2Pow53), Value::Int64(k2Pow53 + 1),
                        Value::Int64(-7), Value::Int64(0), Value::Null()};
  const Value doubles[] = {Value::Double(kNan),  Value::Double(-kNan),
                           Value::Double(0.0),   Value::Double(-0.0),
                           Value::Double(1.5),   Value::Double(-2.25),
                           Value::Double(1e300), Value::Null()};
  const Value bools[] = {Value::Bool(true), Value::Bool(false), Value::Null()};
  const Value strings[] = {Value::String("NULL"), Value::String(""),
                           Value::String("alpha"), Value::String("Beta"),
                           Value::Null()};
  for (size_t r = 0; r < n; ++r) {
    // Interleaved keys: a wide INT64 range salted with the edge values.
    const Value i = rng.Bernoulli(0.3)
                        ? ints[rng.UniformInt(0, 4)]
                        : Value::Int64(rng.UniformInt(0, 5000));
    const Value v = rng.Bernoulli(0.05)
                        ? (rng.Bernoulli(0.5) ? Value::Null()
                                              : doubles[rng.UniformInt(0, 6)])
                        : Value::Double(rng.Normal(0.0, 1e3));
    EXPECT_TRUE(t.AppendRow({i, doubles[rng.UniformInt(0, 7)],
                             bools[rng.UniformInt(0, 2)],
                             strings[rng.UniformInt(0, 4)], v,
                             Value::Int64(rng.UniformInt(-1000, 1000))})
                    .ok());
  }
  return t;
}

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> rows(n);
  for (size_t r = 0; r < n; ++r) rows[r] = static_cast<uint32_t>(r);
  return rows;
}

/// Checks a Grouping against the naive reference: the same groups in
/// first-seen order, every selected row once, partitions in table order,
/// each group inside one partition, and RowsByGroup in table order.
void ExpectMatchesReference(const ReferenceGroups& want,
                            const std::vector<uint32_t>& selected,
                            const Grouping& got, const std::string& label) {
  ASSERT_EQ(got.first_row, want.first_row) << label;
  ASSERT_EQ(got.rows.size(), selected.size()) << label;
  ASSERT_EQ(got.group.size(), selected.size()) << label;
  ASSERT_EQ(got.partition_begin.back(), selected.size()) << label;
  std::vector<int> partition_of(want.first_row.size(), -1);
  std::vector<uint32_t> seen;
  for (size_t p = 0; p < got.num_partitions(); ++p) {
    for (size_t i = got.partition_begin[p]; i < got.partition_begin[p + 1];
         ++i) {
      if (i > got.partition_begin[p]) {
        ASSERT_LT(got.rows[i - 1], got.rows[i]) << label << " partition " << p;
      }
      const uint32_t g = got.group[i];
      ASSERT_LT(g, want.rows.size()) << label;
      if (partition_of[g] < 0) partition_of[g] = static_cast<int>(p);
      ASSERT_EQ(partition_of[g], static_cast<int>(p)) << label << " group " << g;
      seen.push_back(got.rows[i]);
    }
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen, selected) << label;

  ScopedCharge charge;
  std::vector<uint32_t> by_group;
  std::vector<size_t> offsets;
  ASSERT_TRUE(RowsByGroup(got, &charge, &by_group, &offsets).ok()) << label;
  ASSERT_EQ(offsets.size(), want.rows.size() + 1) << label;
  for (size_t g = 0; g < want.rows.size(); ++g) {
    const std::vector<uint32_t> rows(by_group.begin() + offsets[g],
                                     by_group.begin() + offsets[g + 1]);
    ASSERT_EQ(rows, want.rows[g]) << label << " group " << g;
  }
}

TEST(GroupRowsTest, MatchesNaiveMapAtEverySizeAndLaneCount) {
  LaneGuard guard;
  for (size_t n : {size_t{0}, size_t{1}, size_t{4095}, size_t{4097},
                   size_t{200000}}) {
    const Table t = SaltedTable(n, 17 + n);
    const Column* i = &t.column(0);
    const Column* d = &t.column(1);
    const Column* b = &t.column(2);
    const Column* s = &t.column(3);
    const std::vector<std::vector<const Column*>> key_sets = {
        {i}, {d}, {b}, {s}, {b, s}, {i, d, s}, {s, b, d, i}};
    // Every third row, to exercise a selection.
    std::vector<uint32_t> thirds;
    for (size_t r = 0; r < n; r += 3) thirds.push_back(static_cast<uint32_t>(r));
    const std::vector<uint32_t> all_rows = AllRows(n);
    for (size_t k = 0; k < key_sets.size(); ++k) {
      const ReferenceGroups want_all = NaiveGroups(key_sets[k], all_rows);
      const ReferenceGroups want_thirds = NaiveGroups(key_sets[k], thirds);
      for (size_t lanes : {size_t{1}, size_t{4}}) {
        ThreadPool::SetGlobalThreadCount(lanes);
        const std::string label = "n=" + std::to_string(n) + " lanes=" +
                                  std::to_string(lanes) + " keys#" +
                                  std::to_string(k);
        ScopedCharge charge;
        auto all = GroupRows(key_sets[k], n, nullptr, &charge);
        ASSERT_TRUE(all.ok()) << all.status().ToString();
        ExpectMatchesReference(want_all, all_rows, *all, label);
        auto some = GroupRows(key_sets[k], n, &thirds, &charge);
        ASSERT_TRUE(some.ok()) << some.status().ToString();
        ExpectMatchesReference(want_thirds, thirds, *some,
                               label + " selection");
      }
    }
  }
}

TEST(GroupRowsTest, KeyedGroupingUsesEveryPartition) {
  const Table t = SaltedTable(4097, 5);
  ScopedCharge charge;
  auto keyed = GroupRows({&t.column(5)}, t.num_rows(), nullptr, &charge);
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(keyed->num_partitions(), Grouping::kPartitions);
}

TEST(GroupRowsTest, IdentityEdgesStayApartOrTogether) {
  Table t(Schema({Field{"i", DataType::kInt64, true},
                  Field{"d", DataType::kDouble, true},
                  Field{"s", DataType::kString, true}}));
  const double neg_nan = std::copysign(kNan, -1.0);
  ASSERT_TRUE(t.AppendRow({Value::Int64(k2Pow53), Value::Double(kNan),
                           Value::String("NULL")})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value::Int64(k2Pow53 + 1), Value::Double(neg_nan),
                           Value::Null()})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Double(-0.0),
                           Value::String("NULL")})
                  .ok());
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(0), Value::Double(0.0), Value::Null()}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(0), Value::Null(), Value::String("")}).ok());
  ScopedCharge charge;
  // INT64 groups by bits: 2^53 and 2^53 + 1 stay apart, NULL apart from 0.
  auto ints = GroupRows({&t.column(0)}, 5, nullptr, &charge);
  ASSERT_TRUE(ints.ok());
  EXPECT_EQ(ints->first_row, (std::vector<uint32_t>{0, 1, 2, 3}));
  // Both NaNs are one class, -0.0 joins 0.0, NULL is its own class.
  auto doubles = GroupRows({&t.column(1)}, 5, nullptr, &charge);
  ASSERT_TRUE(doubles.ok());
  EXPECT_EQ(doubles->first_row, (std::vector<uint32_t>{0, 2, 4}));
  // The text 'NULL' is not NULL; NULL is not the empty string.
  auto strings = GroupRows({&t.column(2)}, 5, nullptr, &charge);
  ASSERT_TRUE(strings.ok());
  EXPECT_EQ(strings->first_row, (std::vector<uint32_t>{0, 1, 4}));
}

// GROUP BY and DISTINCT over a 200k-row salted table: bit-identical to the
// reference oracle, in first-seen order, at 1 and 4 lanes.
TEST(GroupedQueryTest, GroupByAndDistinctMatchOracleAtOneAndFourLanes) {
  LaneGuard guard;
  Catalog cat;
  cat.RegisterOrReplace("t", std::make_shared<Table>(SaltedTable(200000, 3)));
  const std::string aggs =
      "COUNT(*), COUNT(v), SUM(v), AVG(v), VARIANCE(v), STDDEV(v), MIN(v), "
      "MAX(v), SUM(w), MIN(s), MAX(s)";
  const std::vector<std::string> queries = {
      "SELECT i, " + aggs + " FROM t GROUP BY i",
      "SELECT d, " + aggs + " FROM t GROUP BY d",
      "SELECT b, " + aggs + " FROM t GROUP BY b",
      "SELECT s, " + aggs + " FROM t GROUP BY s",
      "SELECT b, s, d, " + aggs + " FROM t GROUP BY b, s, d",
      "SELECT " + aggs + " FROM t",
      "SELECT " + aggs + " FROM t WHERE w > 0",
      "SELECT DISTINCT d, s FROM t",
      "SELECT DISTINCT i, b, s FROM t",
  };
  for (const std::string& sql : queries) {
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const testing::OracleResult want = testing::OracleExecuteSelect(cat, *stmt);
    ASSERT_TRUE(want.status.ok()) << sql << ": " << want.status.ToString();
    for (size_t lanes : {size_t{1}, size_t{4}}) {
      ThreadPool::SetGlobalThreadCount(lanes);
      auto got = ExecuteSelect(cat, *stmt);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      std::string why;
      EXPECT_TRUE(testing::TablesEquivalent(want.table, *got,
                                            /*order_sensitive=*/true, &why))
          << sql << " at " << lanes << " lanes: " << why;
    }
  }
}

// Aggregates under a WHERE read the selection in place: global ones fold
// it in table order without grouping, grouped ones hand it to GroupRows.
// Over a 200k-row salted table they equal the reference oracle at 1 and 4
// lanes, on an unindexed copy and on an indexed one. On the indexed copy
// the zone-statistics fold (EncodedGlobalAggregate) would answer COUNT,
// MIN, MAX and the integral SUM(w) from every row, so it must not run
// under a selection.
TEST(GroupedQueryTest, AggregatesUnderWhereMatchOracleIndexedAndNot) {
  LaneGuard guard;
  const auto plain = std::make_shared<Table>(SaltedTable(200000, 11));
  const auto indexed = std::make_shared<Table>(SaltedTable(200000, 11));
  EnsureBlockIndex(indexed);
  ASSERT_NE(indexed->block_index(), nullptr);
  Catalog cat;
  cat.RegisterOrReplace("t", indexed);
  const std::string aggs =
      "COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), VARIANCE(v), "
      "STDDEV(v), COUNT(w), SUM(w), AVG(w), MIN(w), MAX(w), VARIANCE(w), "
      "MIN(s), MAX(s)";
  // The calls the zone-statistics fold answers (w is integral and small).
  const std::string encodable =
      "COUNT(*), COUNT(w), SUM(w), AVG(w), MIN(w), MAX(w), MIN(v), MAX(v)";
  std::vector<std::string> queries = {
      "SELECT s, i, " + aggs +
      " FROM t WHERE w BETWEEN -200 AND 300 GROUP BY s, i"};
  for (const char* where :
       {"i > 2500", "w BETWEEN -200 AND 300", "s = 'alpha'", "d > 0",
        "w > 5000"}) {
    queries.push_back("SELECT " + encodable + " FROM t WHERE " + where);
    queries.push_back("SELECT " + aggs + " FROM t WHERE " + where);
    queries.push_back("SELECT b, " + aggs + " FROM t WHERE " + where +
                      " GROUP BY b");
  }
  for (const std::string& sql : queries) {
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const testing::OracleResult want = testing::OracleExecuteSelect(cat, *stmt);
    ASSERT_TRUE(want.status.ok()) << sql << ": " << want.status.ToString();
    for (size_t lanes : {size_t{1}, size_t{4}}) {
      ThreadPool::SetGlobalThreadCount(lanes);
      for (const Table* table : {plain.get(), indexed.get()}) {
        auto got = ExecuteSelectOnTable(*table, *stmt);
        ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
        std::string why;
        EXPECT_TRUE(testing::TablesEquivalent(want.table, *got,
                                              /*order_sensitive=*/true, &why))
            << sql << " at " << lanes << " lanes on the "
            << (table == plain.get() ? "unindexed" : "indexed")
            << " copy: " << why;
      }
    }
  }
  EXPECT_EQ(plain->block_index(), nullptr);
}

}  // namespace
}  // namespace laws
