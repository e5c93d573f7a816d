#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "compress/block_store.h"
#include "query/compressed_scan.h"
#include "query/executor.h"
#include "query/expr_eval.h"
#include "query/parser.h"
#include "storage/catalog.h"

namespace laws {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Pins the scan block size for a test and restores it afterwards, so the
/// fixed small tables here span several blocks.
class BlockRowsGuard {
 public:
  explicit BlockRowsGuard(size_t rows) : prev_(ScanBlockRows()) {
    SetScanBlockRows(rows);
  }
  ~BlockRowsGuard() { SetScanBlockRows(prev_); }

 private:
  size_t prev_;
};

std::unique_ptr<Expr> ParsePred(const std::string& where) {
  auto stmt = ParseSelect("SELECT 1 FROM t WHERE " + where);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::move(stmt->where);
}

/// Runs `where` through the compressed tier and asserts the selection is
/// identical to the decode path's FilterRows. Returns the stats for
/// pruning assertions; fails the test if the compressed tier declined.
ScanStats ExpectCompressedMatches(const TablePtr& table,
                                  const std::string& where) {
  EnsureBlockIndex(table);
  auto pred = ParsePred(where);
  ScanStats stats;
  auto compressed = CompressedFilterRows(*pred, *table, &stats);
  EXPECT_TRUE(compressed.has_value()) << where << " declined";
  auto reference = FilterRows(*pred, *table);
  EXPECT_TRUE(reference.ok()) << reference.status().ToString();
  if (compressed.has_value() && reference.ok()) {
    EXPECT_EQ(*compressed, *reference) << where;
  }
  return stats;
}

TablePtr MakeDoubleTable(const std::vector<Value>& values) {
  auto t = std::make_shared<Table>(
      Schema({Field{"da", DataType::kDouble, true}}));
  for (const Value& v : values) {
    EXPECT_TRUE(t->AppendRow({v}).ok());
  }
  return t;
}

TEST(CompressedScanTest, PrunesBlocksOutsideThePredicateRange) {
  BlockRowsGuard guard(4);
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  const ScanStats stats = ExpectCompressedMatches(t, "ia >= 13");
  EXPECT_EQ(stats.blocks_total, 4u);
  // Blocks [0,4), [4,8), [8,12) prune; [12,16) is SOME (13..15 of 12..15).
  EXPECT_EQ(stats.blocks_pruned, 3u);
}

TEST(CompressedScanTest, PredicateExactlyAtBlockMinAndMax) {
  BlockRowsGuard guard(4);
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  // Block 0 holds 0..3, block 1 holds 4..7. Each predicate sits exactly
  // on a zone boundary; off-by-one pruning would drop the boundary row.
  ExpectCompressedMatches(t, "ia = 3");   // block-0 max
  ExpectCompressedMatches(t, "ia = 4");   // block-1 min
  ExpectCompressedMatches(t, "ia >= 7");  // global max
  ExpectCompressedMatches(t, "ia <= 0");  // global min
  ExpectCompressedMatches(t, "ia > 3");
  ExpectCompressedMatches(t, "ia < 4");
}

TEST(CompressedScanTest, AllNullBlocksNeverMatchButCountNulls) {
  BlockRowsGuard guard(2);
  auto t = MakeDoubleTable({Value::Null(), Value::Null(), Value::Null(),
                            Value::Null(), Value::Double(1.0),
                            Value::Double(2.0)});
  const ScanStats stats = ExpectCompressedMatches(t, "da >= 0.0");
  // The two all-NULL blocks can only produce NULL: both prune.
  EXPECT_EQ(stats.blocks_total, 3u);
  EXPECT_GE(stats.blocks_pruned, 2u);
  // NOT over NULL stays NULL, so all-NULL blocks prune here too.
  ExpectCompressedMatches(t, "NOT (da >= 0.0)");
}

TEST(CompressedScanTest, AllNaNBlocksFollowComparisonSemantics) {
  BlockRowsGuard guard(2);
  auto t = MakeDoubleTable({Value::Double(kNaN), Value::Double(kNaN),
                            Value::Double(1.0), Value::Double(2.0)});
  // NaN lands in the "greater" slot of the three-way compare: it
  // satisfies != / > / >= and fails = / < / <= (DESIGN.md §11).
  ExpectCompressedMatches(t, "da > 100.0");
  ExpectCompressedMatches(t, "da != 1.0");
  ExpectCompressedMatches(t, "da = 1.0");
  const ScanStats stats = ExpectCompressedMatches(t, "da < 0.5");
  // The all-NaN block can only produce FALSE for `<`: pruned.
  EXPECT_GE(stats.blocks_pruned, 1u);
}

TEST(CompressedScanTest, SignedZeroStraddlingBlockBoundary) {
  BlockRowsGuard guard(2);
  // -0.0 and +0.0 compare equal, so either sign is a valid zone
  // endpoint; block 0 is all -0.0, block 1 mixes signs.
  auto t = MakeDoubleTable({Value::Double(-0.0), Value::Double(-0.0),
                            Value::Double(0.0), Value::Double(-0.0),
                            Value::Double(1.0), Value::Double(2.0)});
  ExpectCompressedMatches(t, "da = 0.0");
  ExpectCompressedMatches(t, "da <= 0.0");
  ExpectCompressedMatches(t, "da < 0.0");   // nothing: -0.0 < 0.0 is false
  ExpectCompressedMatches(t, "da >= 0.0");
  ExpectCompressedMatches(t, "da = -0.0");  // same as = 0.0
}

TEST(CompressedScanTest, EmptyTableYieldsEmptySelection) {
  BlockRowsGuard guard(4);
  auto t = MakeDoubleTable({});
  EnsureBlockIndex(t);
  auto pred = ParsePred("da > 1.0");
  ScanStats stats;
  auto compressed = CompressedFilterRows(*pred, *t, &stats);
  ASSERT_TRUE(compressed.has_value());
  EXPECT_TRUE(compressed->empty());
  EXPECT_EQ(stats.blocks_total, 0u);
}

TEST(CompressedScanTest, ShortTailBlockIsCoveredExactly) {
  BlockRowsGuard guard(4);
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 10; ++i) {  // 4 + 4 + 2: tail block is short
    ASSERT_TRUE(t->AppendRow({Value::Int64(i % 3)}).ok());
  }
  const ScanStats stats = ExpectCompressedMatches(t, "ia <= 2");
  EXPECT_EQ(stats.blocks_total, 3u);
  // Every value satisfies the predicate: whole-block takes, tail included.
  EXPECT_EQ(stats.blocks_taken, 3u);
}

TEST(CompressedScanTest, RunAwareFilteringMatchesRowEvaluation) {
  BlockRowsGuard guard(8);
  auto t = std::make_shared<Table>(
      Schema({Field{"seg", DataType::kInt64, false},
              Field{"flag", DataType::kBool, true}}));
  for (int i = 0; i < 64; ++i) {
    // seg runs in strides of 4, flag in strides of 6: both columns keep
    // RLE runs inside every 8-row block, but the run boundaries are
    // misaligned, so the merged-run walk has to split segments. Every
    // block mixes values, so blocks are SOME (not constant-take/prune).
    const int g = i / 6;
    ASSERT_TRUE(t->AppendRow({Value::Int64((i / 4) % 3),
                              g % 4 == 0 ? Value::Null()
                                         : Value::Bool(g % 2 == 0)})
                    .ok());
  }
  const ScanStats stats = ExpectCompressedMatches(t, "seg = 2");
  EXPECT_GT(stats.rows_run_skipped, 0u);
  ExpectCompressedMatches(t, "seg >= 1 AND seg < 3");
  ExpectCompressedMatches(t, "seg = 1 OR flag");
  ExpectCompressedMatches(t, "NOT (seg = 1) AND flag");
}

TEST(CompressedScanTest, DeclinesShapesOutsideTheConservativeClass) {
  BlockRowsGuard guard(4);
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false},
              Field{"s", DataType::kString, false}}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int64(i), Value::String(i % 2 ? "a" : "b")})
            .ok());
  }
  EnsureBlockIndex(t);
  ScanStats stats;
  // Arithmetic over a column, string comparisons and string columns all
  // decline — the decode path keeps its error/evaluation behavior.
  EXPECT_FALSE(
      CompressedFilterRows(*ParsePred("ia + 1 > 3"), *t, &stats).has_value());
  EXPECT_FALSE(
      CompressedFilterRows(*ParsePred("s = 'a'"), *t, &stats).has_value());
  EXPECT_FALSE(
      CompressedFilterRows(*ParsePred("s = 3"), *t, &stats).has_value());
}

TEST(CompressedScanTest, DeclinesWithoutARegisteredIndex) {
  BlockRowsGuard guard(4);
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  ScanStats stats;
  EXPECT_FALSE(
      CompressedFilterRows(*ParsePred("ia > 3"), *t, &stats).has_value());
  // After registration it engages; after mutation the index is stale and
  // it declines again until re-registered.
  EnsureBlockIndex(t);
  EXPECT_TRUE(
      CompressedFilterRows(*ParsePred("ia > 3"), *t, &stats).has_value());
  ASSERT_TRUE(t->AppendRow({Value::Int64(99)}).ok());
  EXPECT_FALSE(
      CompressedFilterRows(*ParsePred("ia > 3"), *t, &stats).has_value());
}

TEST(CompressedScanTest, NullLiteralComparisonSelectsNothing) {
  BlockRowsGuard guard(4);
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  const ScanStats stats = ExpectCompressedMatches(t, "ia = NULL");
  // Every block's result set is {NULL}: all pruned.
  EXPECT_EQ(stats.blocks_pruned, stats.blocks_total);
}

// --- Encoded global aggregation --------------------------------------------

std::vector<const Expr*> AggNodes(const SelectStatement& stmt) {
  std::vector<const Expr*> nodes;
  for (const SelectItem& item : stmt.select_list) {
    nodes.push_back(item.expr.get());
  }
  return nodes;
}

TEST(CompressedScanTest, EncodedAggregateMatchesRowSweep) {
  BlockRowsGuard guard(8);
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false},
              Field{"da", DataType::kDouble, true}}));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i / 10),
                              i % 7 == 0 ? Value::Null()
                                         : Value::Double(i)})
                    .ok());
  }
  cat.RegisterOrReplace("t", t);
  const std::string sql =
      "SELECT COUNT(*), COUNT(da), SUM(ia), AVG(da), MIN(da), MAX(ia) "
      "FROM t";
  SetGlobalScanEngine(ScanEngine::kCompressed);
  auto compressed = ExecuteQuery(cat, sql);
  SetGlobalScanEngine(ScanEngine::kDecode);
  auto decode = ExecuteQuery(cat, sql);
  SetGlobalScanEngine(ScanEngine::kCompressed);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  ASSERT_TRUE(decode.ok()) << decode.status().ToString();
  ASSERT_EQ(compressed->num_rows(), 1u);
  for (size_t c = 0; c < compressed->num_columns(); ++c) {
    EXPECT_EQ(compressed->GetValue(0, c).ToString(),
              decode->GetValue(0, c).ToString())
        << "column " << c;
  }
}

TEST(CompressedScanTest, EncodedAggregateGuardsAndDeclines) {
  BlockRowsGuard guard(8);
  auto fractional = MakeDoubleTable(
      {Value::Double(0.5), Value::Double(1.5), Value::Double(2.0)});
  auto nan_holding = MakeDoubleTable(
      {Value::Double(1.0), Value::Double(kNaN), Value::Double(2.0)});
  auto huge = MakeDoubleTable(
      {Value::Double(9.1e15), Value::Double(9.2e15)});  // > 2^53 magnitude
  EnsureBlockIndex(fractional);
  EnsureBlockIndex(nan_holding);
  EnsureBlockIndex(huge);

  auto stmt = ParseSelect("SELECT SUM(da) FROM t");
  ASSERT_TRUE(stmt.ok());
  const auto nodes = AggNodes(*stmt);
  // Non-integral values, NaN poisoning and magnitudes past 2^53 all fail
  // the exactness proof: SUM declines to the row sweep.
  EXPECT_FALSE(EncodedGlobalAggregate(*fractional, nodes).has_value());
  EXPECT_FALSE(EncodedGlobalAggregate(*nan_holding, nodes).has_value());
  EXPECT_FALSE(EncodedGlobalAggregate(*huge, nodes).has_value());

  // MIN/MAX/COUNT have no exactness requirement: all three tables fold.
  auto minmax = ParseSelect("SELECT MIN(da), MAX(da), COUNT(da) FROM t");
  ASSERT_TRUE(minmax.ok());
  const auto mm_nodes = AggNodes(*minmax);
  EXPECT_TRUE(EncodedGlobalAggregate(*fractional, mm_nodes).has_value());
  EXPECT_TRUE(EncodedGlobalAggregate(*nan_holding, mm_nodes).has_value());
  EXPECT_TRUE(EncodedGlobalAggregate(*huge, mm_nodes).has_value());

  // Order-sensitive Welford recurrences cannot be folded from zones.
  auto var = ParseSelect("SELECT VARIANCE(da) FROM t");
  ASSERT_TRUE(var.ok());
  EXPECT_FALSE(EncodedGlobalAggregate(*huge, AggNodes(*var)).has_value());
}

TEST(CompressedScanTest, EndToEndMatchesDecodeOnMixedQueries) {
  BlockRowsGuard guard(8);
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false},
              Field{"da", DataType::kDouble, true},
              Field{"ok", DataType::kBool, true}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t->AppendRow(
             {Value::Int64(i / 25),
              i % 11 == 0 ? Value::Null()
                          : Value::Double(i % 13 == 0 ? kNaN : i * 0.25),
              i % 17 == 0 ? Value::Null() : Value::Bool(i % 3 == 0)})
            .ok());
  }
  cat.RegisterOrReplace("t", t);
  const std::vector<std::string> queries = {
      "SELECT ia, da FROM t WHERE ia = 2",
      "SELECT ia FROM t WHERE da > 10.0 AND ia <= 2",
      "SELECT da FROM t WHERE da != 0.0 OR ok",
      "SELECT COUNT(*) FROM t WHERE NOT ok",
      "SELECT ia, COUNT(*) FROM t WHERE da >= 5.0 GROUP BY ia",
      "SELECT COUNT(*), SUM(ia), MIN(ia), MAX(ia) FROM t",
  };
  for (const std::string& sql : queries) {
    SetGlobalScanEngine(ScanEngine::kCompressed);
    auto compressed = ExecuteQuery(cat, sql);
    SetGlobalScanEngine(ScanEngine::kDecode);
    auto decode = ExecuteQuery(cat, sql);
    SetGlobalScanEngine(ScanEngine::kCompressed);
    ASSERT_TRUE(compressed.ok()) << sql << ": " << compressed.status().ToString();
    ASSERT_TRUE(decode.ok()) << sql << ": " << decode.status().ToString();
    ASSERT_EQ(compressed->num_rows(), decode->num_rows()) << sql;
    for (size_t r = 0; r < compressed->num_rows(); ++r) {
      for (size_t c = 0; c < compressed->num_columns(); ++c) {
        EXPECT_EQ(compressed->GetValue(r, c).ToString(),
                  decode->GetValue(r, c).ToString())
            << sql << " row " << r << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace laws
