#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "compress/block_store.h"
#include "query/compressed_scan.h"
#include "query/executor.h"
#include "query/expr_eval.h"
#include "query/parser.h"
#include "query/query_context.h"
#include "storage/catalog.h"

namespace laws {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::unique_ptr<Expr> ParsePred(const std::string& where) {
  auto stmt = ParseSelect("SELECT 1 FROM t WHERE " + where);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::move(stmt->where);
}

/// Indexes `table` at `block_rows`, runs `where` through the compressed
/// tier and asserts the selection is identical to FilterRows over every
/// row. Returns the stats for pruning assertions; fails the test if the
/// compressed tier declined.
ScanStats ExpectCompressedMatches(const TablePtr& table, size_t block_rows,
                                  const std::string& where) {
  EnsureBlockIndex(table, block_rows);
  auto pred = ParsePred(where);
  ScanStats stats;
  auto compressed = CompressedFilterRows(*pred, *table, &stats);
  EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
  EXPECT_TRUE(compressed.ok() && compressed->has_value())
      << where << " declined";
  auto reference = FilterRows(*pred, *table);
  EXPECT_TRUE(reference.ok()) << reference.status().ToString();
  if (compressed.ok() && compressed->has_value() && reference.ok()) {
    EXPECT_EQ(**compressed, *reference) << where;
  }
  return stats;
}

/// True when the compressed tier declines `where` over `table` (no
/// error, no selection).
bool Declines(const Table& table, const std::string& where) {
  ScanStats stats;
  auto compressed = CompressedFilterRows(*ParsePred(where), table, &stats);
  EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
  return compressed.ok() && !compressed->has_value();
}

/// Runs `sql` through the catalog, whose table `table` is indexed at
/// `block_rows`, and through an unindexed copy of the table (the decode
/// path); asserts the two results are identical cell for cell.
void ExpectTiersAgree(const Catalog& cat, const TablePtr& table,
                      size_t block_rows, const std::string& sql) {
  EnsureBlockIndex(table, block_rows);
  auto compressed = ExecuteQuery(cat, sql);
  const Table unindexed = *table;
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto decode = ExecuteSelectOnTable(unindexed, *stmt);
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

TablePtr MakeDoubleTable(const std::vector<Value>& values) {
  auto t = std::make_shared<Table>(
      Schema({Field{"da", DataType::kDouble, true}}));
  for (const Value& v : values) {
    EXPECT_TRUE(t->AppendRow({v}).ok());
  }
  return t;
}

TEST(CompressedScanTest, PrunesBlocksOutsideThePredicateRange) {
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  const ScanStats stats = ExpectCompressedMatches(t, 4, "ia >= 13");
  EXPECT_EQ(stats.blocks_total, 4u);
  // Blocks [0,4), [4,8), [8,12) prune; [12,16) is SOME (13..15 of 12..15).
  EXPECT_EQ(stats.blocks_pruned, 3u);
}

TEST(CompressedScanTest, PredicateExactlyAtBlockMinAndMax) {
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  // Block 0 holds 0..3, block 1 holds 4..7. Each predicate sits exactly
  // on a zone boundary; off-by-one pruning would drop the boundary row.
  ExpectCompressedMatches(t, 4, "ia = 3");   // block-0 max
  ExpectCompressedMatches(t, 4, "ia = 4");   // block-1 min
  ExpectCompressedMatches(t, 4, "ia >= 7");  // global max
  ExpectCompressedMatches(t, 4, "ia <= 0");  // global min
  ExpectCompressedMatches(t, 4, "ia > 3");
  ExpectCompressedMatches(t, 4, "ia < 4");
}

TEST(CompressedScanTest, AllNullBlocksNeverMatchButCountNulls) {
  auto t = MakeDoubleTable({Value::Null(), Value::Null(), Value::Null(),
                            Value::Null(), Value::Double(1.0),
                            Value::Double(2.0)});
  const ScanStats stats = ExpectCompressedMatches(t, 2, "da >= 0.0");
  // The two all-NULL blocks can only produce NULL: both prune.
  EXPECT_EQ(stats.blocks_total, 3u);
  EXPECT_GE(stats.blocks_pruned, 2u);
  // NOT over NULL stays NULL, so all-NULL blocks prune here too.
  ExpectCompressedMatches(t, 2, "NOT (da >= 0.0)");
}

TEST(CompressedScanTest, AllNaNBlocksFollowComparisonSemantics) {
  auto t = MakeDoubleTable({Value::Double(kNaN), Value::Double(kNaN),
                            Value::Double(1.0), Value::Double(2.0)});
  // NaN lands in the "greater" slot of the three-way compare: it
  // satisfies != / > / >= and fails = / < / <= (DESIGN.md §11).
  ExpectCompressedMatches(t, 2, "da > 100.0");
  ExpectCompressedMatches(t, 2, "da != 1.0");
  ExpectCompressedMatches(t, 2, "da = 1.0");
  const ScanStats stats = ExpectCompressedMatches(t, 2, "da < 0.5");
  // The all-NaN block can only produce FALSE for `<`: pruned.
  EXPECT_GE(stats.blocks_pruned, 1u);
}

TEST(CompressedScanTest, SignedZeroStraddlingBlockBoundary) {
  // -0.0 and +0.0 compare equal, so either sign is a valid zone
  // endpoint; block 0 is all -0.0, block 1 mixes signs.
  auto t = MakeDoubleTable({Value::Double(-0.0), Value::Double(-0.0),
                            Value::Double(0.0), Value::Double(-0.0),
                            Value::Double(1.0), Value::Double(2.0)});
  ExpectCompressedMatches(t, 2, "da = 0.0");
  ExpectCompressedMatches(t, 2, "da <= 0.0");
  ExpectCompressedMatches(t, 2, "da < 0.0");   // nothing: -0.0 < 0.0 is false
  ExpectCompressedMatches(t, 2, "da >= 0.0");
  ExpectCompressedMatches(t, 2, "da = -0.0");  // same as = 0.0
}

TEST(CompressedScanTest, EmptyTableYieldsEmptySelection) {
  auto t = MakeDoubleTable({});
  EnsureBlockIndex(t, 4);
  auto pred = ParsePred("da > 1.0");
  ScanStats stats;
  auto compressed = CompressedFilterRows(*pred, *t, &stats);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  ASSERT_TRUE(compressed->has_value());
  EXPECT_TRUE((*compressed)->empty());
  EXPECT_EQ(stats.blocks_total, 0u);
}

TEST(CompressedScanTest, ShortTailBlockIsCoveredExactly) {
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 10; ++i) {  // 4 + 4 + 2: tail block is short
    ASSERT_TRUE(t->AppendRow({Value::Int64(i % 3)}).ok());
  }
  const ScanStats stats = ExpectCompressedMatches(t, 4, "ia <= 2");
  EXPECT_EQ(stats.blocks_total, 3u);
  // Every value satisfies the predicate: whole-block takes, tail included.
  EXPECT_EQ(stats.blocks_taken, 3u);
}

TEST(CompressedScanTest, UndecidedBlocksRunOnTheVm) {
  auto t = std::make_shared<Table>(
      Schema({Field{"seg", DataType::kInt64, false},
              Field{"flag", DataType::kBool, true}}));
  for (int i = 0; i < 64; ++i) {
    // seg runs in strides of 4, flag (with NULL stretches) in strides of
    // 5: neither lines up with the 8-row blocks or with the other, so the
    // blocks the zone maps leave undecided mix values and NULLs, and the
    // VM's picks are merged with pruned and taken blocks.
    const int g = i / 5;
    ASSERT_TRUE(t->AppendRow({Value::Int64((i / 4) % 3),
                              g % 4 == 0 ? Value::Null()
                                         : Value::Bool(g % 2 == 0)})
                    .ok());
  }
  for (const char* where :
       {"seg = 2", "seg = 2 OR flag", "NOT (seg = 1) AND flag",
        "seg < 1 AND NOT flag"}) {
    const ScanStats stats = ExpectCompressedMatches(t, 8, where);
    EXPECT_GT(stats.blocks_pruned, 0u) << where;
    EXPECT_LT(stats.blocks_pruned + stats.blocks_taken, stats.blocks_total)
        << where << ": no block ran on the VM";
  }
  const ScanStats stats = ExpectCompressedMatches(t, 8, "seg >= 1 AND seg < 3");
  EXPECT_GT(stats.blocks_taken, 0u);
  EXPECT_LT(stats.blocks_taken, stats.blocks_total);
}

TEST(CompressedScanTest, DeclinesShapesOutsideTheConservativeClass) {
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false},
              Field{"s", DataType::kString, false}}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int64(i), Value::String(i % 2 ? "a" : "b")})
            .ok());
  }
  EnsureBlockIndex(t, 4);
  // Arithmetic over a column, string comparisons and string columns all
  // decline — the decode path keeps its error/evaluation behavior.
  EXPECT_TRUE(Declines(*t, "ia + 1 > 3"));
  EXPECT_TRUE(Declines(*t, "s = 'a'"));
  EXPECT_TRUE(Declines(*t, "s = 3"));
  // A predicate the zone maps cannot decide for any block declines too:
  // the VM over every row is then the whole scan.
  EXPECT_TRUE(Declines(*t, "ia = 1 OR ia = 5"));
}

TEST(CompressedScanTest, DeclinesWithoutARegisteredIndex) {
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  EXPECT_TRUE(Declines(*t, "ia > 3"));
  // After registration it engages; after mutation the index is stale and
  // it declines again until re-registered.
  EnsureBlockIndex(t, 4);
  EXPECT_FALSE(Declines(*t, "ia > 3"));
  ASSERT_TRUE(t->AppendRow({Value::Int64(99)}).ok());
  EXPECT_TRUE(Declines(*t, "ia > 3"));
}

TEST(CompressedScanTest, EnsureKeepsACurrentIndexWhateverItsBlockSize) {
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  const auto small = EnsureBlockIndex(t, 8);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(small->num_blocks, 4u);
  // The executor asks at the production size and is served the current
  // index; only a data change forces a rebuild, at the size asked for.
  EXPECT_EQ(EnsureBlockIndex(t), small);
  ASSERT_TRUE(t->AppendRow({Value::Int64(32)}).ok());
  const auto rebuilt = EnsureBlockIndex(t);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilt->block_rows, kDefaultBlockRows);
  EXPECT_EQ(rebuilt->num_blocks, 1u);
}

/// A LOFAR-shaped table: a prefix sorted by source, then a tail of
/// random sources, as after appends to an archive. A point read on
/// (source, wavelength) prunes the prefix blocks that cannot hold the
/// source and runs the rest on the VM.
TEST(CompressedScanTest, LofarShapedPointReadPrunesAndRunsTheRestOnTheVm) {
  constexpr int kSources = 100;
  constexpr int kPrefixRows = 20000;
  constexpr int kTailRows = 10000;
  const double kBands[] = {0.12, 0.15, 0.16, 0.18};
  auto t = std::make_shared<Table>(
      Schema({Field{"source", DataType::kInt64, false},
              Field{"wavelength", DataType::kDouble, false},
              Field{"intensity", DataType::kDouble, false}}));
  Rng rng(20150104);
  for (int i = 0; i < kPrefixRows + kTailRows; ++i) {
    const int64_t source = i < kPrefixRows
                               ? int64_t{i} * kSources / kPrefixRows
                               : rng.UniformInt(0, kSources - 1);
    ASSERT_TRUE(t->AppendRow({Value::Int64(source),
                              Value::Double(kBands[rng.UniformInt(0, 3)]),
                              Value::Double(rng.Uniform(0.0, 10.0))})
                    .ok());
  }
  EnsureBlockIndex(t);
  auto pred = ParsePred("source = 42 AND wavelength = 0.15");
  Counter* compiled = MetricsRegistry::Global().GetCounter("expr.compiled");
  const uint64_t compiled_before = compiled->value();
  ScanStats stats;
  std::string disassembly;
  auto compressed = CompressedFilterRows(*pred, *t, &stats, &disassembly);
  EXPECT_EQ(compiled->value(), compiled_before + 1);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  ASSERT_TRUE(compressed->has_value());
  auto reference = FilterRows(*pred, *t);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(**compressed, *reference);
  EXPECT_FALSE(reference->empty());
  EXPECT_GT(stats.blocks_pruned, 0u);
  EXPECT_LT(stats.blocks_pruned, stats.blocks_total);
  EXPECT_EQ(stats.blocks_taken, 0u);
  EXPECT_NE(disassembly.find("cmpeq.f64"), std::string::npos) << disassembly;
}

TEST(CompressedScanTest, PreCanceledQueryReturnsCanceledInsteadOfDeclining) {
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  EnsureBlockIndex(t, 4);
  auto pred = ParsePred("ia >= 13");
  QueryContext ctx{ResourceLimits{}};
  ctx.Cancel();
  ScanStats stats;
  const auto result =
      ctx.Run([&] { return CompressedFilterRows(*pred, *t, &stats); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCanceled);
}

TEST(CompressedScanTest, NullLiteralComparisonSelectsNothing) {
  auto t = std::make_shared<Table>(
      Schema({Field{"ia", DataType::kInt64, false}}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  const ScanStats stats = ExpectCompressedMatches(t, 4, "ia = NULL");
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
  Counter* encoded = MetricsRegistry::Global().GetCounter("scan.encoded_agg");
  const uint64_t encoded_before = encoded->value();
  ExpectTiersAgree(cat, t, 8,
                   "SELECT COUNT(*), COUNT(da), SUM(ia), AVG(da), MIN(da), "
                   "MAX(ia) FROM t");
  EXPECT_EQ(encoded->value(), encoded_before + 1);
}

TEST(CompressedScanTest, EncodedAggregateGuardsAndDeclines) {
  auto fractional = MakeDoubleTable(
      {Value::Double(0.5), Value::Double(1.5), Value::Double(2.0)});
  auto nan_holding = MakeDoubleTable(
      {Value::Double(1.0), Value::Double(kNaN), Value::Double(2.0)});
  auto huge = MakeDoubleTable(
      {Value::Double(9.1e15), Value::Double(9.2e15)});  // > 2^53 magnitude
  EnsureBlockIndex(fractional, 8);
  EnsureBlockIndex(nan_holding, 8);
  EnsureBlockIndex(huge, 8);

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
    ExpectTiersAgree(cat, t, 8, sql);
  }
}

}  // namespace
}  // namespace laws
