#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>

#include "query/parser.h"
#include "testing/aqp_audit.h"
#include "testing/differential.h"
#include "testing/learning_diff.h"
#include "testing/query_gen.h"
#include "testing/reference_oracle.h"
#include "testing/shrink.h"

namespace laws {
namespace testing {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

// The tentpole gate: a seeded sweep of generated queries, each executed by
// the vectorized engine (at 1 thread and at the default width) and by the
// row-at-a-time reference oracle, diffed for bit identity. Overridable for
// soaks: LAWS_FUZZ_QUERIES=100000 LAWS_FUZZ_SEED=7 ./differential_test
TEST(DifferentialTest, SweepAgreesWithOracle) {
  DiffOptions opts;
  opts.seed = EnvU64("LAWS_FUZZ_SEED", opts.seed);
  opts.num_queries =
      static_cast<size_t>(EnvU64("LAWS_FUZZ_QUERIES", opts.num_queries));

  const DiffReport report = RunDifferential(opts);
  EXPECT_EQ(report.parse_failures, 0u) << report.Summary();
  EXPECT_TRUE(report.mismatches.empty()) << report.Summary();
  // The generator aims most queries at valid SQL; if almost everything
  // errors out, coverage has silently collapsed.
  EXPECT_GT(report.agree_rows, report.queries * 2 / 5) << report.Summary();
}

// The robustness gate: the same generated queries run under randomly
// drawn governor regimes (cancel, deadline, budget, injected faults) and
// must either finish bit-identical to the ungoverned reference or stop
// with a clean typed governor error — never wrong rows, never a crash.
// Overridable for the 10k acceptance soak (see tools/check_governor.sh):
// LAWS_CHAOS_QUERIES=10000 LAWS_CHAOS_SEED=7 ./differential_test
TEST(DifferentialTest, GovernorChaosSweepHoldsInvariant) {
  ChaosOptions opts;
  opts.seed = EnvU64("LAWS_CHAOS_SEED", opts.seed);
  opts.num_queries =
      static_cast<size_t>(EnvU64("LAWS_CHAOS_QUERIES", opts.num_queries));

  const ChaosReport report = RunGovernorChaos(opts);
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  // All three legitimate outcomes must actually occur, or the regimes
  // have silently stopped biting.
  EXPECT_GT(report.governor_stopped, 0u) << report.Summary();
  EXPECT_GT(report.completed_identical, 0u) << report.Summary();
}

TEST(DifferentialTest, GeneratorIsDeterministic) {
  const GeneratedCase a = GenerateCase(99);
  const GeneratedCase b = GenerateCase(99);
  EXPECT_EQ(a.sql, b.sql);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_EQ(a.tables[i].ToString(), b.tables[i].ToString());
  }
  EXPECT_NE(a.sql, GenerateCase(100).sql);
}

TEST(DifferentialTest, TablesEquivalentComparesOrderAndMultiset) {
  Table a{Schema({Field{"x", DataType::kInt64, true}})};
  Table b{Schema({Field{"x", DataType::kInt64, true}})};
  ASSERT_TRUE(a.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(a.AppendRow({Value::Int64(2)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(2)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(1)}).ok());
  std::string why;
  EXPECT_TRUE(TablesEquivalent(a, b, /*order_sensitive=*/false, &why));
  EXPECT_FALSE(TablesEquivalent(a, b, /*order_sensitive=*/true, &why));
}

TEST(DifferentialTest, TablesEquivalentNaNClassAndSignedZero) {
  Table a{Schema({Field{"x", DataType::kDouble, true}})};
  Table b{Schema({Field{"x", DataType::kDouble, true}})};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(a.AppendRow({Value::Double(nan)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Double(-nan)}).ok());
  std::string why;
  // Every NaN is one equivalence class...
  EXPECT_TRUE(TablesEquivalent(a, b, /*order_sensitive=*/true, &why));
  // ...but -0.0 and +0.0 are distinct output values.
  ASSERT_TRUE(a.AppendRow({Value::Double(0.0)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Double(-0.0)}).ok());
  EXPECT_FALSE(TablesEquivalent(a, b, /*order_sensitive=*/true, &why));
}

TEST(DifferentialTest, ShrinkerReducesFailingCase) {
  // Shrink against a synthetic predicate ("query still references column
  // ia and table has a row with ia = 3") to exercise the minimizer
  // mechanics deterministically.
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"ia", DataType::kInt64, true},
               GenColumn{"da", DataType::kDouble, true}};
  for (int i = 0; i < 16; ++i) {
    t.rows.push_back({Value::Int64(i % 5), Value::Double(i * 0.5)});
  }
  std::vector<GenTable> tables = {std::move(t)};
  auto stmt = ParseSelect(
      "SELECT ia, da, ia + 1 FROM t0 WHERE da >= 0 ORDER BY da DESC, ia "
      "LIMIT 12");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto repro = [](const std::vector<GenTable>& tabs,
                  const SelectStatement& s) {
    bool has_three = false;
    for (const auto& row : tabs[0].rows) {
      has_three |= !row[0].is_null() && row[0].is_int64() &&
                   row[0].int64() == 3;
    }
    return has_three && s.ToString().find("ia") != std::string::npos;
  };
  ShrinkCase(&tables, &*stmt, repro, 400);

  EXPECT_TRUE(repro(tables, *stmt));
  // Rows collapse to a single witness; incidental clauses disappear.
  EXPECT_LE(tables[0].rows.size(), 2u);
  EXPECT_EQ(stmt->limit, -1);
  EXPECT_EQ(stmt->where, nullptr);
  EXPECT_TRUE(stmt->order_by.empty());
}

// The AQP side of the contract: model answers stay inside their reported
// prediction intervals; every fallback is bit-identical to the exact
// engine and explains itself.
TEST(DifferentialTest, AqpErrorBoundAudit) {
  auto report = RunAqpAudit(EnvU64("LAWS_FUZZ_SEED", 0x5EED), 60);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->violations.empty()) << report->Summary();
  EXPECT_GT(report->approximate, 0u) << report->Summary();
  EXPECT_GT(report->exact_fallbacks, 0u) << report->Summary();
}

// The learning leg: the same fuzz generator with harvesting enabled.
// Exact answers must stay bit-identical to the learning-off reference
// (learning is a by-product, never a perturbation), every merged
// sufficient statistic must re-derive by batch OLS over the rows it
// claims, and the repeated-workload phase must promote models whose
// approximate answers pass the interval audit with bounds that only
// tighten. Overridable for the acceptance soak (tools/check_learning.sh):
// LAWS_LEARN_FUZZ_QUERIES=30000 LAWS_LEARN_FUZZ_SEED=7 ./differential_test
TEST(DifferentialTest, LearningSweepMatchesReference) {
  LearnDiffOptions opts;
  opts.seed = EnvU64("LAWS_LEARN_FUZZ_SEED", opts.seed);
  opts.num_queries = static_cast<size_t>(
      EnvU64("LAWS_LEARN_FUZZ_QUERIES", opts.num_queries));

  const LearnDiffReport report = RunLearningDifferential(opts);
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_EQ(report.parse_failures, 0u) << report.Summary();
  // Coverage sanity: the sweep must actually exercise both halves of the
  // contract — bit-identical exact answers and audited model answers.
  EXPECT_GT(report.exact_matches, opts.num_queries * 2 / 5)
      << report.Summary();
  EXPECT_GT(report.audited, 0u) << report.Summary();
  EXPECT_GT(report.model_hits, 0u) << report.Summary();
  EXPECT_GT(report.promotions, 0u) << report.Summary();
  EXPECT_GT(report.self_checks, 0u) << report.Summary();
  EXPECT_GT(report.harvested_rows, 0u) << report.Summary();
}

/// Three rows, two of them tied on g, under ORDER BY g DESC LIMIT 1: the
/// top-k path must keep the earlier tied row.
GenTable TopKTieCase() {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"g", DataType::kInt64, false},
               GenColumn{"v", DataType::kInt64, false}};
  t.rows = {{Value::Int64(1), Value::Int64(10)},
            {Value::Int64(1), Value::Int64(20)},
            {Value::Int64(0), Value::Int64(30)}};
  return t;
}

SelectStatement TopKTieStatement() {
  Result<SelectStatement> stmt =
      ParseSelect("SELECT g, v FROM t0 ORDER BY g DESC LIMIT 1");
  return std::move(*stmt);
}

/// -0.0 then 0.0 twice under SELECT DISTINCT: one grouping class whose
/// first row, -0.0, must be the one kept.
GenTable SignedZeroCase() {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"d", DataType::kDouble, false}};
  t.rows = {{Value::Double(-0.0)}, {Value::Double(0.0)}, {Value::Double(0.0)}};
  return t;
}

SelectStatement DistinctStatement() {
  Result<SelectStatement> stmt = ParseSelect("SELECT DISTINCT d FROM t0");
  return std::move(*stmt);
}

/// 50,000 rows, four of FilterRows' 16,384-row morsels, under a WHERE the
/// zone maps decline, so every leg sweeps every row on the VM. The
/// generated sweep's tables stay within one morsel.
GenTable MorselCase() {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"ia", DataType::kInt64, false}};
  for (int64_t i = 0; i < 50000; ++i) t.rows.push_back({Value::Int64(i)});
  return t;
}

SelectStatement MorselStatement() {
  Result<SelectStatement> stmt =
      ParseSelect("SELECT ia FROM t0 WHERE ia % 3 = 0");
  return std::move(*stmt);
}

/// 200,000 rows whose ORDER BY key g is 0 at rows 0 and 100,000 and
/// distinct elsewhere. At two or more lanes the lane top-k cuts the rows
/// into chunks of at least 65,536, so the two tied rows lead different
/// chunks and only the caller's merge compares them; within a chunk no
/// two rows near the top tie. ORDER BY g LIMIT 2 keeps both, row 0 first.
GenTable LaneTopKTieCase() {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"g", DataType::kInt64, false},
               GenColumn{"v", DataType::kInt64, false}};
  for (int64_t r = 0; r < 200000; ++r) {
    const int64_t g = r % 100000 == 0 ? 0 : r + 1;
    t.rows.push_back({Value::Int64(g), Value::Int64(r)});
  }
  return t;
}

SelectStatement LaneTopKTieStatement() {
  Result<SelectStatement> stmt =
      ParseSelect("SELECT g, v FROM t0 ORDER BY g LIMIT 2");
  return std::move(*stmt);
}

/// Runs the differential legs with a default pool of four lanes (the
/// bytecode@N and compressed@N legs), whatever the machine's core count.
CaseDiff DiffCaseAtFourLanes(const GenTable& table,
                             const SelectStatement& stmt) {
  const char* saved = std::getenv("LAWS_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  setenv("LAWS_THREADS", "4", 1);
  const CaseDiff diff = DiffCase({table}, stmt);
  if (saved != nullptr) {
    setenv("LAWS_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("LAWS_THREADS");
  }
  return diff;
}

#ifdef LAWS_TESTING_INJECT_BUG
// Self-test of the harness: with the planted hash-aggregate off-by-one
// (the numeric sweep drops the last input row), this exact case must be
// flagged. If this test FAILS under -DLAWS_TESTING_INJECT_BUG=ON, the
// harness has lost its teeth.
TEST(DifferentialTest, MutationSmokeCatchesInjectedBug) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"g", DataType::kInt64, false},
               GenColumn{"v", DataType::kInt64, false}};
  t.rows = {{Value::Int64(1), Value::Int64(1)},
            {Value::Int64(1), Value::Int64(2)},
            {Value::Int64(2), Value::Int64(5)}};
  auto stmt = ParseSelect("SELECT g, SUM(v) FROM t0 GROUP BY g");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_FALSE(diff.reason.empty())
      << "injected aggregate bug was not detected";
  // Under a WHERE the input is the selection, so the sweep drops the last
  // selected row (v = 2), not the table's last row, which it never reads.
  auto where = ParseSelect("SELECT SUM(v) FROM t0 WHERE v < 5");
  ASSERT_TRUE(where.ok());
  EXPECT_FALSE(DiffCase({t}, *where).reason.empty())
      << "injected aggregate bug was not detected under a selection";
}

// The expression VM carries its own planted mutant (the compiled f64
// adder drops the last lane of every batch). Every tier runs the same VM,
// so the tier legs agree with each other; the oracle leg catches it —
// proving the one expression engine is under differential test.
TEST(DifferentialTest, MutationSmokeCatchesInjectedBytecodeBug) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"da", DataType::kDouble, false}};
  t.rows = {{Value::Double(1.5)}, {Value::Double(2.5)}, {Value::Double(4.0)}};
  auto stmt = ParseSelect("SELECT da + 100.25 FROM t0");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_FALSE(diff.reason.empty())
      << "injected bytecode adder bug was not detected";
}

// The compressed scan tier's planted mutant shrinks every zone-map max by
// one ulp, so a predicate sitting exactly on a block maximum wrongly
// prunes that block. 17 sorted rows span three 8-row blocks under the
// harness block size; `ia >= 17` must keep exactly the last block, which
// the mutant discards — only the compressed-vs-decode legs of the matrix
// can see it.
TEST(DifferentialTest, MutationSmokeCatchesInjectedZoneMapBug) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"ia", DataType::kInt64, false}};
  for (int i = 1; i <= 17; ++i) t.rows.push_back({Value::Int64(i)});
  auto stmt = ParseSelect("SELECT ia FROM t0 WHERE ia >= 17");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_FALSE(diff.reason.empty())
      << "injected zone-map pruning bug was not detected";
}

// The top-k sort's planted mutant inverts the row-id tie-break, so of two
// rows tied on every ORDER BY key the later one survives the LIMIT. The
// oracle sorts everything stably and then truncates, so it keeps row 0.
TEST(DifferentialTest, MutationSmokeCatchesInjectedTopKBug) {
  const CaseDiff diff = DiffCase({TopKTieCase()}, TopKTieStatement());
  EXPECT_FALSE(diff.reason.empty())
      << "injected top-k tie-break bug was not detected";
}

// The grouping's planted mutant fills each morsel's share of a partition
// back to front, so a group's first row is its last. DISTINCT then keeps
// the final 0.0 instead of the leading -0.0, which the oracle keeps; no
// aggregate sweep runs, so only this mutant can cause the divergence.
TEST(DifferentialTest, MutationSmokeCatchesInjectedGroupingBug) {
  const CaseDiff diff = DiffCase({SignedZeroCase()}, DistinctStatement());
  EXPECT_FALSE(diff.reason.empty())
      << "injected grouping row-order bug was not detected";
}

// The filter's planted mutant drops the first selected row of every
// morsel after the first when it compacts the slices. Morsel bounds do
// not depend on the lane count, so every tier drops the same rows and
// only the oracle leg sees the divergence.
TEST(DifferentialTest, MutationSmokeCatchesInjectedMorselBug) {
  const CaseDiff diff = DiffCase({MorselCase()}, MorselStatement());
  EXPECT_FALSE(diff.reason.empty())
      << "injected morsel compaction bug was not detected";
}

// The lane top-k's planted mutant breaks the caller's merge: of two
// candidates tied on every key, the later chunk's wins. The two tied rows
// lead different chunks at four lanes, so bytecode@N puts row 100,000
// before row 0 while bytecode@1, whose one chunk keeps both in row
// order, and the oracle agree.
TEST(DifferentialTest, MutationSmokeCatchesInjectedLaneTopKBug) {
  const CaseDiff diff =
      DiffCaseAtFourLanes(LaneTopKTieCase(), LaneTopKTieStatement());
  EXPECT_FALSE(diff.reason.empty())
      << "injected lane top-k merge bug was not detected";
}

// The parameter view's planted mutant hands group g the parameters of
// group g + 1 (the last group keeps its own), so the audit fixture's
// model answers read a neighbouring source's law. Exact answers never read
// the view, so only the AQP audit's bound check can see it; its healthy
// twin is AqpErrorBoundAudit. The other mutants break exact AVG and MAX
// answers too, so MIN is the witness: the smallest source is never the
// last selected row the aggregate mutant drops, and no audited band but
// the largest sits on a zone-map maximum, while the parameter mutant moves
// MIN to the second source's law.
TEST(DifferentialTest, MutationSmokeCatchesInjectedParameterBug) {
  auto report = RunAqpAudit(0x5EED, 60);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const bool min_bound_violated = std::any_of(
      report->violations.begin(), report->violations.end(),
      [](const std::string& v) {
        return v.rfind("bound violated for: SELECT MIN(", 0) == 0;
      });
  EXPECT_TRUE(min_bound_violated)
      << "injected parameter-view bug was not detected: "
      << report->Summary();
}

// The learning loop's planted mutant corrupts one merged sufficient
// statistic in IncrementalOls::Merge — the exact class of bug (a subtly
// wrong harvest accumulator) the learning leg exists to catch. Only the
// merged-vs-batch self-check can see it: query answers never flow through
// the accumulator, so the exact-answer legs stay green.
TEST(DifferentialTest, MutationSmokeCatchesInjectedHarvestBug) {
  const std::string mismatch = HarvestConsistencyProbe();
  EXPECT_FALSE(mismatch.empty())
      << "injected sufficient-statistic merge bug was not detected";
}
#else
// Same case in a healthy build: must agree (guards against the smoke test
// passing for the wrong reason).
TEST(DifferentialTest, MutationSmokeCaseAgreesWhenHealthy) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"g", DataType::kInt64, false},
               GenColumn{"v", DataType::kInt64, false}};
  t.rows = {{Value::Int64(1), Value::Int64(1)},
            {Value::Int64(1), Value::Int64(2)},
            {Value::Int64(2), Value::Int64(5)}};
  auto stmt = ParseSelect("SELECT g, SUM(v) FROM t0 GROUP BY g");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
  auto where = ParseSelect("SELECT SUM(v) FROM t0 WHERE v < 5");
  ASSERT_TRUE(where.ok());
  const CaseDiff where_diff = DiffCase({t}, *where);
  EXPECT_TRUE(where_diff.reason.empty()) << where_diff.reason;
}

TEST(DifferentialTest, BytecodeMutationSmokeCaseAgreesWhenHealthy) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"da", DataType::kDouble, false}};
  t.rows = {{Value::Double(1.5)}, {Value::Double(2.5)}, {Value::Double(4.0)}};
  auto stmt = ParseSelect("SELECT da + 100.25 FROM t0");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
}

TEST(DifferentialTest, ZoneMapMutationSmokeCaseAgreesWhenHealthy) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"ia", DataType::kInt64, false}};
  for (int i = 1; i <= 17; ++i) t.rows.push_back({Value::Int64(i)});
  auto stmt = ParseSelect("SELECT ia FROM t0 WHERE ia >= 17");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
}

TEST(DifferentialTest, TopKMutationSmokeCaseAgreesWhenHealthy) {
  const CaseDiff diff = DiffCase({TopKTieCase()}, TopKTieStatement());
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
}

TEST(DifferentialTest, GroupingMutationSmokeCaseAgreesWhenHealthy) {
  const CaseDiff diff = DiffCase({SignedZeroCase()}, DistinctStatement());
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
}

TEST(DifferentialTest, MorselMutationSmokeCaseAgreesWhenHealthy) {
  const CaseDiff diff = DiffCase({MorselCase()}, MorselStatement());
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
}

TEST(DifferentialTest, LaneTopKMutationSmokeCaseAgreesWhenHealthy) {
  const CaseDiff diff =
      DiffCaseAtFourLanes(LaneTopKTieCase(), LaneTopKTieStatement());
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
}

// Healthy build: merged statistics and batch OLS agree on the probe
// (guards against the harvest smoke test passing for the wrong reason).
TEST(DifferentialTest, HarvestProbeAgreesWhenHealthy) {
  EXPECT_EQ(HarvestConsistencyProbe(), "");
}
#endif

}  // namespace
}  // namespace testing
}  // namespace laws
