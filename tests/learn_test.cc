#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aqp/domain.h"
#include "aqp/hybrid.h"
#include "aqp/model_aqp.h"
#include "common/governor.h"
#include "common/metrics.h"
#include "common/random.h"
#include "learn/learner.h"
#include "learn/loop.h"
#include "model/fit.h"
#include "model/model.h"
#include "query/parser.h"
#include "serve/server.h"
#include "storage/catalog.h"

namespace laws {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// Deterministic jitter (no RNG): bounded, mean-free, varied.
double Jitter(size_t i, double amplitude) {
  return amplitude * std::sin(static_cast<double>(i) * 1.7 + 0.3);
}

TablePtr MakeXY() {
  return std::make_shared<Table>(
      Schema({Field{"x", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
}

Status AppendLinear(const TablePtr& t, size_t first, size_t count,
                    double intercept, double slope, double noise) {
  for (size_t i = first; i < first + count; ++i) {
    const double x = static_cast<double>(i + 1);
    const double y = intercept + slope * x + Jitter(i, noise);
    LAWS_RETURN_IF_ERROR(t->AppendRow({Value::Double(x), Value::Double(y)}));
  }
  return Status::OK();
}

/// Runs one harvesting scan: the statement references both columns, so
/// the learner tracks both (x, y) orderings across all three families.
void Scan(Learner* learner, const Catalog& data, const ModelCatalog& models) {
  auto stmt = ParseSelect("SELECT x, y FROM t WHERE x >= 0");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  learner->OnExactScan(*stmt, data, models);
}

LearnerOptions EnabledOptions() {
  LearnerOptions o;
  o.enabled = true;
  return o;
}

TEST(LearnerOptionsTest, FromEnvParsesKnobs) {
  ::setenv("LAWS_LEARNING", "1", 1);
  const LearnerOptions o = LearnerOptions::FromEnv();
  EXPECT_TRUE(o.enabled);
  EXPECT_EQ(o.max_rows_per_scan, 4096u);
  ::unsetenv("LAWS_LEARNING");

  const LearnerOptions d = LearnerOptions::FromEnv();
  EXPECT_FALSE(d.enabled);
  EXPECT_EQ(d.max_rows_per_scan, 4096u);
}

TEST(LearnerTest, DisabledLearnerIsInert) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.0).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  LearnerOptions off;
  off.enabled = false;
  Learner learner(off);
  Scan(&learner, data, models);
  EXPECT_EQ(learner.num_candidates(), 0u);
  EXPECT_FALSE(learner.HasPendingWork());
  EXPECT_FALSE(learner.RejectModel(1, nullptr));
  EXPECT_NE(learner.StatusString().find("learning: off"), std::string::npos);
}

TEST(LearnerTest, RepeatedScansHarvestNothingTwice) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.0).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  Learner learner(EnabledOptions());
  Scan(&learner, data, models);
  // Two numeric columns -> both orderings x three candidate families.
  EXPECT_EQ(learner.num_candidates(), 6u);
  EXPECT_EQ(learner.VerifyCandidatesAgainstBatch(data, 1e-6), "");

  // The same scan again over unchanged data: the row-range reservation
  // makes it a no-op, so repeated queries cannot double-count rows.
  const uint64_t rows_before = CounterValue("learn.harvest.rows");
  Scan(&learner, data, models);
  EXPECT_EQ(CounterValue("learn.harvest.rows"), rows_before);
  EXPECT_EQ(learner.VerifyCandidatesAgainstBatch(data, 1e-6), "");
}

// Column names are case-insensitive, so a statement that spells one
// column two ways references one column: it pairs nothing, and no model
// fits a column against itself.
TEST(LearnerTest, MixedCaseSpellingsOfOneColumnPairNothing) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.05).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  Learner learner(EnabledOptions());
  auto stmt = ParseSelect("SELECT AVG(Y) FROM t WHERE y > 0");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  learner.OnExactScan(*stmt, data, models);
  EXPECT_EQ(learner.num_candidates(), 0u);
  EXPECT_EQ(learner.Apply(data, &models).promoted, 0u);
  EXPECT_EQ(models.size(), 0u);
}

TEST(LearnerTest, IngestedRowsHarvestIncrementally) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.0).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  Learner learner(EnabledOptions());
  Scan(&learner, data, models);

  ASSERT_TRUE(AppendLinear(t, 64, 32, 3.0, 2.0, 0.0).ok());
  const uint64_t rows_before = CounterValue("learn.harvest.rows");
  Scan(&learner, data, models);
  // Only the 32 fresh rows fold in, once per candidate accumulator.
  EXPECT_EQ(CounterValue("learn.harvest.rows") - rows_before,
            32u * learner.num_candidates());
  EXPECT_EQ(learner.VerifyCandidatesAgainstBatch(data, 1e-6), "");
}

TEST(LearnerTest, TableReplacementResetsCandidates) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.0).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  Learner learner(EnabledOptions());
  Scan(&learner, data, models);

  // Replace the table wholesale with a shorter one: version/size go
  // backwards, so accumulators restart instead of blending populations.
  TablePtr fresh = MakeXY();
  ASSERT_TRUE(AppendLinear(fresh, 0, 16, -1.0, 0.5, 0.0).ok());
  data.RegisterOrReplace("t", fresh);
  const uint64_t resets_before = CounterValue("learn.candidates.reset");
  Scan(&learner, data, models);
  EXPECT_GT(CounterValue("learn.candidates.reset"), resets_before);
  EXPECT_EQ(learner.VerifyCandidatesAgainstBatch(data, 1e-6), "");
}

TEST(LearnerTest, ApplyPromotesBestFamilyPerPair) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.05).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  Learner learner(EnabledOptions());
  Scan(&learner, data, models);
  ASSERT_TRUE(learner.HasPendingWork());

  const LearnTickReport report = learner.Apply(data, &models);
  EXPECT_GE(report.promoted, 1u);
  EXPECT_TRUE(report.did_work());

  bool found = false;
  for (const CapturedModel* m : models.ModelsForTable("t")) {
    if (m->input_columns.size() == 1 && m->input_columns[0] == "x" &&
        m->output_column == "y") {
      found = true;
      EXPECT_GT(m->quality.adjusted_r_squared, 0.99);
      EXPECT_EQ(m->rows_fitted, 64u);
      EXPECT_FALSE(ModelCatalog::IsStale(*m, t->data_version()));
    }
  }
  EXPECT_TRUE(found) << "no harvested model covers (t, x -> y)";

  // Nothing new: a second pass must be a no-op (no epoch churn upstream).
  EXPECT_FALSE(learner.HasPendingWork());
  EXPECT_FALSE(learner.Apply(data, &models).did_work());
}

// A pair's families fold the same rows, so the learner picks among them
// by BIC, as the advisor ranks. On this seed poly(2)'s extra parameter
// lifts its adjusted R² above linear(1)'s on linear data; BIC's log(n)
// penalty does not pay for it.
TEST(LearnerTest, LinearDataPromotesLinearOverNestedPoly) {
  Catalog data;
  TablePtr t = MakeXY();
  Rng rng(1);
  Matrix x(200, 1);
  Vector y(200);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.Uniform(1.0, 10.0);
    y[i] = 2.0 + 0.7 * x(i, 0) + rng.Normal(0, 0.3);
    ASSERT_TRUE(
        t->AppendRow({Value::Double(x(i, 0)), Value::Double(y[i])}).ok());
  }
  data.RegisterOrReplace("t", t);
  FitOptions ols;
  ols.algorithm = FitAlgorithm::kOls;
  auto linear = FitModel(**ModelFromSource("linear(1)"), x, y, ols);
  auto poly = FitModel(**ModelFromSource("poly(2)"), x, y, ols);
  ASSERT_TRUE(linear.ok() && poly.ok());
  ASSERT_GT(poly->quality.adjusted_r_squared,
            linear->quality.adjusted_r_squared);
  ASSERT_TRUE(BetterFit(linear->quality, poly->quality));

  ModelCatalog models;
  Learner learner(EnabledOptions());
  Scan(&learner, data, models);
  ASSERT_GE(learner.Apply(data, &models).promoted, 1u);
  std::string promoted;
  for (const CapturedModel* m : models.ModelsForTable("t")) {
    if (m->input_columns[0] == "x" && m->output_column == "y") {
      promoted = m->model_source;
    }
  }
  EXPECT_EQ(promoted, "linear(1)");
}

// The law, not the family's name, decides which rows it covers: log_law
// refuses x <= 0 (IncrementalOls::Add fails, as Session::Fit fails on the
// same table), so its candidate is never promoted on a table with 40 rows
// at x = -1, and those rows are answered exactly. The refusal stops only
// that candidate: the scan's other families fold every row, and no
// governor abort is counted.
TEST(LearnerTest, LawRefusesRowsOutsideItsDomain) {
  Catalog data;
  TablePtr t = MakeXY();
  Rng rng(7);
  for (size_t i = 0; i < 2000; ++i) {
    if (i % 50 == 49) {
      ASSERT_TRUE(t->AppendRow({Value::Double(-1.0), Value::Double(3.0)}).ok());
      continue;
    }
    const double x = std::exp(rng.Uniform(std::log(0.01), std::log(100.0)));
    ASSERT_TRUE(t->AppendRow({Value::Double(x),
                              Value::Double(5.0 + 2.0 * std::log(x) +
                                            rng.Normal(0, 0.1))})
                    .ok());
  }
  data.RegisterOrReplace("t", t);
  ModelCatalog models;
  Session session(&data, &models);
  FitRequest fit;
  fit.table = "t";
  fit.model_source = "log_law";
  fit.input_columns = {"x"};
  fit.output_column = "y";
  EXPECT_FALSE(session.Fit(fit).ok());

  Learner learner(EnabledOptions());
  const uint64_t rows_before = CounterValue("learn.harvest.rows");
  const uint64_t aborted_before = CounterValue("learn.harvest.aborted");
  Scan(&learner, data, models);
  // linear(1) and poly(2) in both directions; log_law refuses a row in
  // both (y runs below 0 too).
  EXPECT_EQ(CounterValue("learn.harvest.rows") - rows_before, 4u * 2000u);
  EXPECT_EQ(CounterValue("learn.harvest.aborted"), aborted_before);
  EXPECT_EQ(learner.VerifyCandidatesAgainstBatch(data, 1e-6), "");
  learner.Apply(data, &models);
  for (const CapturedModel* m : models.ModelsForTable("t")) {
    EXPECT_NE(m->model_source, "log_law") << m->Summary();
  }

  DomainRegistry domains;
  ModelQueryEngine aqp(&data, &models, &domains);
  const HybridQueryEngine hybrid(&data, &aqp);
  auto at_minus_one = hybrid.Execute("SELECT AVG(y) FROM t WHERE x = -1");
  ASSERT_TRUE(at_minus_one.ok()) << at_minus_one.status().ToString();
  EXPECT_EQ(at_minus_one->method, "exact");
  EXPECT_FALSE(at_minus_one->approximate);
  EXPECT_EQ(at_minus_one->table.GetValue(0, 0), Value::Double(3.0));
  auto at_zero = hybrid.Execute("SELECT AVG(y) FROM t WHERE x = 0");
  ASSERT_TRUE(at_zero.ok()) << at_zero.status().ToString();
  EXPECT_FALSE(at_zero->approximate);
  EXPECT_TRUE(at_zero->table.GetValue(0, 0).is_null());
}

// A partial model answers only inside its subset, so however well it fits
// it must not stop the learner from promoting a full-table model over the
// same columns.
TEST(LearnerTest, PartialModelDoesNotBlockPromotion) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.05).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;
  CapturedModel partial;
  partial.table_name = "t";
  partial.input_columns = {"x"};
  partial.output_column = "y";
  partial.subset_predicate = "x > 32";
  partial.model_source = "linear(1)";
  partial.parameters = {3.0, 2.0};
  partial.quality.r_squared = 1.0;
  partial.quality.adjusted_r_squared = 1.0;
  partial.fitted_data_version = t->data_version();
  const uint64_t partial_id = models.Store(partial);

  Learner learner(EnabledOptions());
  Scan(&learner, data, models);
  learner.Apply(data, &models);
  bool promoted = false;
  for (const CapturedModel* m : models.ModelsForTable("t")) {
    promoted = promoted ||
               (m->id != partial_id && m->subset_predicate.empty() &&
                m->input_columns == std::vector<std::string>{"x"} &&
                m->output_column == "y");
  }
  EXPECT_TRUE(promoted) << "the partial model blocked (t, x -> y)";
}

TEST(LearnerTest, RefineTightensIntervalAndKeepsId) {
  Catalog data;
  TablePtr t = MakeXY();
  // Noisy first batch, clean ingest: the pooled interval strictly
  // tightens, so the refine gate must accept deterministically.
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.1).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  Learner learner(EnabledOptions());
  Scan(&learner, data, models);
  ASSERT_GE(learner.Apply(data, &models).promoted, 1u);

  uint64_t id = 0;
  std::string source;
  double old_rse = 0.0;
  size_t old_n = 0;
  for (const CapturedModel* m : models.ModelsForTable("t")) {
    if (m->input_columns[0] == "x" && m->output_column == "y") {
      id = m->id;
      source = m->model_source;
      old_rse = m->quality.residual_standard_error;
      old_n = m->quality.n_observations;
    }
  }
  ASSERT_NE(id, 0u);
  ASSERT_GT(old_rse, 0.0);

  ASSERT_TRUE(AppendLinear(t, 64, 96, 3.0, 2.0, 0.0).ok());
  Scan(&learner, data, models);
  const LearnTickReport report = learner.Apply(data, &models);
  EXPECT_GE(report.refined, 1u);

  auto refreshed = models.Get(id);
  ASSERT_TRUE(refreshed.ok()) << "refinement must keep the id stable";
  EXPECT_EQ((*refreshed)->model_source, source);
  EXPECT_LT((*refreshed)->quality.residual_standard_error, old_rse);
  EXPECT_GT((*refreshed)->quality.n_observations, old_n);
  EXPECT_EQ((*refreshed)->rows_fitted, t->num_rows());
  EXPECT_FALSE(ModelCatalog::IsStale(**refreshed, t->data_version()))
      << "refinement must re-freshen the model";
}

TEST(LearnerTest, RefineRejectedWhenIntervalWouldWiden) {
  Catalog data;
  TablePtr t = MakeXY();
  // Clean first batch, noisy ingest: re-solving would widen the served
  // interval, so the published fit must stay exactly as it was.
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.0).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  Learner learner(EnabledOptions());
  Scan(&learner, data, models);
  ASSERT_GE(learner.Apply(data, &models).promoted, 1u);

  uint64_t id = 0;
  Vector before_params;
  for (const CapturedModel* m : models.ModelsForTable("t")) {
    if (m->input_columns[0] == "x" && m->output_column == "y") {
      id = m->id;
      before_params = m->parameters;
    }
  }
  ASSERT_NE(id, 0u);
  ASSERT_FALSE(before_params.empty());

  ASSERT_TRUE(AppendLinear(t, 64, 96, 3.0, 2.0, 0.5).ok());
  Scan(&learner, data, models);
  const LearnTickReport report = learner.Apply(data, &models);
  EXPECT_GE(report.refine_rejected, 1u);

  auto kept = models.Get(id);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ((*kept)->parameters, before_params)
      << "a rejected refine must not touch the published fit";
}

TEST(LearnerTest, DriftFlagsRejectsAndRefits) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.05).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  Learner learner(EnabledOptions());
  Scan(&learner, data, models);
  ASSERT_GE(learner.Apply(data, &models).promoted, 1u);

  uint64_t model_id = 0;
  for (const CapturedModel* m : models.ModelsForTable("t")) {
    if (m->input_columns[0] == "x" && m->output_column == "y") {
      model_id = m->id;
    }
  }
  ASSERT_NE(model_id, 0u);
  EXPECT_FALSE(learner.RejectModel(model_id, nullptr));

  // The law changes: fresh rows sit 5 units above the fitted line. The
  // next scan's residual tests must flag the model.
  ASSERT_TRUE(AppendLinear(t, 64, 40, 8.0, 2.0, 0.01).ok());
  const uint64_t detected_before = CounterValue("learn.drift.detected");
  Scan(&learner, data, models);
  EXPECT_GT(CounterValue("learn.drift.detected"), detected_before);
  EXPECT_GE(learner.num_drifted(), 1u);

  std::string why;
  EXPECT_TRUE(learner.RejectModel(model_id, &why));
  EXPECT_NE(why.find("drift-flagged"), std::string::npos) << why;

  // One maintenance pass refits the model from the current table — same
  // id, fresh version, flag cleared.
  const LearnTickReport report = learner.Apply(data, &models);
  EXPECT_GE(report.refits, 1u);
  EXPECT_EQ(learner.num_drifted(), 0u);
  EXPECT_FALSE(learner.RejectModel(model_id, nullptr));
  auto refreshed = models.Get(model_id);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_FALSE(ModelCatalog::IsStale(**refreshed, t->data_version()));
}

TEST(LearnerTest, HybridArbitrationRejectsDriftFlaggedModel) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.05).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;
  DomainRegistry domains;

  Learner learner(EnabledOptions());
  Scan(&learner, data, models);
  ASSERT_GE(learner.Apply(data, &models).promoted, 1u);
  uint64_t model_id = 0;
  for (const CapturedModel* m : models.ModelsForTable("t")) {
    if (m->input_columns[0] == "x" && m->output_column == "y") {
      model_id = m->id;
    }
  }
  ASSERT_NE(model_id, 0u);

  // Drift: the law shifts, the next scan flags the model.
  ASSERT_TRUE(AppendLinear(t, 64, 40, 8.0, 2.0, 0.01).ok());
  Scan(&learner, data, models);
  ASSERT_GE(learner.num_drifted(), 1u);

  // An external refresh (Session::Refit / RefitStale) re-freshens the
  // model without consulting the learner. The drift flag must still
  // reject it at arbitration — a freshened version stamp is not evidence
  // that the law holds again.
  auto current = models.Get(model_id);
  ASSERT_TRUE(current.ok());
  CapturedModel freshened = **current;
  freshened.fitted_data_version = t->data_version();
  ASSERT_TRUE(models.Remove(model_id).ok());
  ASSERT_TRUE(models.RestoreWithId(std::move(freshened)).ok());

  ModelQueryEngine aqp(&data, &models, &domains);
  HybridOptions hopts;
  hopts.learner = &learner;
  const HybridQueryEngine hybrid(&data, &aqp, hopts);

  const uint64_t rejects_before = CounterValue("aqp.hybrid.fallback.drift");
  auto answer = hybrid.Execute("SELECT AVG(y) FROM t WHERE x = 10");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->method, "exact");
  EXPECT_FALSE(answer->approximate);
  EXPECT_NE(answer->fallback_reason.find("drift-flagged"), std::string::npos)
      << answer->fallback_reason;
  EXPECT_EQ(CounterValue("aqp.hybrid.fallback.drift"), rejects_before + 1);

  // After the refit tick, the model serves again.
  ASSERT_GE(learner.Apply(data, &models).refits, 1u);
  answer = hybrid.Execute("SELECT AVG(y) FROM t WHERE x = 10");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->approximate) << answer->fallback_reason;
}

TEST(LearnerTest, EvictionKeepsHotModelUnderCap) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.05).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  LearnerOptions o = EnabledOptions();
  o.max_models = 1;
  o.evict_min_opportunities = 2;
  Learner learner(o);
  Scan(&learner, data, models);
  learner.Apply(data, &models);
  // Both column orderings promoted: over the cap, but eviction respects
  // the grace period until somebody has enough opportunities.
  ASSERT_EQ(models.size(), 2u);

  uint64_t hot = 0, cold = 0;
  for (const CapturedModel* m : models.ModelsForTable("t")) {
    if (m->input_columns[0] == "x") {
      hot = m->id;
    } else {
      cold = m->id;
    }
  }
  ASSERT_NE(hot, 0u);
  ASSERT_NE(cold, 0u);

  learner.OnDecision("t", hot, models);
  learner.OnDecision("t", hot, models);
  const LearnTickReport report = learner.Apply(data, &models);
  EXPECT_EQ(report.evicted, 1u);
  EXPECT_EQ(models.size(), 1u);
  EXPECT_TRUE(models.Get(hot).ok()) << "the hit model must survive";
  EXPECT_FALSE(models.Get(cold).ok());
}

TEST(LearnerTest, GovernorAbortTaintsInsteadOfLying) {
  Catalog data;
  TablePtr t = MakeXY();
  ASSERT_TRUE(AppendLinear(t, 0, 64, 3.0, 2.0, 0.0).ok());
  data.RegisterOrReplace("t", t);
  ModelCatalog models;

  Learner learner(EnabledOptions());
  const uint64_t aborted_before = CounterValue("learn.harvest.aborted");
  {
    QueryGovernor gov;
    gov.Cancel();
    ScopedGovernor install(&gov);
    Scan(&learner, data, models);
  }
  // The canceled governor stopped the harvest mid-scan; whatever was
  // reserved but not folded is tainted, never silently wrong.
  EXPECT_GT(CounterValue("learn.harvest.aborted"), aborted_before);
  EXPECT_EQ(learner.VerifyCandidatesAgainstBatch(data, 1e-6), "");

  // Ungoverned scans keep working afterwards.
  Scan(&learner, data, models);
  EXPECT_EQ(learner.num_candidates(), 6u);
  EXPECT_EQ(learner.VerifyCandidatesAgainstBatch(data, 1e-6), "");
}

TEST(LearningLoopTest, PublishesThroughSnapshotCommits) {
  LearnerOptions o = EnabledOptions();
  Learner learner(o);
  ServerOptions sopts;
  sopts.hybrid.learner = &learner;
  Server server(sopts);
  auto session = server.Connect("learn");
  ASSERT_TRUE(session.ok());

  Table t(Schema({Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (size_t i = 0; i < 64; ++i) {
    const double x = static_cast<double>(i + 1);
    ASSERT_TRUE(
        t.AppendRow({Value::Double(x),
                     Value::Double(3.0 + 2.0 * x + Jitter(i, 0.05))})
            .ok());
  }
  ASSERT_TRUE((*session)->CreateTable("signals", std::move(t)).ok());

  // Exact traffic harvests as a by-product.
  auto first = (*session)->ExecuteHybrid(
      "SELECT AVG(y) FROM signals WHERE x = 8");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->method, "exact");
  auto scan = (*session)->ExecuteHybrid(
      "SELECT x, y FROM signals WHERE x >= 1");
  ASSERT_TRUE(scan.ok());

  // A reader pinned before the tick keeps its epoch's model catalog.
  const SnapshotPtr pinned = (*session)->PinSnapshot();
  const uint64_t epoch_before = pinned->epoch;
  EXPECT_EQ(pinned->models.size(), 0u);

  LearningLoop loop(&server.snapshots(), &learner);
  auto tick = loop.TickNow();
  ASSERT_TRUE(tick.ok()) << tick.status().ToString();
  EXPECT_GE(tick->promoted, 1u);
  EXPECT_EQ(server.snapshots().epoch(), epoch_before + 1);
  EXPECT_EQ(pinned->models.size(), 0u)
      << "a pinned snapshot must never see the tick";

  // The published model now serves the same query approximately.
  auto second = (*session)->ExecuteHybrid(
      "SELECT AVG(y) FROM signals WHERE x = 8");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->approximate) << second->fallback_reason;

  // A no-work tick publishes nothing: no epoch churn.
  const uint64_t epoch_after = server.snapshots().epoch();
  auto idle = loop.TickNow();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle->did_work());
  EXPECT_EQ(server.snapshots().epoch(), epoch_after);

  // EXPLAIN ANALYZE reports the learning stage.
  auto plan = (*session)->ExplainAnalyze(
      "SELECT AVG(y) FROM signals WHERE x = 8");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("learning: state=on"), std::string::npos) << *plan;
}

// The concurrency soak (run under TSan by tools/check_learning.sh):
// background refit ticks race N querying sessions and ingest commits.
// Invariants: epochs only move forward, pinned snapshots are immutable,
// and every model observed by any reader is a complete published fit
// (finite parameters, positive observation count).
TEST(LearningLoopTest, ConcurrentHarvestIngestAndTicksStaySane) {
  Learner learner(EnabledOptions());
  ServerOptions sopts;
  sopts.hybrid.learner = &learner;
  Server server(sopts);

  auto writer = server.Connect("writer");
  ASSERT_TRUE(writer.ok());
  Table t(Schema({Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (size_t i = 0; i < 96; ++i) {
    const double x = static_cast<double>(i + 1);
    ASSERT_TRUE(
        t.AppendRow({Value::Double(x),
                     Value::Double(3.0 + 2.0 * x + Jitter(i, 0.05))})
            .ok());
  }
  ASSERT_TRUE((*writer)->CreateTable("signals", std::move(t)).ok());

  LearningLoop loop(&server.snapshots(), &learner);
  loop.Start();

  std::atomic<bool> failed{false};
  constexpr size_t kReaders = 4;
  constexpr size_t kQueriesPerReader = 120;

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 2);
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&server, &failed, r] {
      auto session = server.Connect("reader" + std::to_string(r));
      if (!session.ok()) {
        failed.store(true);
        return;
      }
      const char* queries[] = {
          "SELECT AVG(y) FROM signals WHERE x = 8",
          "SELECT MIN(y) FROM signals WHERE x = 16",
          "SELECT COUNT(*) FROM signals WHERE x >= 1",
          "SELECT x, y FROM signals WHERE x >= 1",
      };
      for (size_t q = 0; q < kQueriesPerReader; ++q) {
        auto answer = (*session)->ExecuteHybrid(queries[q % 4]);
        if (!answer.ok()) failed.store(true);
      }
    });
  }
  threads.emplace_back([&writer, &failed] {
    for (size_t batch = 0; batch < 24; ++batch) {
      Table rows(Schema({Field{"x", DataType::kDouble, false},
                         Field{"y", DataType::kDouble, false}}));
      for (size_t i = 0; i < 8; ++i) {
        const size_t n = 96 + batch * 8 + i;
        const double x = static_cast<double>(n + 1);
        if (!rows.AppendRow({Value::Double(x),
                             Value::Double(3.0 + 2.0 * x + Jitter(n, 0.05))})
                 .ok()) {
          failed.store(true);
        }
      }
      if (!(*writer)->Ingest("signals", rows).ok()) failed.store(true);
    }
  });
  threads.emplace_back([&server, &failed] {
    uint64_t last_epoch = 0;
    for (size_t i = 0; i < 400; ++i) {
      const SnapshotPtr snap = server.snapshots().Pin();
      if (snap->epoch < last_epoch) failed.store(true);
      last_epoch = snap->epoch;
      for (uint64_t id : snap->models.ListIds()) {
        auto m = snap->models.Get(id);
        if (!m.ok()) {
          failed.store(true);
          continue;
        }
        if ((*m)->quality.n_observations == 0) failed.store(true);
        for (double p : (*m)->parameters) {
          if (!std::isfinite(p)) failed.store(true);
        }
      }
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  loop.Stop();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(learner.VerifyCandidatesAgainstBatch(
                server.snapshots().Pin()->tables, 1e-6),
            "");
}

}  // namespace
}  // namespace laws
