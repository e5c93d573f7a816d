#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/advisor.h"
#include "core/diagnose.h"
#include "core/model_catalog.h"
#include "core/persistence.h"
#include "core/session.h"
#include "core/strawman.h"
#include "lofar/generator.h"
#include "model/model.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "testing/reference_oracle.h"

namespace laws {
namespace {

/// Registers a linear table y = 3 + 2x (+noise) as "lin" and a grouped
/// power-law table as "plaw".
struct Fixture {
  Catalog data;
  ModelCatalog models;
  std::unique_ptr<Session> session;

  Fixture() {
    Rng rng(1);
    auto lin = std::make_shared<Table>(
        Schema({Field{"x", DataType::kDouble, false},
                Field{"y", DataType::kDouble, false}}));
    for (int i = 0; i < 100; ++i) {
      const double x = rng.Uniform(0, 10);
      EXPECT_TRUE(lin->AppendRow({Value::Double(x),
                                  Value::Double(3.0 + 2.0 * x +
                                                rng.Normal(0, 0.05))})
                      .ok());
    }
    data.RegisterOrReplace("lin", lin);

    auto plaw = std::make_shared<Table>(
        Schema({Field{"g", DataType::kInt64, false},
                Field{"x", DataType::kDouble, false},
                Field{"y", DataType::kDouble, false}}));
    for (int g = 1; g <= 8; ++g) {
      for (int i = 0; i < 40; ++i) {
        const double x = rng.Uniform(0.1, 0.2);
        const double y = (0.5 + 0.1 * g) * std::pow(x, -0.5 - 0.05 * g) *
                         std::exp(rng.Normal(0, 0.02));
        EXPECT_TRUE(plaw->AppendRow({Value::Int64(g), Value::Double(x),
                                     Value::Double(y)})
                        .ok());
      }
    }
    data.RegisterOrReplace("plaw", plaw);
    session = std::make_unique<Session>(&data, &models);
  }

  FitRequest LinearRequest() {
    FitRequest r;
    r.table = "lin";
    r.model_source = "linear(1)";
    r.input_columns = {"x"};
    r.output_column = "y";
    return r;
  }

  FitRequest PowerLawRequest() {
    FitRequest r;
    r.table = "plaw";
    r.model_source = "power_law";
    r.input_columns = {"x"};
    r.output_column = "y";
    r.group_column = "g";
    return r;
  }
};

// --- ModelCatalog ----------------------------------------------------------

TEST(ModelCatalogTest, StoreAssignsIncreasingIds) {
  ModelCatalog mc;
  CapturedModel a;
  a.table_name = "t";
  const uint64_t id1 = mc.Store(a);
  const uint64_t id2 = mc.Store(a);
  EXPECT_LT(id1, id2);
  EXPECT_EQ(mc.size(), 2u);
  EXPECT_TRUE(mc.Get(id1).ok());
  EXPECT_FALSE(mc.Get(999).ok());
}

TEST(ModelCatalogTest, RemoveAndList) {
  ModelCatalog mc;
  CapturedModel m;
  const uint64_t id = mc.Store(m);
  EXPECT_EQ(mc.ListIds().size(), 1u);
  EXPECT_TRUE(mc.Remove(id).ok());
  EXPECT_FALSE(mc.Remove(id).ok());
  EXPECT_TRUE(mc.ListIds().empty());
}

TEST(ModelCatalogTest, ModelsForTableAndOutputFiltering) {
  ModelCatalog mc;
  CapturedModel a;
  a.table_name = "t1";
  a.output_column = "y";
  mc.Store(a);
  CapturedModel b;
  b.table_name = "t1";
  b.output_column = "z";
  mc.Store(b);
  CapturedModel c;
  c.table_name = "t2";
  c.output_column = "y";
  mc.Store(c);
  EXPECT_EQ(mc.ModelsForTable("t1").size(), 2u);
}

TEST(ModelCatalogTest, RemoveForTable) {
  ModelCatalog mc;
  CapturedModel a;
  a.table_name = "t1";
  mc.Store(a);
  mc.Store(a);
  CapturedModel b;
  b.table_name = "t2";
  const uint64_t keep = mc.Store(b);
  EXPECT_EQ(mc.RemoveForTable("t1"), 2u);
  EXPECT_EQ(mc.size(), 1u);
  EXPECT_TRUE(mc.Get(keep).ok());
  EXPECT_EQ(mc.RemoveForTable("t1"), 0u);
}

TEST(ModelCatalogTest, StalenessCheck) {
  CapturedModel m;
  m.fitted_data_version = 5;
  EXPECT_FALSE(ModelCatalog::IsStale(m, 5));
  EXPECT_TRUE(ModelCatalog::IsStale(m, 6));
}

TEST(CapturedModelTest, StorageBytesAndSummary) {
  CapturedModel m;
  m.table_name = "t";
  m.model_source = "linear(1)";
  m.output_column = "y";
  m.parameters = {1.0, 2.0};
  EXPECT_GE(m.StorageBytes(), 2 * sizeof(double));
  EXPECT_NE(m.Summary().find("linear(1)"), std::string::npos);
}

// --- Session fitting ------------------------------------------------------

TEST(SessionTest, UngroupedFitCapturesModel) {
  Fixture f;
  auto report = f.session->Fit(f.LinearRequest());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->grouped);
  EXPECT_NEAR(report->parameters[0], 3.0, 0.1);
  EXPECT_NEAR(report->parameters[1], 2.0, 0.05);
  EXPECT_GT(report->quality.r_squared, 0.99);
  // The artifact is in the model catalog with matching metadata.
  auto captured = f.models.Get(report->model_id);
  ASSERT_TRUE(captured.ok());
  EXPECT_EQ((*captured)->table_name, "lin");
  EXPECT_EQ((*captured)->model_source, "linear(1)");
  EXPECT_EQ((*captured)->output_column, "y");
  EXPECT_FALSE((*captured)->grouped);
  const auto table = *f.data.Get("lin");
  EXPECT_EQ((*captured)->fitted_data_version, table->data_version());
}

TEST(SessionTest, GroupedFitCapturesParameterTable) {
  Fixture f;
  auto report = f.session->Fit(f.PowerLawRequest());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->grouped);
  EXPECT_EQ(report->num_groups, 8u);
  EXPECT_GT(report->median_r_squared, 0.9);
  auto captured = f.models.Get(report->model_id);
  ASSERT_TRUE(captured.ok());
  EXPECT_EQ((*captured)->parameter_table.num_rows(), 8u);
  EXPECT_TRUE((*captured)->parameter_table.schema().HasField("alpha"));
  EXPECT_TRUE((*captured)->parameter_table.schema().HasField("residual_se"));
}

TEST(SessionTest, SubsetPredicateRestrictsFit) {
  Fixture f;
  FitRequest r = f.LinearRequest();
  r.where = "x < 5";
  auto report = f.session->Fit(r);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto captured = f.models.Get(report->model_id);
  ASSERT_TRUE(captured.ok());
  EXPECT_EQ((*captured)->subset_predicate, "x < 5");
  EXPECT_LT((*captured)->rows_fitted, 100u);
  EXPECT_GT((*captured)->rows_fitted, 0u);
}

TEST(SessionTest, SubsetPredicateFitsTheRowsTheOracleSelects) {
  // A partial-model fit filters through the expression engine; fitting
  // the rows the reference oracle selects must give the same parameters,
  // for a predicate over a string column and one over a numeric column.
  Fixture f;
  Rng rng(7);
  auto tagged = std::make_shared<Table>(
      Schema({Field{"tag", DataType::kString, true},
              Field{"x", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
  const Value tags[] = {Value::String("a"), Value::String(""),
                        Value::String("NULL"), Value::Null(),
                        Value::String("b")};
  for (int i = 0; i < 200; ++i) {
    const Value& tag = tags[i % 5];
    const double x = rng.Uniform(0, 10);
    const double y = (tag.is_string() && tag.str() == "a" ? 3.0 + 2.0 * x
                                                          : -1.0 + 0.5 * x) +
                     rng.Normal(0, 0.05);
    ASSERT_TRUE(
        tagged->AppendRow({tag, Value::Double(x), Value::Double(y)}).ok());
  }
  f.data.RegisterOrReplace("tagged", tagged);

  for (const std::string where : {"tag = 'a'", "x < 5"}) {
    FitRequest r = f.LinearRequest();
    r.table = "tagged";
    r.where = where;
    auto engine = f.session->Fit(r);
    ASSERT_TRUE(engine.ok()) << where << ": " << engine.status().ToString();

    auto stmt = ParseSelect("SELECT * FROM tagged WHERE " + where);
    ASSERT_TRUE(stmt.ok()) << where;
    testing::OracleResult rows = testing::OracleExecuteSelect(f.data, *stmt);
    ASSERT_TRUE(rows.status.ok()) << where << ": " << rows.status.ToString();
    ASSERT_GT(rows.table.num_rows(), 0u) << where;
    f.data.RegisterOrReplace("oracle_rows",
                             std::make_shared<Table>(std::move(rows.table)));
    FitRequest whole = f.LinearRequest();
    whole.table = "oracle_rows";
    auto oracle = f.session->Fit(whole);
    ASSERT_TRUE(oracle.ok()) << where << ": " << oracle.status().ToString();

    ASSERT_EQ(engine->parameters.size(), oracle->parameters.size()) << where;
    for (size_t p = 0; p < engine->parameters.size(); ++p) {
      EXPECT_EQ(engine->parameters[p], oracle->parameters[p])
          << where << " parameter " << p;
    }
  }
}

TEST(SessionTest, FitValidatesRequest) {
  Fixture f;
  FitRequest bad = f.LinearRequest();
  bad.table = "missing";
  EXPECT_FALSE(f.session->Fit(bad).ok());
  bad = f.LinearRequest();
  bad.model_source = "nonsense";
  EXPECT_FALSE(f.session->Fit(bad).ok());
  bad = f.LinearRequest();
  bad.input_columns = {"x", "y"};  // arity mismatch
  EXPECT_FALSE(f.session->Fit(bad).ok());
  bad = f.LinearRequest();
  bad.where = "syntax error here (";
  EXPECT_FALSE(f.session->Fit(bad).ok());
}

// --- Lifecycle ----------------------------------------------------------

TEST(SessionTest, RefitStaleDetectsDataChange) {
  Fixture f;
  auto report = f.session->Fit(f.LinearRequest());
  ASSERT_TRUE(report.ok());
  // Nothing stale yet.
  auto sweep1 = f.session->RefitStale();
  ASSERT_TRUE(sweep1.ok());
  EXPECT_EQ(sweep1->checked, 1u);
  EXPECT_EQ(sweep1->stale, 0u);
  // Mutate the table: the model becomes stale and gets refitted.
  auto table = *f.data.Get("lin");
  ASSERT_TRUE(
      table->AppendRow({Value::Double(5.0), Value::Double(13.0)}).ok());
  auto sweep2 = f.session->RefitStale();
  ASSERT_TRUE(sweep2.ok());
  EXPECT_EQ(sweep2->stale, 1u);
  EXPECT_EQ(sweep2->refitted, 1u);
  // The refreshed model matches the new data version.
  const auto ids = f.models.ListIds();
  ASSERT_EQ(ids.size(), 1u);
  auto refreshed = f.models.Get(ids[0]);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ((*refreshed)->fitted_data_version, table->data_version());
}

TEST(SessionTest, RefitStaleFlagsQualityShift) {
  Fixture f;
  auto report = f.session->Fit(f.LinearRequest());
  ASSERT_TRUE(report.ok());
  // Append garbage rows that destroy the linear relationship.
  auto table = *f.data.Get("lin");
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::Double(rng.Uniform(0, 10)),
                                 Value::Double(rng.Uniform(-100, 100))})
                    .ok());
  }
  auto sweep = f.session->RefitStale();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->refitted, 1u);
  EXPECT_EQ(sweep->quality_shifted.size(), 1u);
}

/// The shift is measured in the quality arbitration ranks by (adjusted
/// R² for an ungrouped model) on both sides. A noisy poly(2) fit has R²
/// well above its adjusted R²; one new row on the fitted curve leaves the
/// fit as it was, so the refit must not be reported as a quality shift.
TEST(SessionTest, RefitStaleComparesLikeQualities) {
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  auto table = std::make_shared<Table>(
      Schema({Field{"x", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const double x = 0.5 * i;
    ASSERT_TRUE(table
                    ->AppendRow({Value::Double(x),
                                 Value::Double(1.0 + 0.3 * x +
                                               rng.Normal(0, 1.5))})
                    .ok());
  }
  data.RegisterOrReplace("noisy", table);
  FitRequest request;
  request.table = "noisy";
  request.model_source = "poly(2)";
  request.input_columns = {"x"};
  request.output_column = "y";
  auto report = session.Fit(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FitQuality before = report->quality;
  ASSERT_GT(before.r_squared - before.adjusted_r_squared, 0.05);

  auto model = ModelFromSource("poly(2)");
  ASSERT_TRUE(model.ok());
  const double x_new = 4.0;
  ASSERT_TRUE(table
                  ->AppendRow({Value::Double(x_new),
                               Value::Double((*model)->Evaluate(
                                   {x_new}, report->parameters))})
                  .ok());
  auto sweep = session.RefitStale();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->refitted, 1u);
  auto refreshed = models.Get(report->model_id);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_LT(std::fabs((*refreshed)->ArbitrationQuality() -
                      before.adjusted_r_squared),
            0.05);
  EXPECT_TRUE(sweep->quality_shifted.empty())
      << "adjusted R2 " << before.adjusted_r_squared << " -> "
      << (*refreshed)->ArbitrationQuality();
}

TEST(SessionTest, RefitUnknownModelFails) {
  Fixture f;
  EXPECT_FALSE(f.session->Refit(12345).ok());
}

// --- Strawman --------------------------------------------------------------

TEST(StrawmanTest, FitForwardsAndCaptures) {
  Fixture f;
  Strawman df(f.session.get(), "plaw");
  auto report = df.GroupBy("g").Fit("power_law", {"x"}, "y");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->grouped);
  EXPECT_EQ(report->num_groups, 8u);
  // The fit was intercepted into the model catalog.
  auto captured = f.models.Get(report->model_id);
  ASSERT_TRUE(captured.ok());
  EXPECT_EQ((*captured)->group_column, "g");
}

TEST(StrawmanTest, FiltersConjoinAndRestrictTheFit) {
  Fixture f;
  Strawman df(f.session.get(), "lin");
  const Strawman narrow = df.Filter("x > 2").Filter("x < 8");
  auto full_count = df.Count();
  auto narrow_count = narrow.Count();
  ASSERT_TRUE(full_count.ok());
  ASSERT_TRUE(narrow_count.ok());
  EXPECT_LT(*narrow_count, *full_count);
  EXPECT_GT(*narrow_count, 0u);

  auto report = narrow.Fit("linear(1)", {"x"}, "y");
  ASSERT_TRUE(report.ok());
  auto captured = f.models.Get(report->model_id);
  ASSERT_TRUE(captured.ok());
  EXPECT_EQ((*captured)->subset_predicate, "(x > 2) AND (x < 8)");
  EXPECT_EQ((*captured)->rows_fitted, *narrow_count);
}

TEST(StrawmanTest, CollectMaterializesTheView) {
  Fixture f;
  Strawman df(f.session.get(), "lin");
  auto all = df.Collect();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 100u);
  auto subset = df.Filter("x < 5").Collect();
  ASSERT_TRUE(subset.ok());
  EXPECT_LT(subset->num_rows(), 100u);
  const Column& x = *subset->ColumnByName("x").value();
  for (size_t i = 0; i < x.size(); ++i) EXPECT_LT(x.DoubleAt(i), 5.0);
}

TEST(StrawmanTest, HandlesAreForkableValues) {
  Fixture f;
  Strawman base(f.session.get(), "lin");
  Strawman a = base.Filter("x < 5");
  Strawman b = base.Filter("x >= 5");
  // base unchanged; a and b independent.
  EXPECT_TRUE(base.predicate().empty());
  EXPECT_NE(a.predicate(), b.predicate());
  auto ca = a.Count();
  auto cb = b.Count();
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(*ca + *cb, 100u);
}

TEST(StrawmanTest, ErrorsSurface) {
  Fixture f;
  Strawman missing(f.session.get(), "no_such_table");
  EXPECT_FALSE(missing.Count().ok());
  Strawman bad_pred =
      Strawman(f.session.get(), "lin").Filter("syntax ( error");
  EXPECT_FALSE(bad_pred.Collect().ok());
}

// --- Advisor ---------------------------------------------------------------

TEST(AdvisorTest, PicksPowerLawForPowerLawData) {
  Rng rng(55);
  Table t(Schema({Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Uniform(0.1, 2.0);
    ASSERT_TRUE(t.AppendRow({Value::Double(x),
                             Value::Double(1.5 * std::pow(x, -0.8) *
                                           std::exp(rng.Normal(0, 0.02)))})
                    .ok());
  }
  auto candidates = SuggestModels(t, "x", "y");
  ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
  ASSERT_FALSE(candidates->empty());
  EXPECT_EQ(candidates->front().model_source, "power_law");
  EXPECT_GT(candidates->front().r_squared, 0.95);
  // Candidates are ordered by ascending BIC among fitted ones.
  for (size_t i = 1; i < candidates->size(); ++i) {
    if ((*candidates)[i].fitted && (*candidates)[i - 1].fitted) {
      EXPECT_LE((*candidates)[i - 1].bic, (*candidates)[i].bic);
    }
  }
}

TEST(AdvisorTest, PicksLinearForLinearDataDespiteNestedPoly) {
  Rng rng(56);
  Table t(Schema({Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 800; ++i) {
    const double x = rng.Uniform(-5.0, 5.0);
    ASSERT_TRUE(t.AppendRow({Value::Double(x),
                             Value::Double(2.0 + 0.7 * x +
                                           rng.Normal(0, 0.3))})
                    .ok());
  }
  auto candidates = SuggestModels(t, "x", "y");
  ASSERT_TRUE(candidates.ok());
  // BIC's parameter penalty must prefer linear over the nested poly(2)/(3)
  // that fit equally well.
  EXPECT_EQ(candidates->front().model_source, "linear(1)");
}

TEST(AdvisorTest, GroupedAdvicePicksDominantClass) {
  Rng rng(57);
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int g = 1; g <= 50; ++g) {
    const double p = rng.Uniform(0.5, 2.0);
    const double a = rng.Uniform(-1.0, -0.5);
    for (int i = 0; i < 40; ++i) {
      const double x = rng.Uniform(0.1, 0.3);
      ASSERT_TRUE(t.AppendRow({Value::Int64(g), Value::Double(x),
                               Value::Double(p * std::pow(x, a) *
                                             std::exp(rng.Normal(0, 0.02)))})
                      .ok());
    }
  }
  AdvisorOptions options;
  options.sample_groups = 16;
  auto candidates = SuggestGroupedModels(t, "g", "x", "y", options);
  ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
  EXPECT_EQ(candidates->front().model_source, "power_law");
  EXPECT_GT(candidates->front().r_squared, 0.9);
}

TEST(AdvisorTest, ValidationErrors) {
  Table t(Schema({Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value::Double(i), Value::Double(i)}).ok());
  }
  EXPECT_FALSE(SuggestModels(t, "x", "y").ok());  // too few rows
  EXPECT_FALSE(SuggestModels(t, "missing", "y").ok());
  AdvisorOptions custom;
  custom.candidate_sources = {"garbage_model"};
  Table big(Schema({Field{"x", DataType::kDouble, false},
                    Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        big.AppendRow({Value::Double(i), Value::Double(i)}).ok());
  }
  EXPECT_FALSE(SuggestModels(big, "x", "y", custom).ok());
}

TEST(AdvisorTest, GroupedAdviceOverAStringInputIsATypeMismatch) {
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kString, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(i % 5), Value::String("a"),
                             Value::Double(i)})
                    .ok());
  }
  auto ungrouped = SuggestModels(t, "x", "y");
  ASSERT_FALSE(ungrouped.ok());
  EXPECT_EQ(ungrouped.status().code(), StatusCode::kTypeMismatch);
  auto grouped = SuggestGroupedModels(t, "g", "x", "y");
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kTypeMismatch)
      << grouped.status().ToString();
}

// The advisor's ranking, BIC and R², recorded bit for bit from the
// advisor that fitted each trial with its own FitModel loop: the three
// fixtures above, and a LOFAR-shaped table, grouped by source and (sampled
// down to 20,000 of its 24,000 rows) ungrouped. The values must not move
// with the lane count.
struct RecordedCandidate {
  const char* source;
  double bic;
  double r_squared;
};

void ExpectAdvice(const Result<std::vector<ModelCandidate>>& advice,
                  const std::vector<RecordedCandidate>& recorded,
                  const std::string& what) {
  ASSERT_TRUE(advice.ok()) << what << ": " << advice.status().ToString();
  ASSERT_EQ(advice->size(), recorded.size()) << what;
  for (size_t i = 0; i < recorded.size(); ++i) {
    const ModelCandidate& c = (*advice)[i];
    EXPECT_EQ(c.model_source, recorded[i].source) << what << " #" << i;
    EXPECT_TRUE(c.fitted) << what << " " << c.model_source;
    EXPECT_EQ(c.bic, recorded[i].bic) << what << " " << c.model_source;
    EXPECT_EQ(c.r_squared, recorded[i].r_squared)
        << what << " " << c.model_source;
  }
}

TEST(AdvisorTest, RankingMatchesRecordedValuesAtOneAndFourLanes) {
  Rng power_rng(55);
  Table power(Schema({Field{"x", DataType::kDouble, false},
                      Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 500; ++i) {
    const double x = power_rng.Uniform(0.1, 2.0);
    ASSERT_TRUE(power
                    .AppendRow({Value::Double(x),
                                Value::Double(1.5 * std::pow(x, -0.8) *
                                              std::exp(power_rng.Normal(
                                                  0, 0.02)))})
                    .ok());
  }
  Rng linear_rng(56);
  Table linear(Schema({Field{"x", DataType::kDouble, false},
                       Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 800; ++i) {
    const double x = linear_rng.Uniform(-5.0, 5.0);
    ASSERT_TRUE(linear
                    .AppendRow({Value::Double(x),
                                Value::Double(2.0 + 0.7 * x +
                                              linear_rng.Normal(0, 0.3))})
                    .ok());
  }
  Rng grouped_rng(57);
  Table grouped(Schema({Field{"g", DataType::kInt64, false},
                        Field{"x", DataType::kDouble, false},
                        Field{"y", DataType::kDouble, false}}));
  for (int g = 1; g <= 50; ++g) {
    const double p = grouped_rng.Uniform(0.5, 2.0);
    const double a = grouped_rng.Uniform(-1.0, -0.5);
    for (int i = 0; i < 40; ++i) {
      const double x = grouped_rng.Uniform(0.1, 0.3);
      ASSERT_TRUE(grouped
                      .AppendRow({Value::Int64(g), Value::Double(x),
                                  Value::Double(p * std::pow(x, a) *
                                                std::exp(grouped_rng.Normal(
                                                    0, 0.02)))})
                      .ok());
    }
  }
  AdvisorOptions sixteen_groups;
  sixteen_groups.sample_groups = 16;
  LofarConfig config;
  config.num_sources = 600;
  config.num_rows = 24'000;
  auto lofar = GenerateLofar(config);
  ASSERT_TRUE(lofar.ok()) << lofar.status().ToString();

  for (size_t lanes : {1, 4}) {
    ThreadPool::SetGlobalThreadCount(lanes);
    const std::string at = " at " + std::to_string(lanes) + " lanes";
    ExpectAdvice(
        SuggestModels(power, "x", "y"),
        {{"power_law", -0x1.b5fed8e550aafp+10, 0x1.ff985385e1c05p-1},
         {"poly(3)", 0x1.1f9cff717ee0dp+8, 0x1.e8a78e7b0e1eep-1},
         {"poly(2)", 0x1.83bbadfd1affbp+9, 0x1.c149f49a6198ap-1},
         {"exponential", 0x1.15edc39a48a6ep+10, 0x1.839ac4aabd83cp-1},
         {"linear(1)", 0x1.42a369cdd4e2ep+10, 0x1.4e1d39246e188p-1},
         {"logistic", 0x1.c856fdb95391bp+10, 0x1.8p-51}},
        "power" + at);
    ExpectAdvice(
        SuggestModels(linear, "x", "y"),
        {{"linear(1)", 0x1.3aea8336c2d71p+8, 0x1.f53da645ae8abp-1},
         {"poly(2)", 0x1.416a6392ece3bp+8, 0x1.f53e4964e8d91p-1},
         {"poly(3)", 0x1.47dc0221d5683p+8, 0x1.f53f1d8a448dap-1},
         {"logistic", 0x1.439def3c84326p+10, 0x1.dbb2f65ffa96dp-1},
         {"exponential", 0x1.cec7e75e4d256p+10, 0x1.b697d1510c3dcp-1},
         {"power_law", 0x1.5e4e86bd59cdbp+12, -0x1.d486c948897bcp+3}},
        "linear" + at);
    ExpectAdvice(
        SuggestGroupedModels(grouped, "g", "x", "y", sixteen_groups),
        {{"power_law", -0x1.07f26f99d508dp+6, 0x1.fc627255b3c0cp-1},
         {"poly(3)", -0x1.de97b3eafd17ep+5, 0x1.fc8b937b0cf17p-1},
         {"poly(2)", -0x1.5ea5d6cf3950dp+5, 0x1.fac91c73c8b7p-1},
         {"exponential", -0x1.11a5982478045p+2, 0x1.f0b9fce1f9819p-1},
         {"linear(1)", 0x1.c4cc5b011dc1ep+4, 0x1.dd73cdaa61892p-1},
         {"logistic", 0x1.1927b194cb7cp+7, 0x1.6p-54}},
        "grouped" + at);
    ExpectAdvice(
        SuggestGroupedModels(lofar->observations, "source", "wavelength",
                             "intensity"),
        {{"power_law", -0x1.0028cb338778dp+8, 0x1.d7767c753cd97p-1},
         {"poly(2)", -0x1.fc19a042ca10fp+7, 0x1.d913616c9bda8p-1},
         {"exponential", -0x1.fbf62bf901545p+7, 0x1.d5713f318618ap-1},
         {"poly(3)", -0x1.f6da650384a55p+7, 0x1.da2837beb52c9p-1},
         {"linear(1)", -0x1.f35534702a0ep+7, 0x1.d12fd90d53d36p-1},
         {"logistic", -0x1.c65a3c3741051p+7, 0x1.6f4753f1f2bd9p-1}},
        "lofar grouped" + at);
    ExpectAdvice(
        SuggestModels(lofar->observations, "wavelength", "intensity"),
        {{"poly(2)", 0x1.16136b5b8b0a6p+14, 0x1.b3a35c4e0fdp-6},
         {"linear(1)", 0x1.161e13b99352bp+14, 0x1.a99cf41cc002p-6},
         {"poly(3)", 0x1.1634f243b8684p+14, 0x1.b4d9feebedb6p-6},
         {"logistic", 0x1.1e7f599156b65p+14, -0x1.5eef74p-29},
         {"power_law", 0x1.2a240a11a649p+14, -0x1.3b31057efa5cp-5},
         {"exponential", 0x1.2a413e8139007p+14, -0x1.3e4c35c25ca2p-5}},
        "lofar ungrouped" + at);
  }
  ThreadPool::SetGlobalThreadCount(0);
}

// --- Diagnostics -------------------------------------------------------------

TEST(DiagnoseTest, WellSpecifiedModelIsHealthy) {
  Fixture f;  // "lin" has additive Gaussian noise around a true line
  auto report = f.session->Fit(f.LinearRequest());
  ASSERT_TRUE(report.ok());
  auto table = *f.data.Get("lin");
  auto model = f.models.Get(report->model_id);
  ASSERT_TRUE(model.ok());
  auto diag = DiagnoseModel(*table, **model);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  EXPECT_TRUE(diag->residual_normality.normal_at_05);
  EXPECT_NEAR(diag->durbin_watson, 2.0, 0.6);
  EXPECT_TRUE(diag->healthy);
  EXPECT_EQ(diag->residuals_used, 100u);
}

TEST(DiagnoseTest, MisspecifiedModelFlagsAutocorrelation) {
  // Fit a line to a clean parabola: residuals along x are smooth waves.
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  auto t = std::make_shared<Table>(
      Schema({Field{"x", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 200; ++i) {
    const double x = i / 20.0;
    ASSERT_TRUE(
        t->AppendRow({Value::Double(x), Value::Double(x * x)}).ok());
  }
  data.RegisterOrReplace("curve", t);
  FitRequest r;
  r.table = "curve";
  r.model_source = "linear(1)";
  r.input_columns = {"x"};
  r.output_column = "y";
  auto report = session.Fit(r);
  ASSERT_TRUE(report.ok());
  auto model = models.Get(report->model_id);
  auto diag = DiagnoseModel(*t, **model);
  ASSERT_TRUE(diag.ok());
  EXPECT_LT(diag->durbin_watson, 0.5);
  EXPECT_FALSE(diag->healthy);
}

TEST(DiagnoseTest, GroupedModelDiagnosesOneGroup) {
  Fixture f;
  auto report = f.session->Fit(f.PowerLawRequest());
  ASSERT_TRUE(report.ok());
  auto table = *f.data.Get("plaw");
  auto model = f.models.Get(report->model_id);
  ASSERT_TRUE(model.ok());
  auto diag = DiagnoseModel(*table, **model, /*group_key=*/3);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  EXPECT_EQ(diag->residuals_used, 40u);
  EXPECT_FALSE(DiagnoseModel(*table, **model, 99999).ok());
}

// --- Persistence -------------------------------------------------------------

TEST(PersistenceTest, CapturedModelRoundTrip) {
  Fixture f;
  auto grouped = f.session->Fit(f.PowerLawRequest());
  ASSERT_TRUE(grouped.ok());
  const CapturedModel* original =
      *f.models.Get(grouped->model_id);
  ByteWriter w;
  SerializeCapturedModel(*original, &w);
  ByteReader r(w.data());
  auto restored = DeserializeCapturedModel(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->id, original->id);
  EXPECT_EQ(restored->model_source, original->model_source);
  EXPECT_EQ(restored->grouped, original->grouped);
  EXPECT_EQ(restored->num_groups, original->num_groups);
  EXPECT_EQ(restored->parameter_table.num_rows(),
            original->parameter_table.num_rows());
  EXPECT_DOUBLE_EQ(restored->median_r_squared, original->median_r_squared);
  // Parameter values are bit-exact.
  for (size_t rr = 0; rr < original->parameter_table.num_rows(); rr += 3) {
    EXPECT_EQ(restored->parameter_table.GetValue(rr, 1),
              original->parameter_table.GetValue(rr, 1));
  }
}

TEST(PersistenceTest, DatabaseImageRoundTrip) {
  Fixture f;
  auto lin = f.session->Fit(f.LinearRequest());
  auto grouped = f.session->Fit(f.PowerLawRequest());
  ASSERT_TRUE(lin.ok());
  ASSERT_TRUE(grouped.ok());

  auto bytes = SaveDatabaseToBytes(f.data, f.models);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  Catalog data2;
  ModelCatalog models2;
  ASSERT_TRUE(LoadDatabaseFromBytes(*bytes, &data2, &models2).ok());
  EXPECT_EQ(data2.ListTables(), f.data.ListTables());
  EXPECT_EQ(models2.size(), 2u);

  // Table contents round-trip.
  auto t0 = *f.data.Get("lin");
  auto t1 = *data2.Get("lin");
  ASSERT_EQ(t1->num_rows(), t0->num_rows());
  for (size_t rr = 0; rr < t0->num_rows(); rr += 13) {
    EXPECT_EQ(t1->GetValue(rr, 1), t0->GetValue(rr, 1));
  }

  // Freshness survives: the loaded models are not stale wrt loaded tables.
  for (uint64_t id : models2.ListIds()) {
    const CapturedModel* m = *models2.Get(id);
    auto table = *data2.Get(m->table_name);
    EXPECT_FALSE(ModelCatalog::IsStale(*m, table->data_version()))
        << m->Summary();
  }
}

TEST(PersistenceTest, StaleModelsStayStaleAfterReload) {
  Fixture f;
  auto lin = f.session->Fit(f.LinearRequest());
  ASSERT_TRUE(lin.ok());
  // Mutate so the model is stale at save time.
  auto table = *f.data.Get("lin");
  ASSERT_TRUE(
      table->AppendRow({Value::Double(1.0), Value::Double(5.0)}).ok());
  auto bytes = SaveDatabaseToBytes(f.data, f.models);
  ASSERT_TRUE(bytes.ok());
  Catalog data2;
  ModelCatalog models2;
  ASSERT_TRUE(LoadDatabaseFromBytes(*bytes, &data2, &models2).ok());
  const CapturedModel* m = *models2.Get(lin->model_id);
  auto loaded_table = *data2.Get("lin");
  EXPECT_TRUE(ModelCatalog::IsStale(*m, loaded_table->data_version()));
}

TEST(PersistenceTest, FileRoundTripAndGarbageRejection) {
  Fixture f;
  ASSERT_TRUE(f.session->Fit(f.LinearRequest()).ok());
  const std::string path = "/tmp/lawsdb_test_image.bin";
  ASSERT_TRUE(SaveDatabase(f.data, f.models, path).ok());
  Catalog data2;
  ModelCatalog models2;
  ASSERT_TRUE(LoadDatabase(path, &data2, &models2).ok());
  EXPECT_EQ(models2.size(), 1u);
  EXPECT_FALSE(LoadDatabase("/tmp/does_not_exist.bin", &data2, &models2)
                   .ok());
  std::vector<uint8_t> junk = {'n', 'o', 'p', 'e', 1, 2, 3};
  Catalog d3;
  ModelCatalog m3;
  EXPECT_FALSE(LoadDatabaseFromBytes(junk, &d3, &m3).ok());
}

TEST(ModelCatalogTest, RestoreWithIdValidation) {
  ModelCatalog mc;
  CapturedModel m;
  m.id = 7;
  ASSERT_TRUE(mc.RestoreWithId(m).ok());
  EXPECT_FALSE(mc.RestoreWithId(m).ok());  // duplicate
  CapturedModel zero;
  zero.id = 0;
  EXPECT_FALSE(mc.RestoreWithId(zero).ok());
  // New ids continue above restored ones.
  CapturedModel fresh;
  EXPECT_EQ(mc.Store(fresh), 8u);
}

TEST(MedianOfTest, OddEvenEmpty) {
  EXPECT_EQ(MedianOf({}), 0.0);
  EXPECT_EQ(MedianOf({3.0}), 3.0);
  EXPECT_EQ(MedianOf({1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(MedianOf({1.0, 2.0, 3.0, 4.0}), 2.5);
}

}  // namespace
}  // namespace laws
