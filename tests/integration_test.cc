#include <gtest/gtest.h>

#include <cmath>

#include "anomaly/anomaly.h"
#include "aqp/domain.h"
#include "aqp/hybrid.h"
#include "aqp/model_aqp.h"
#include "compress/semantic.h"
#include "core/persistence.h"
#include "core/session.h"
#include "core/strawman.h"
#include "lofar/generator.h"
#include "lofar/pipeline.h"
#include "model/grouped_fit.h"
#include "model/model.h"
#include "query/executor.h"
#include "query/parser.h"
#include "workload/retail.h"

namespace laws {
namespace {

/// End-to-end Figure 2 walk on a small LOFAR-like dataset:
///  (1) user issues a fit against the strawman table,
///  (2) the engine executes it,
///  (3) model + parameters + quality land in the model catalog,
///  (4) an approximate query is answered from the model alone,
///  (5) the answer carries error bounds and is close to the exact one.
TEST(IntegrationTest, Figure2InterceptionLoop) {
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);

  LofarConfig cfg;
  cfg.num_sources = 100;
  cfg.num_rows = 4000;
  cfg.anomalous_fraction = 0.0;
  cfg.band_jitter = 0.0;  // exact band frequencies -> enumerable domain
  auto pipeline = RunLofarPipeline(cfg, &data, &session, "measurements");
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // (3) captured.
  EXPECT_EQ(models.size(), 1u);
  auto captured = models.Get(pipeline->model_id);
  ASSERT_TRUE(captured.ok());
  EXPECT_GT((*captured)->median_r_squared, 0.9);

  // (4) approximate query from the model only.
  DomainRegistry domains;
  domains.Register("measurements", "wavelength",
                   ColumnDomain::Explicit(cfg.bands));
  ModelQueryEngine aqp(&data, &models, &domains);
  const std::string q =
      "SELECT intensity FROM measurements WHERE source = 42 AND wavelength "
      "= 0.15";
  auto approx = aqp.Execute(q);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_EQ(approx->raw_rows_accessed, 0u);
  ASSERT_EQ(approx->table.num_rows(), 1u);

  // (5) compare against ground truth; the model answer must sit within a
  // few error bounds.
  const auto& truth = pipeline->dataset.truth[41];  // source 42
  ASSERT_EQ(truth.source, 42);
  const double expected = truth.p * std::pow(0.15, truth.alpha);
  const double got = approx->table.GetValue(0, 0).dbl();
  EXPECT_GT(approx->max_error_bound, 0.0);
  EXPECT_NEAR(got, expected, expected * 0.1);
}

TEST(IntegrationTest, ApproximateAggregatesTrackExactOnes) {
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  LofarConfig cfg;
  cfg.num_sources = 150;
  cfg.num_rows = 9000;
  cfg.anomalous_fraction = 0.0;
  cfg.band_jitter = 0.0;
  cfg.noise_sd = 0.02;
  auto pipeline = RunLofarPipeline(cfg, &data, &session, "m");
  ASSERT_TRUE(pipeline.ok());

  DomainRegistry domains;
  domains.Register("m", "wavelength", ColumnDomain::Explicit(cfg.bands));
  ModelQueryEngine aqp(&data, &models, &domains);

  const std::string q =
      "SELECT AVG(intensity) FROM m WHERE wavelength = 0.12";
  auto exact = ExecuteQuery(data, q);
  auto approx = aqp.Execute(q);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  // The grid answer weights every source equally while the exact answer
  // weights sources by their (random) observation counts at the band, so a
  // few percent of drift is inherent to grid semantics (paper §4.2).
  const double exact_avg = exact->GetValue(0, 0).dbl();
  const double approx_avg = approx->table.GetValue(0, 0).dbl();
  EXPECT_NEAR(approx_avg, exact_avg, std::fabs(exact_avg) * 0.1);
}

TEST(IntegrationTest, SemanticCompressionOfCapturedModelRoundTrips) {
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  LofarConfig cfg;
  cfg.num_sources = 80;
  cfg.num_rows = 3200;
  auto pipeline = RunLofarPipeline(cfg, &data, &session, "m");
  ASSERT_TRUE(pipeline.ok());

  auto table = *data.Get("m");
  PowerLawModel model;
  GroupedFitSpec spec;
  spec.group_column = "source";
  spec.input_columns = {"wavelength"};
  spec.output_column = "intensity";
  auto fits = FitGrouped(model, *table, spec);
  ASSERT_TRUE(fits.ok());
  auto compressed = SemanticCompress(*table, model, *fits, spec);
  ASSERT_TRUE(compressed.ok());
  auto back = SemanticDecompress(*compressed);
  ASSERT_TRUE(back.ok());
  const Column& y0 = *table->ColumnByName("intensity").value();
  const Column& y1 = *back->ColumnByName("intensity").value();
  for (size_t i = 0; i < y0.size(); i += 101) {
    EXPECT_EQ(y1.DoubleAt(i), y0.DoubleAt(i));
  }
  // A well-fitting model should beat a flat double dump for the output
  // column path (residuals + params vs raw 8B/row).
  EXPECT_LT(compressed->OutputColumnBytes(),
            table->num_rows() * sizeof(double));
}

TEST(IntegrationTest, DataChangeInvalidatesThenRefreshesAqp) {
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  LofarConfig cfg;
  cfg.num_sources = 50;
  cfg.num_rows = 2000;
  cfg.band_jitter = 0.0;
  auto pipeline = RunLofarPipeline(cfg, &data, &session, "m");
  ASSERT_TRUE(pipeline.ok());

  DomainRegistry domains;
  domains.Register("m", "wavelength", ColumnDomain::Explicit(cfg.bands));
  ModelQueryEngine aqp(&data, &models, &domains);
  const std::string q =
      "SELECT intensity FROM m WHERE source = 5 AND wavelength = 0.15";
  ASSERT_TRUE(aqp.Execute(q).ok());

  // Append data: the captured model is stale, AQP refuses.
  auto table = *data.Get("m");
  ASSERT_TRUE(table
                  ->AppendRow({Value::Int64(5), Value::Double(0.15),
                               Value::Double(3.0)})
                  .ok());
  EXPECT_FALSE(aqp.Execute(q).ok());

  // The lifecycle sweep refits; AQP works again.
  auto sweep = session.RefitStale();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->refitted, 1u);
  EXPECT_TRUE(aqp.Execute(q).ok());
}

TEST(IntegrationTest, CompetingModelsArbitratedByQuality) {
  // Fit both a power law (right) and a global linear model (wrong) to the
  // same output; arbitration must prefer the power law.
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  LofarConfig cfg;
  cfg.num_sources = 40;
  cfg.num_rows = 1600;
  cfg.anomalous_fraction = 0.0;
  auto pipeline = RunLofarPipeline(cfg, &data, &session, "m");
  ASSERT_TRUE(pipeline.ok());

  FitRequest linear;
  linear.table = "m";
  linear.model_source = "linear(1)";
  linear.input_columns = {"wavelength"};
  linear.output_column = "intensity";
  auto linear_report = session.Fit(linear);
  ASSERT_TRUE(linear_report.ok());

  // Both models cover a statement over wavelength and intensity.
  DomainRegistry domains;
  const ModelQueryEngine engine(&data, &models, &domains);
  auto stmt = ParseSelect("SELECT intensity FROM m WHERE wavelength = 0.15");
  ASSERT_TRUE(stmt.ok());
  auto best = engine.FindModelFor(*stmt);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ((*best)->model_source, "power_law");
}

TEST(IntegrationTest, RetailSeasonalModelEndToEnd) {
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  RetailConfig cfg;
  cfg.num_skus = 30;
  cfg.num_days = 84;
  auto retail = GenerateRetail(cfg);
  ASSERT_TRUE(retail.ok());
  data.RegisterOrReplace("sales",
                         std::make_shared<Table>(std::move(retail->sales)));

  FitRequest r;
  r.table = "sales";
  r.model_source = "seasonal(7)";
  r.input_columns = {"day"};
  r.output_column = "units";
  r.group_column = "sku";
  auto report = session.Fit(r);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->num_groups, 30u);
  EXPECT_GT(report->median_r_squared, 0.8);

  // Days form an enumerable integer domain — infer it from the column.
  auto table = *data.Get("sales");
  auto day_domain =
      DomainRegistry::InferFromColumn(*table->ColumnByName("day").value());
  ASSERT_TRUE(day_domain.ok());
  EXPECT_EQ(day_domain->kind, ColumnDomain::Kind::kIntegerRange);
  DomainRegistry domains;
  domains.Register("sales", "day", std::move(*day_domain));
  ModelQueryEngine aqp(&data, &models, &domains);

  const std::string q =
      "SELECT SUM(units) FROM sales WHERE sku = 3 AND day >= 10 AND day <= "
      "20";
  auto exact = ExecuteQuery(data, q);
  auto approx = aqp.Execute(q);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_NEAR(approx->table.GetValue(0, 0).dbl(),
              exact->GetValue(0, 0).dbl(),
              std::fabs(exact->GetValue(0, 0).dbl()) * 0.1);
}

TEST(IntegrationTest, CapturedModelsSurvivePersistenceAndStillAnswer) {
  // Fit, save, reload into a fresh engine, and answer approximately from
  // the reloaded model catalog — the "retain models forever" loop.
  LofarConfig cfg;
  cfg.num_sources = 60;
  cfg.num_rows = 2400;
  cfg.band_jitter = 0.0;
  std::vector<uint8_t> image;
  double original_answer = 0.0;
  const std::string q =
      "SELECT intensity FROM m WHERE source = 9 AND wavelength = 0.16";
  {
    Catalog data;
    ModelCatalog models;
    Session session(&data, &models);
    auto pipeline = RunLofarPipeline(cfg, &data, &session, "m");
    ASSERT_TRUE(pipeline.ok());
    DomainRegistry domains;
    domains.Register("m", "wavelength", ColumnDomain::Explicit(cfg.bands));
    ModelQueryEngine aqp(&data, &models, &domains);
    auto before = aqp.Execute(q);
    ASSERT_TRUE(before.ok());
    original_answer = before->table.GetValue(0, 0).dbl();
    auto bytes = SaveDatabaseToBytes(data, models);
    ASSERT_TRUE(bytes.ok());
    image = std::move(*bytes);
  }
  Catalog data2;
  ModelCatalog models2;
  ASSERT_TRUE(LoadDatabaseFromBytes(image, &data2, &models2).ok());
  DomainRegistry domains2;
  domains2.Register("m", "wavelength", ColumnDomain::Explicit(cfg.bands));
  ModelQueryEngine aqp2(&data2, &models2, &domains2);
  auto after = aqp2.Execute(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->raw_rows_accessed, 0u);
  // Identical parameters -> identical reconstruction.
  EXPECT_DOUBLE_EQ(after->table.GetValue(0, 0).dbl(), original_answer);
}

TEST(IntegrationTest, StrawmanToHybridRoundTrip) {
  // The full user story: strawman fit -> transparent hybrid querying.
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  LofarConfig cfg;
  cfg.num_sources = 50;
  cfg.num_rows = 2000;
  cfg.band_jitter = 0.0;
  auto gen = GenerateLofar(cfg);
  ASSERT_TRUE(gen.ok());
  data.RegisterOrReplace("m",
                         std::make_shared<Table>(std::move(gen->observations)));

  Strawman df(&session, "m");
  auto report = df.GroupBy("source").Fit("power_law", {"wavelength"},
                                         "intensity");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->median_r_squared, 0.85);

  DomainRegistry domains;
  domains.Register("m", "wavelength", ColumnDomain::Explicit(cfg.bands));
  ModelQueryEngine model_engine(&data, &models, &domains);
  HybridQueryEngine hybrid(&data, &model_engine);
  auto fast = hybrid.Execute(
      "SELECT intensity FROM m WHERE source = 3 AND wavelength = 0.12");
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(fast->approximate);
  // A query outside the model's columns transparently runs exact.
  auto exact = hybrid.Execute("SELECT COUNT(*) FROM m");
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact->approximate);
  EXPECT_EQ(exact->table.GetValue(0, 0).int64(),
            static_cast<int64_t>(cfg.num_rows));
}

TEST(IntegrationTest, ParameterTableJoinsBackToObservations) {
  // Register the captured parameter table and JOIN it against raw
  // observations — the parameter table is a first-class table.
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  LofarConfig cfg;
  cfg.num_sources = 30;
  cfg.num_rows = 1200;
  auto pipeline = RunLofarPipeline(cfg, &data, &session, "m");
  ASSERT_TRUE(pipeline.ok());
  auto captured = models.Get(pipeline->model_id);
  ASSERT_TRUE(captured.ok());
  data.RegisterOrReplace(
      "params", std::make_shared<Table>((*captured)->parameter_table));

  auto joined = ExecuteQuery(
      data,
      "SELECT source, COUNT(*) AS n, MAX(r_squared) AS r2 FROM m JOIN "
      "params ON source = source GROUP BY source ORDER BY source LIMIT 5");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->num_rows(), 5u);
  // Every joined row carries the fit quality; counts match raw multiplicity.
  for (size_t r = 0; r < joined->num_rows(); ++r) {
    EXPECT_GT(joined->GetValue(r, 1).int64(), 0);
    EXPECT_GT(joined->GetValue(r, 2).dbl(), 0.0);
  }
}

TEST(IntegrationTest, AnomalyScreeningAfterCapture) {
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  LofarConfig cfg;
  cfg.num_sources = 300;
  cfg.num_rows = 12000;
  cfg.anomalous_fraction = 0.05;
  auto pipeline = RunLofarPipeline(cfg, &data, &session, "m");
  ASSERT_TRUE(pipeline.ok());
  auto captured = models.Get(pipeline->model_id);
  ASSERT_TRUE(captured.ok());
  // Source brightness spans decades, so absolute residual SE is
  // heteroscedastic across groups; screen on the scale-free R² criterion.
  AnomalyOptions options;
  options.r_squared_threshold = 0.5;
  options.rse_factor = 1e18;
  auto report = ScoreGroups(**captured, options);
  ASSERT_TRUE(report.ok());

  // Recall: most planted anomalies are flagged. Precision: most flagged
  // are planted.
  std::set<int64_t> planted;
  for (const auto& t : pipeline->dataset.truth) {
    if (t.anomalous) planted.insert(t.source);
  }
  ASSERT_GT(planted.size(), 0u);
  size_t tp = 0, fp = 0;
  for (const auto& s : report->ranked) {
    if (!s.flagged) continue;
    (planted.count(s.group_key) > 0 ? tp : fp) += 1;
  }
  EXPECT_GT(static_cast<double>(tp) / static_cast<double>(planted.size()),
            0.9);
  if (tp + fp > 0) {
    EXPECT_GT(static_cast<double>(tp) / static_cast<double>(tp + fp), 0.8);
  }
}

}  // namespace
}  // namespace laws
