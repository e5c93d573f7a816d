#include <gtest/gtest.h>

#include <cmath>

#include "aqp/analytic.h"
#include "aqp/bloom.h"
#include "aqp/domain.h"
#include "aqp/histogram_aqp.h"
#include "aqp/hybrid.h"
#include "aqp/inverse.h"
#include "aqp/model_aqp.h"
#include "aqp/sampling_aqp.h"
#include "model/model.h"
#include "query/executor.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/session.h"
#include "lofar/generator.h"
#include "query/executor.h"
#include "query/parser.h"

namespace laws {
namespace {

// --- Domains ----------------------------------------------------------------

TEST(DomainTest, ExplicitValues) {
  auto d = ColumnDomain::Explicit({0.18, 0.12, 0.15, 0.16, 0.12});
  EXPECT_EQ(d.Cardinality(), 4u);  // deduped, sorted
  EXPECT_DOUBLE_EQ(d.ValueAt(0), 0.12);
  EXPECT_DOUBLE_EQ(d.ValueAt(3), 0.18);
  EXPECT_TRUE(d.Contains(0.15));
  EXPECT_FALSE(d.Contains(0.14));
  EXPECT_EQ(d.IndicesInRange(0.13, 0.17).size(), 2u);
  EXPECT_TRUE(d.IndicesInRange(0.2, 0.3).empty());
}

TEST(DomainTest, IntegerRange) {
  auto d = ColumnDomain::IntegerRange(10, 50, 5);
  EXPECT_EQ(d.Cardinality(), 9u);
  EXPECT_DOUBLE_EQ(d.ValueAt(0), 10.0);
  EXPECT_DOUBLE_EQ(d.ValueAt(8), 50.0);
  EXPECT_TRUE(d.Contains(25.0));
  EXPECT_FALSE(d.Contains(26.0));
  EXPECT_FALSE(d.Contains(25.5));
  EXPECT_FALSE(d.Contains(55.0));
  EXPECT_EQ(d.IndicesInRange(20, 30).size(), 3u);  // 20, 25, 30
}

TEST(DomainTest, InferExplicitFromDoubleColumn) {
  Column c(DataType::kDouble);
  for (int i = 0; i < 100; ++i) c.AppendDouble(i % 2 == 0 ? 0.12 : 0.15);
  auto d = DomainRegistry::InferFromColumn(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, ColumnDomain::Kind::kExplicitValues);
  EXPECT_EQ(d->Cardinality(), 2u);
}

TEST(DomainTest, InferIntegerRangeFromRegularProgression) {
  Column c(DataType::kInt64);
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 50; ++i) c.AppendInt64(100 + i * 10);
  }
  auto d = DomainRegistry::InferFromColumn(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, ColumnDomain::Kind::kIntegerRange);
  EXPECT_EQ(d->start, 100);
  EXPECT_EQ(d->stop, 590);
  EXPECT_EQ(d->step, 10);
}

TEST(DomainTest, InferRejectsHighCardinality) {
  Column c(DataType::kDouble);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) c.AppendDouble(rng.NextDouble());
  EXPECT_FALSE(DomainRegistry::InferFromColumn(c, 100).ok());
}

TEST(DomainRegistryTest, RegisterAndGet) {
  DomainRegistry reg;
  reg.Register("t", "x", ColumnDomain::Explicit({1, 2, 3}));
  EXPECT_TRUE(reg.Contains("t", "x"));
  EXPECT_FALSE(reg.Contains("t", "y"));
  ASSERT_TRUE(reg.Get("t", "x").ok());
  EXPECT_FALSE(reg.Get("u", "x").ok());
}

// --- Bloom filter ----------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(10000, 0.01);
  Rng rng(2);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back(rng.NextU64());
  for (uint64_t k : keys) bloom.Insert(k);
  for (uint64_t k : keys) EXPECT_TRUE(bloom.MayContain(k));
}

TEST(BloomTest, FalsePositiveRateNearTarget) {
  BloomFilter bloom(20000, 0.01);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) bloom.Insert(rng.NextU64());
  int fps = 0;
  const int probes = 50000;
  for (int i = 0; i < probes; ++i) {
    if (bloom.MayContain(rng.NextU64())) ++fps;
  }
  const double rate = static_cast<double>(fps) / probes;
  EXPECT_LT(rate, 0.03);  // target 1%, allow slack
}

TEST(BloomTest, SizeScalesWithTargetFpr) {
  BloomFilter loose(10000, 0.1);
  BloomFilter tight(10000, 0.001);
  EXPECT_LT(loose.SizeBytes(), tight.SizeBytes());
}

TEST(LegalCombinationFilterTest, BuildAndProbe) {
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int g = 1; g <= 100; ++g) {
    // Each group observed only at x = g/100.
    ASSERT_TRUE(t.AppendRow({Value::Int64(g), Value::Double(g / 100.0),
                             Value::Double(1.0)})
                    .ok());
  }
  auto filter = LegalCombinationFilter::Build(t, "g", {"x"}, 0.001);
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(filter->items_inserted(), 100u);
  // Observed combinations are always admitted.
  for (int g = 1; g <= 100; ++g) {
    EXPECT_TRUE(filter->MayContain(g, {g / 100.0}));
  }
  // Phantom combinations are mostly rejected.
  int phantom_hits = 0;
  for (int g = 1; g <= 100; ++g) {
    if (filter->MayContain(g, {0.999})) ++phantom_hits;
  }
  EXPECT_LE(phantom_hits, 2);
}

// --- Model-based AQP ----------------------------------------------------------

/// Full AQP fixture: grouped power-law data, captured model, domains.
struct AqpFixture {
  Catalog data;
  ModelCatalog models;
  DomainRegistry domains;
  std::unique_ptr<Session> session;
  std::unique_ptr<ModelQueryEngine> engine;
  uint64_t model_id = 0;
  std::vector<double> bands = {0.12, 0.15, 0.16, 0.18};

  AqpFixture() {
    Rng rng(5);
    auto t = std::make_shared<Table>(
        Schema({Field{"source", DataType::kInt64, false},
                Field{"wavelength", DataType::kDouble, false},
                Field{"intensity", DataType::kDouble, false}}));
    for (int s = 1; s <= 30; ++s) {
      const double p = 0.5 + 0.05 * s;
      const double a = -0.7;
      for (int i = 0; i < 40; ++i) {
        const double nu = bands[static_cast<size_t>(rng.UniformInt(0, 3))];
        EXPECT_TRUE(
            t->AppendRow({Value::Int64(s), Value::Double(nu),
                          Value::Double(p * std::pow(nu, a) *
                                        std::exp(rng.Normal(0, 0.01)))})
                .ok());
      }
    }
    data.RegisterOrReplace("measurements", t);
    session = std::make_unique<Session>(&data, &models);
    FitRequest r;
    r.table = "measurements";
    r.model_source = "power_law";
    r.input_columns = {"wavelength"};
    r.output_column = "intensity";
    r.group_column = "source";
    auto report = session->Fit(r);
    EXPECT_TRUE(report.ok());
    model_id = report->model_id;
    domains.Register("measurements", "wavelength",
                     ColumnDomain::Explicit(bands));
    engine = std::make_unique<ModelQueryEngine>(&data, &models, &domains);
  }
};

TEST(ModelAqpTest, PointQueryAnsweredFromModelOnly) {
  AqpFixture f;
  auto answer = f.engine->Execute(
      "SELECT intensity FROM measurements WHERE source = 7 AND wavelength = "
      "0.15");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->method, "model-point");
  EXPECT_EQ(answer->raw_rows_accessed, 0u);
  ASSERT_EQ(answer->table.num_rows(), 1u);
  const double expected = (0.5 + 0.05 * 7) * std::pow(0.15, -0.7);
  EXPECT_NEAR(answer->table.GetValue(0, 0).dbl(), expected, 0.05);
  EXPECT_GT(answer->error_bound, 0.0);
}

TEST(ModelAqpTest, SelectionQueryOverEnumeratedGrid) {
  AqpFixture f;
  // Paper query 2: all sources whose predicted intensity at 0.15 exceeds a
  // threshold.
  auto answer = f.engine->Execute(
      "SELECT source, intensity FROM measurements WHERE wavelength = 0.15 "
      "AND intensity > 5.0");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->raw_rows_accessed, 0u);
  // Exact comparison: p_s * 0.15^-0.7 > 5  =>  p_s > 1.33  => s >= 17ish.
  const double cutoff = 5.0 / std::pow(0.15, -0.7);
  int expected = 0;
  for (int s = 1; s <= 30; ++s) {
    if (0.5 + 0.05 * s > cutoff) ++expected;
  }
  EXPECT_NEAR(static_cast<double>(answer->table.num_rows()),
              static_cast<double>(expected), 1.0);
}

TEST(ModelAqpTest, AggregateOverModel) {
  AqpFixture f;
  auto answer = f.engine->Execute(
      "SELECT AVG(intensity) FROM measurements WHERE wavelength = 0.12");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->table.num_rows(), 1u);
  double expected = 0.0;
  for (int s = 1; s <= 30; ++s) {
    expected += (0.5 + 0.05 * s) * std::pow(0.12, -0.7);
  }
  expected /= 30.0;
  EXPECT_NEAR(answer->table.GetValue(0, 0).dbl(), expected,
              expected * 0.02);
}

TEST(ModelAqpTest, UnpinnedNonEnumerableDimensionFails) {
  AqpFixture f;
  DomainRegistry empty;
  ModelQueryEngine engine(&f.data, &f.models, &empty);
  auto answer = engine.Execute(
      "SELECT intensity FROM measurements WHERE source = 7");
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  // But a pinned query still works without a domain.
  auto pinned = engine.Execute(
      "SELECT intensity FROM measurements WHERE source = 7 AND wavelength = "
      "0.15");
  EXPECT_TRUE(pinned.ok()) << pinned.status().ToString();
}

TEST(ModelAqpTest, UncoveredColumnFails) {
  AqpFixture f;
  auto answer = f.engine->Execute(
      "SELECT nonexistent FROM measurements WHERE source = 1");
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kNotFound);
}

TEST(ModelAqpTest, StaleModelIsNotUsed) {
  AqpFixture f;
  auto table = *f.data.Get("measurements");
  ASSERT_TRUE(table
                  ->AppendRow({Value::Int64(1), Value::Double(0.15),
                               Value::Double(1.0)})
                  .ok());
  auto answer = f.engine->Execute(
      "SELECT intensity FROM measurements WHERE source = 1 AND wavelength = "
      "0.15");
  EXPECT_FALSE(answer.ok());  // only model is stale now
}

TEST(ModelAqpTest, LegalFilterDropsPhantomCombinations) {
  AqpFixture f;
  // Build legality over the raw data: every source was observed at all 4
  // bands (high row count), so this mostly checks plumbing + the negative
  // probe below.
  auto table = *f.data.Get("measurements");
  auto filter =
      LegalCombinationFilter::Build(*table, "source", {"wavelength"}, 0.001);
  ASSERT_TRUE(filter.ok());
  f.engine->AttachLegalFilter(f.model_id, std::move(*filter));
  // A wavelength that never occurred: enumeration admits nothing.
  auto phantom = f.engine->Execute(
      "SELECT intensity FROM measurements WHERE source = 7 AND wavelength = "
      "0.55");
  ASSERT_TRUE(phantom.ok()) << phantom.status().ToString();
  EXPECT_EQ(phantom->table.num_rows(), 0u);
  // Legal combinations still answer.
  auto legal = f.engine->Execute(
      "SELECT intensity FROM measurements WHERE source = 7 AND wavelength = "
      "0.15");
  ASSERT_TRUE(legal.ok());
  EXPECT_EQ(legal->table.num_rows(), 1u);
}

TEST(ModelAqpTest, ReconstructTableZeroIo) {
  AqpFixture f;
  auto model = f.models.Get(f.model_id);
  ASSERT_TRUE(model.ok());
  auto recon = f.engine->ReconstructTable(**model, {});
  ASSERT_TRUE(recon.ok()) << recon.status().ToString();
  EXPECT_EQ(recon->raw_rows_accessed, 0u);
  // 30 sources x 4 bands.
  EXPECT_EQ(recon->table.num_rows(), 120u);
  EXPECT_EQ(recon->tuples_reconstructed, 120u);
}

TEST(ModelAqpTest, TupleCapEnforced) {
  AqpFixture f;
  f.engine->set_max_tuples(10);
  auto answer = f.engine->Execute(
      "SELECT AVG(intensity) FROM measurements WHERE wavelength = 0.12");
  EXPECT_FALSE(answer.ok());
}

TEST(RangeConstraintTest, ExtractsConjunctiveRanges) {
  auto e = ParseExpression(
      "source = 42 AND wavelength >= 0.1 AND wavelength < 0.2 AND "
      "intensity > 3.0");
  ASSERT_TRUE(e.ok());
  auto ranges = ExtractRangeConstraints(e->get());
  ASSERT_EQ(ranges.count("source"), 1u);
  EXPECT_DOUBLE_EQ(ranges["source"].first, 42.0);
  EXPECT_DOUBLE_EQ(ranges["source"].second, 42.0);
  EXPECT_DOUBLE_EQ(ranges["wavelength"].first, 0.1);
  EXPECT_DOUBLE_EQ(ranges["wavelength"].second, 0.2);
  EXPECT_DOUBLE_EQ(ranges["intensity"].first, 3.0);
  // Disjunctions contribute nothing.
  auto e2 = ParseExpression("source = 1 OR source = 2");
  auto r2 = ExtractRangeConstraints(e2->get());
  EXPECT_TRUE(r2.empty());
}

// --- Analytic linear aggregates --------------------------------------------

CapturedModel LinearCaptured(double intercept, double slope, double rse) {
  CapturedModel m;
  m.model_source = "linear(1)";
  m.parameters = {intercept, slope};
  m.quality.residual_standard_error = rse;
  return m;
}

TEST(AnalyticTest, ClosedFormsOnIntegerRange) {
  CapturedModel m = LinearCaptured(2.0, 3.0, 0.5);
  auto domain = ColumnDomain::IntegerRange(0, 99, 1);
  auto count = AnalyticLinearAggregate(m, AggregateFunc::kCount, domain, 10,
                                       19);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count->value, 10.0);
  auto sum =
      AnalyticLinearAggregate(m, AggregateFunc::kSum, domain, 10, 19);
  ASSERT_TRUE(sum.ok());
  // sum(2 + 3x) for x=10..19 = 20 + 3*145 = 455.
  EXPECT_DOUBLE_EQ(sum->value, 455.0);
  auto avg =
      AnalyticLinearAggregate(m, AggregateFunc::kAvg, domain, 10, 19);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(avg->value, 45.5);
  auto mn = AnalyticLinearAggregate(m, AggregateFunc::kMin, domain, 10, 19);
  auto mx = AnalyticLinearAggregate(m, AggregateFunc::kMax, domain, 10, 19);
  EXPECT_DOUBLE_EQ(mn->value, 32.0);
  EXPECT_DOUBLE_EQ(mx->value, 59.0);
  // Error bounds follow RSE scaling.
  EXPECT_DOUBLE_EQ(mn->error_bound, 0.5);
  EXPECT_NEAR(avg->error_bound, 0.5 / std::sqrt(10.0), 1e-12);
  EXPECT_NEAR(sum->error_bound, 0.5 * std::sqrt(10.0), 1e-12);
}

TEST(AnalyticTest, NegativeSlopeFlipsExtremes) {
  CapturedModel m = LinearCaptured(10.0, -2.0, 0.1);
  auto domain = ColumnDomain::IntegerRange(0, 10, 1);
  auto mn = AnalyticLinearAggregate(m, AggregateFunc::kMin, domain, 0, 10);
  auto mx = AnalyticLinearAggregate(m, AggregateFunc::kMax, domain, 0, 10);
  EXPECT_DOUBLE_EQ(mn->value, -10.0);  // at x=10
  EXPECT_DOUBLE_EQ(mx->value, 10.0);   // at x=0
}

TEST(AnalyticTest, ExplicitDomainFallback) {
  CapturedModel m = LinearCaptured(0.0, 1.0, 0.0);
  auto domain = ColumnDomain::Explicit({1.0, 2.0, 5.0});
  auto sum = AnalyticLinearAggregate(m, AggregateFunc::kSum, domain, 0, 10);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum->value, 8.0);
  EXPECT_EQ(sum->n, 3u);
}

TEST(AnalyticTest, EmptyRangeAndValidation) {
  CapturedModel m = LinearCaptured(0.0, 1.0, 0.0);
  auto domain = ColumnDomain::IntegerRange(0, 10, 1);
  auto empty =
      AnalyticLinearAggregate(m, AggregateFunc::kCount, domain, 20, 30);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->n, 0u);
  CapturedModel grouped = m;
  grouped.grouped = true;
  EXPECT_FALSE(
      AnalyticLinearAggregate(grouped, AggregateFunc::kSum, domain, 0, 5)
          .ok());
  CapturedModel wrong = m;
  wrong.model_source = "power_law";
  EXPECT_FALSE(
      AnalyticLinearAggregate(wrong, AggregateFunc::kSum, domain, 0, 5).ok());
}

// --- Sampling baseline -------------------------------------------------------

TEST(SamplingTest, EstimatesNearTruth) {
  Rng rng(6);
  Table t(Schema({Field{"x", DataType::kDouble, false}}));
  double exact_sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.Uniform(0.0, 10.0);
    exact_sum += v;
    ASSERT_TRUE(t.AppendRow({Value::Double(v)}).ok());
  }
  auto built = SamplingEngine::Build(t, 0.01);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const SamplingEngine& engine = *built;
  EXPECT_NEAR(engine.fraction(), 0.01, 0.003);
  auto count = engine.EstimateAggregate(AggregateFunc::kCount, "x", nullptr);
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(count->value, 100000.0, 1.0);  // scaled by 1/actual_fraction
  auto avg = engine.EstimateAggregate(AggregateFunc::kAvg, "x", nullptr);
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->value, 5.0, 3.0 * avg->ci_half_width / 1.96);
  auto sum = engine.EstimateAggregate(AggregateFunc::kSum, "x", nullptr);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(sum->value, exact_sum, exact_sum * 0.05);
}

TEST(SamplingTest, FilteredEstimates) {
  Rng rng(7);
  Table t(Schema({Field{"x", DataType::kDouble, false}}));
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value::Double(rng.Uniform(0.0, 1.0))}).ok());
  }
  auto built = SamplingEngine::Build(t, 0.05);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const SamplingEngine& engine = *built;
  auto pred = ParseExpression("x < 0.25");
  ASSERT_TRUE(pred.ok());
  auto count =
      engine.EstimateAggregate(AggregateFunc::kCount, "x", pred->get());
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(count->value, 12500.0, 3.0 * count->ci_half_width / 1.96 + 500);
}

TEST(SamplingTest, SampleIsSmallerThanTable) {
  Rng rng(8);
  Table t(Schema({Field{"x", DataType::kDouble, false}}));
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Double(rng.Normal())}).ok());
  }
  auto built = SamplingEngine::Build(t, 0.02);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const SamplingEngine& engine = *built;
  EXPECT_LT(engine.SampleBytes(), t.MemoryBytes() / 10);
}

// --- Hybrid engine -----------------------------------------------------------

TEST(HybridTest, UsesModelWhenGoodAndCovering) {
  AqpFixture f;
  HybridQueryEngine hybrid(&f.data, f.engine.get());
  auto answer = hybrid.Execute(
      "SELECT intensity FROM measurements WHERE source = 7 AND wavelength = "
      "0.15");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->approximate);
  EXPECT_EQ(answer->method, "model-point");
  EXPECT_GT(answer->error_bound, 0.0);
  EXPECT_TRUE(answer->fallback_reason.empty());
}

TEST(HybridTest, FallsBackToExactForUncoveredQuery) {
  AqpFixture f;
  HybridQueryEngine hybrid(&f.data, f.engine.get());
  // Aggregate over everything is covered, but a query with no usable
  // model path (unpinned + non-enumerable in an empty-domain engine) is
  // not — emulate by referencing the raw table through a predicate the
  // model path can serve, then one it cannot: here, no model covers a
  // query that references nothing but still needs exactness? Use a
  // DISTINCT query: reconstruction handles it too, so instead drop the
  // domain registry.
  DomainRegistry empty;
  ModelQueryEngine no_domains(&f.data, &f.models, &empty);
  HybridQueryEngine hybrid2(&f.data, &no_domains);
  auto answer =
      hybrid2.Execute("SELECT AVG(intensity) FROM measurements");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->approximate);
  EXPECT_EQ(answer->method, "exact");
  EXPECT_FALSE(answer->fallback_reason.empty());
}

TEST(HybridTest, QualityGateForcesExact) {
  AqpFixture f;
  HybridOptions strict;
  strict.min_quality = 0.9999;  // no real fit clears this
  HybridQueryEngine hybrid(&f.data, f.engine.get(), strict);
  auto answer = hybrid.Execute(
      "SELECT AVG(intensity) FROM measurements WHERE source = 7 AND "
      "wavelength = 0.15");
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->approximate);
  EXPECT_NE(answer->fallback_reason.find("quality"), std::string::npos);
}

TEST(HybridTest, NoFallbackModeFails) {
  AqpFixture f;
  DomainRegistry empty;
  ModelQueryEngine no_domains(&f.data, &f.models, &empty);
  HybridOptions opts;
  opts.allow_exact_fallback = false;
  HybridQueryEngine hybrid(&f.data, &no_domains, opts);
  EXPECT_FALSE(
      hybrid.Execute("SELECT AVG(intensity) FROM measurements").ok());
}

// A model fitted on a subset describes only that subset. Here y is
// quadratic below x = 5 and linear from there; linear(1) fits the upper
// regime near-perfectly and the whole table poorly. A query over x < 3 must
// not be answered from the subset model, however well it fits: the full
// model is below the quality gate, so the answer is the exact one.
TEST(HybridTest, PartialModelNeverAnswersOutsideItsSubset) {
  Catalog data;
  ModelCatalog models;
  Session session(&data, &models);
  Rng rng(6000);
  auto t = std::make_shared<Table>(
      Schema({Field{"x", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 6000; ++i) {
    const double x = static_cast<double>(rng.UniformInt(0, 9));
    const double y = x < 5.0 ? 1.0 + 0.3 * x * x : 12.0 - 0.9 * x;
    ASSERT_TRUE(t->AppendRow({Value::Double(x),
                              Value::Double(y + rng.Normal(0.0, 0.05))})
                    .ok());
  }
  data.RegisterOrReplace("t", t);
  FitRequest full;
  full.table = "t";
  full.model_source = "linear(1)";
  full.input_columns = {"x"};
  full.output_column = "y";
  auto full_fit = session.Fit(full);
  ASSERT_TRUE(full_fit.ok()) << full_fit.status().ToString();
  FitRequest upper = full;
  upper.where = "x >= 5";
  auto upper_fit = session.Fit(upper);
  ASSERT_TRUE(upper_fit.ok()) << upper_fit.status().ToString();
  EXPECT_LT(full_fit->quality.adjusted_r_squared, 0.8);
  EXPECT_GT(upper_fit->quality.adjusted_r_squared, 0.99);

  DomainRegistry domains;
  domains.Register("t", "x", ColumnDomain::IntegerRange(0, 9, 1));
  ModelQueryEngine engine(&data, &models, &domains);
  HybridQueryEngine hybrid(&data, &engine);
  const std::string sql = "SELECT AVG(y) FROM t WHERE x < 3";
  auto answer = hybrid.Execute(sql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->method, "exact");
  EXPECT_FALSE(answer->approximate);
  auto exact = ExecuteQuery(data, sql);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(answer->table.num_rows(), 1u);
  EXPECT_EQ(answer->table.GetValue(0, 0), exact->GetValue(0, 0));
}

// A power law evaluated at wavelength 0 predicts inf, and at a negative
// wavelength NaN. Over the benchmark's LOFAR shape (its seed, no band
// jitter) the model path used to serve those as approximate answers; it
// declines them now, and the exact answer (no row matches: NULL) is
// served. Reads at the four observed bands stay model answers.
TEST(HybridTest, NonFiniteModelAnswersFallBackToExact) {
  LofarConfig config;
  config.num_sources = 200;
  config.num_rows = 8'000;
  config.band_jitter = 0.0;
  auto lofar = GenerateLofar(config);
  ASSERT_TRUE(lofar.ok()) << lofar.status().ToString();
  Catalog data;
  ModelCatalog models;
  data.RegisterOrReplace(
      "measurements", std::make_shared<Table>(std::move(lofar->observations)));
  Session session(&data, &models);
  FitRequest fit;
  fit.table = "measurements";
  fit.model_source = "power_law";
  fit.input_columns = {"wavelength"};
  fit.output_column = "intensity";
  fit.group_column = "source";
  ASSERT_TRUE(session.Fit(fit).ok());
  DomainRegistry domains;
  domains.Register("measurements", "wavelength",
                   ColumnDomain::Explicit(config.bands));
  ModelQueryEngine engine(&data, &models, &domains);
  HybridQueryEngine hybrid(&data, &engine);

  for (const char* sql :
       {"SELECT AVG(intensity) FROM measurements WHERE source = 5 AND "
        "wavelength = 0",
        "SELECT AVG(intensity) FROM measurements WHERE source = 5 AND "
        "wavelength = -0.1",
        "SELECT AVG(intensity) FROM measurements WHERE wavelength = 0"}) {
    auto model = engine.Execute(sql);
    ASSERT_FALSE(model.ok()) << sql;
    EXPECT_EQ(model.status().code(), StatusCode::kNumericError) << sql;
    auto answer = hybrid.Execute(sql);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->method, "exact") << sql;
    EXPECT_FALSE(answer->approximate) << sql;
    ASSERT_EQ(answer->table.num_rows(), 1u);
    EXPECT_TRUE(answer->table.GetValue(0, 0).is_null()) << sql;
  }
  for (double band : config.bands) {
    const std::string at = FormatDouble(band);
    for (const std::string& sql :
         {"SELECT AVG(intensity) FROM measurements WHERE source = 5 AND "
          "wavelength = " + at,
          "SELECT AVG(intensity) FROM measurements WHERE wavelength = " +
              at}) {
      auto answer = hybrid.Execute(sql);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_TRUE(answer->approximate) << sql << ": "
                                       << answer->fallback_reason;
      EXPECT_TRUE(std::isfinite(answer->table.GetValue(0, 0).dbl())) << sql;
    }
  }
}

// --- Multi-input enumeration --------------------------------------------------

TEST(ModelAqpTest, TwoInputDimensionsEnumerate) {
  // y = 1 + 2*x1 + 3*x2 over small explicit domains; grid = |x1| * |x2|.
  Catalog data;
  ModelCatalog models;
  Rng rng(77);
  auto t = std::make_shared<Table>(
      Schema({Field{"x1", DataType::kDouble, false},
              Field{"x2", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
  const std::vector<double> d1 = {0.0, 1.0, 2.0};
  const std::vector<double> d2 = {10.0, 20.0};
  for (int rep = 0; rep < 50; ++rep) {
    const double x1 = d1[static_cast<size_t>(rng.UniformInt(0, 2))];
    const double x2 = d2[static_cast<size_t>(rng.UniformInt(0, 1))];
    ASSERT_TRUE(
        t->AppendRow({Value::Double(x1), Value::Double(x2),
                      Value::Double(1 + 2 * x1 + 3 * x2 +
                                    rng.Normal(0, 0.01))})
            .ok());
  }
  data.RegisterOrReplace("grid2", t);
  Session session(&data, &models);
  FitRequest fit;
  fit.table = "grid2";
  fit.model_source = "linear(2)";
  fit.input_columns = {"x1", "x2"};
  fit.output_column = "y";
  ASSERT_TRUE(session.Fit(fit).ok());
  DomainRegistry domains;
  domains.Register("grid2", "x1", ColumnDomain::Explicit(d1));
  domains.Register("grid2", "x2", ColumnDomain::Explicit(d2));
  ModelQueryEngine engine(&data, &models, &domains);
  auto all = engine.Execute("SELECT x1, x2, y FROM grid2");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->table.num_rows(), 6u);  // 3 x 2 grid
  // Pin one dimension; the other enumerates.
  auto pinned = engine.Execute(
      "SELECT y FROM grid2 WHERE x1 = 1 ORDER BY y");
  ASSERT_TRUE(pinned.ok());
  ASSERT_EQ(pinned->table.num_rows(), 2u);
  EXPECT_NEAR(pinned->table.GetValue(0, 0).dbl(), 33.0, 0.1);
  EXPECT_NEAR(pinned->table.GetValue(1, 0).dbl(), 63.0, 0.1);
}

// --- Stratified sampling baseline -------------------------------------------

TEST(StratifiedSamplingTest, SelectivePredicateStillAnswered) {
  // One giant group and many small ones: a uniform 1% sample rarely sees
  // small groups; the stratified sample always does.
  Rng rng(11);
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"v", DataType::kDouble, false}}));
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(1),
                             Value::Double(rng.Normal(100, 5))})
                    .ok());
  }
  for (int g = 2; g <= 100; ++g) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(t.AppendRow({Value::Int64(g),
                               Value::Double(rng.Normal(10.0 * g, 1.0))})
                      .ok());
    }
  }
  auto strat = StratifiedSamplingEngine::Build(t, "g", 20);
  ASSERT_TRUE(strat.ok()) << strat.status().ToString();
  EXPECT_EQ(strat->num_groups(), 100u);
  // Every group contributed at most 20 rows.
  EXPECT_LE(strat->sample_rows(), 100u * 20u);

  auto pred = ParseExpression("g = 57");
  ASSERT_TRUE(pred.ok());
  auto avg = strat->EstimateAggregate(AggregateFunc::kAvg, "v", pred->get());
  ASSERT_TRUE(avg.ok());
  EXPECT_GT(avg->sample_rows_used, 0u);
  EXPECT_NEAR(avg->value, 570.0, 2.0);
  auto count =
      strat->EstimateAggregate(AggregateFunc::kCount, "v", pred->get());
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(count->value, 50.0, 1e-9);  // 20 rows * weight 2.5

  // The uniform sample at comparable size usually misses it badly.
  auto uniform =
      SamplingEngine::Build(t, static_cast<double>(strat->sample_rows()) /
                                   static_cast<double>(t.num_rows()));
  ASSERT_TRUE(uniform.ok()) << uniform.status().ToString();
  auto ucount =
      uniform->EstimateAggregate(AggregateFunc::kCount, "v", pred->get());
  ASSERT_TRUE(ucount.ok());
  EXPECT_GT(std::fabs(count->value - 50.0) + 1.0,
            0.0);  // stratified is exact here; uniform is noisy
}

TEST(StratifiedSamplingTest, WeightedSumMatchesPopulation) {
  Rng rng(12);
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"v", DataType::kDouble, false}}));
  double exact_sum = 0.0;
  for (int g = 1; g <= 40; ++g) {
    const int rows = 10 * g;  // strongly varying strata sizes
    for (int i = 0; i < rows; ++i) {
      const double v = rng.Uniform(0.0, 10.0);
      exact_sum += v;
      ASSERT_TRUE(t.AppendRow({Value::Int64(g), Value::Double(v)}).ok());
    }
  }
  auto strat = StratifiedSamplingEngine::Build(t, "g", 25, 7);
  ASSERT_TRUE(strat.ok());
  auto sum = strat->EstimateAggregate(AggregateFunc::kSum, "v", nullptr);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(sum->value, exact_sum, exact_sum * 0.1);
}

TEST(StratifiedSamplingTest, Validation) {
  Table t(Schema({Field{"g", DataType::kDouble, false}}));
  EXPECT_FALSE(StratifiedSamplingEngine::Build(t, "g", 10).ok());  // type
  Table t2(Schema({Field{"g", DataType::kInt64, false}}));
  EXPECT_FALSE(StratifiedSamplingEngine::Build(t2, "g", 0).ok());  // cap
  EXPECT_FALSE(StratifiedSamplingEngine::Build(t2, "missing", 5).ok());
}

// --- Histogram baseline -----------------------------------------------------

TEST(HistogramAqpTest, RangeEstimates) {
  Rng rng(9);
  Table t(Schema({Field{"x", DataType::kDouble, false},
                  Field{"tag", DataType::kString, false}}));
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Double(rng.Uniform(0.0, 100.0)),
                             Value::String("a")})
                    .ok());
  }
  auto engine = HistogramEngine::Build(t, 64);
  ASSERT_TRUE(engine.ok());
  auto count =
      engine->EstimateRange(AggregateFunc::kCount, "x", "x", 25.0, 75.0);
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(*count, 25000.0, 1000.0);
  auto avg = engine->EstimateRange(AggregateFunc::kAvg, "x", "x", 25.0, 75.0);
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(*avg, 50.0, 2.0);
  // Cross-column SUM is not derivable.
  EXPECT_EQ(engine
                ->EstimateRange(AggregateFunc::kSum, "y", "x", 0.0, 1.0)
                .status()
                .code(),
            StatusCode::kUnimplemented);
  // String columns got no histogram.
  EXPECT_EQ(engine->GetHistogram("tag"), nullptr);
  EXPECT_GT(engine->SizeBytes(), 0u);
  EXPECT_LT(engine->SizeBytes(), t.MemoryBytes() / 100);
}

// --- Inverse prediction --------------------------------------------------

TEST(InverseTest, PredictsInputIntervalsPerGroup) {
  // Two captured linear groups: g1: y = x, g2: y = 2x over x = 0..10.
  CapturedModel m;
  m.model_source = "linear(1)";
  m.grouped = true;
  Table pt(Schema({Field{"g", DataType::kInt64, false},
                   Field{"intercept", DataType::kDouble, false},
                   Field{"b1", DataType::kDouble, false},
                   Field{"residual_se", DataType::kDouble, false},
                   Field{"r_squared", DataType::kDouble, false},
                   Field{"n_obs", DataType::kInt64, false}}));
  ASSERT_TRUE(pt.AppendRow({Value::Int64(1), Value::Double(0.0),
                            Value::Double(1.0), Value::Double(0.01),
                            Value::Double(0.99), Value::Int64(10)})
                  .ok());
  ASSERT_TRUE(pt.AppendRow({Value::Int64(2), Value::Double(0.0),
                            Value::Double(2.0), Value::Double(0.01),
                            Value::Double(0.99), Value::Int64(10)})
                  .ok());
  m.parameter_table = std::move(pt);

  const auto domain = ColumnDomain::IntegerRange(0, 10, 1);
  auto regions = InversePredict(m, domain, 4.0, 6.0);
  ASSERT_TRUE(regions.ok()) << regions.status().ToString();
  ASSERT_EQ(regions->size(), 2u);
  // g1: y in [4,6] for x in [4,6]; g2: y in [4,6] for x in {2,3}.
  EXPECT_EQ((*regions)[0].group_key, 1);
  EXPECT_DOUBLE_EQ((*regions)[0].input_lo, 4.0);
  EXPECT_DOUBLE_EQ((*regions)[0].input_hi, 6.0);
  EXPECT_EQ((*regions)[0].points, 3u);
  EXPECT_EQ((*regions)[1].group_key, 2);
  EXPECT_DOUBLE_EQ((*regions)[1].input_lo, 2.0);
  EXPECT_DOUBLE_EQ((*regions)[1].input_hi, 3.0);
}

TEST(InverseTest, DisjointRegionsForNonMonotoneModel) {
  // y = x^2 over x in [-5, 5]: y in [4, 9] has two symmetric regions.
  CapturedModel m;
  m.model_source = "poly(2)";
  m.grouped = false;
  m.parameters = {0.0, 0.0, 1.0};
  const auto domain = ColumnDomain::IntegerRange(-5, 5, 1);
  auto regions = InversePredict(m, domain, 4.0, 9.0);
  ASSERT_TRUE(regions.ok());
  ASSERT_EQ(regions->size(), 2u);
  EXPECT_DOUBLE_EQ((*regions)[0].input_lo, -3.0);
  EXPECT_DOUBLE_EQ((*regions)[0].input_hi, -2.0);
  EXPECT_DOUBLE_EQ((*regions)[1].input_lo, 2.0);
  EXPECT_DOUBLE_EQ((*regions)[1].input_hi, 3.0);
}

TEST(InverseTest, EmptyAndInvalidTargets) {
  CapturedModel m;
  m.model_source = "linear(1)";
  m.parameters = {0.0, 1.0};
  const auto domain = ColumnDomain::IntegerRange(0, 10, 1);
  auto none = InversePredict(m, domain, 100.0, 200.0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_FALSE(InversePredict(m, domain, 5.0, 4.0).ok());
}

TEST(InverseTest, InvertMonotoneBisection) {
  PowerLawModel model;
  const Vector params = {2.0, -0.7};
  // f(x) = 2 x^-0.7 is decreasing; find x with f(x) = 3.
  auto x = InvertMonotone(model, params, 3.0, 0.05, 2.0);
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  EXPECT_NEAR(model.Evaluate({*x}, params), 3.0, 1e-8);
  // Out-of-range target.
  EXPECT_EQ(InvertMonotone(model, params, 1000.0, 0.05, 2.0).status().code(),
            StatusCode::kNotFound);
  // Non-monotone model on a straddling interval.
  PolynomialModel parabola(2);
  EXPECT_FALSE(
      InvertMonotone(parabola, {0.0, 0.0, 1.0}, 4.0, -5.0, 5.0).ok());
  // Empty interval.
  EXPECT_FALSE(InvertMonotone(model, params, 3.0, 2.0, 1.0).ok());
}

// --- Materialized model views (MauveDB-style) ------------------------------

TEST(ModelViewTest, MaterializeAndQueryWithExactEngine) {
  AqpFixture f;
  auto tuples = f.engine->MaterializeView(f.model_id, "mview", &f.data);
  ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
  EXPECT_EQ(*tuples, 30u * 4u);  // sources x bands
  // The view is a normal table now.
  auto result = ExecuteQuery(
      f.data, "SELECT COUNT(*) FROM mview WHERE wavelength = 0.12");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->GetValue(0, 0).int64(), 30);
  EXPECT_FALSE(f.engine->MaterializeView(999999, "x", &f.data).ok());
  EXPECT_FALSE(f.engine->MaterializeView(f.model_id, "x", nullptr).ok());
}

TEST(HistogramAqpTest, MinMaxClampedToRange) {
  Table t(Schema({Field{"x", DataType::kDouble, false}}));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Double(static_cast<double>(i))}).ok());
  }
  auto engine = HistogramEngine::Build(t, 10);
  ASSERT_TRUE(engine.ok());
  auto mn = engine->EstimateRange(AggregateFunc::kMin, "x", "x", 250.0, 600.0);
  auto mx = engine->EstimateRange(AggregateFunc::kMax, "x", "x", 250.0, 600.0);
  ASSERT_TRUE(mn.ok());
  ASSERT_TRUE(mx.ok());
  EXPECT_NEAR(*mn, 250.0, 100.0);
  EXPECT_NEAR(*mx, 600.0, 100.0);
}

}  // namespace
}  // namespace laws
