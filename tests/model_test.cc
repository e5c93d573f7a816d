#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "common/random.h"
#include "common/thread_pool.h"
#include "model/fit.h"
#include "model/fit_kernels.h"
#include "model/grouped_fit.h"
#include "model/incremental.h"
#include "model/model.h"
#include "model/robust.h"
#include "storage/serialize.h"

namespace laws {
namespace {

/// Checks analytic parameter gradients against central differences.
void CheckParameterGradient(const Model& model, const Vector& x,
                            const Vector& params, double tol = 1e-5) {
  Vector analytic;
  model.ParameterGradient(x, params, &analytic);
  ASSERT_EQ(analytic.size(), model.num_parameters());
  Vector p = params;
  for (size_t j = 0; j < params.size(); ++j) {
    const double h = 1e-6 * std::max(1.0, std::fabs(params[j]));
    p[j] = params[j] + h;
    const double fp = model.Evaluate(x, p);
    p[j] = params[j] - h;
    const double fm = model.Evaluate(x, p);
    p[j] = params[j];
    EXPECT_NEAR(analytic[j], (fp - fm) / (2 * h),
                tol * std::max(1.0, std::fabs(analytic[j])))
        << model.name() << " d/dp" << j;
  }
}

// --- Individual models ---------------------------------------------------

TEST(LinearModelTest, EvaluateAndBasis) {
  LinearModel m(2);
  EXPECT_EQ(m.num_parameters(), 3u);
  const Vector params = {1.0, 2.0, -3.0};
  EXPECT_DOUBLE_EQ(m.Evaluate({10.0, 1.0}, params), 1 + 20 - 3);
  Vector phi;
  ASSERT_TRUE(m.BasisFunctions({10.0, 1.0}, &phi).ok());
  EXPECT_EQ(phi, (Vector{1.0, 10.0, 1.0}));
  EXPECT_TRUE(m.IsLinearInParameters());
  CheckParameterGradient(m, {0.5, -2.0}, params);
}

TEST(LinearModelTest, InputGradientIsSlope) {
  LinearModel m(2);
  Vector grad;
  m.InputGradient({5.0, 5.0}, {0.0, 2.0, -1.0}, &grad);
  EXPECT_DOUBLE_EQ(grad[0], 2.0);
  EXPECT_DOUBLE_EQ(grad[1], -1.0);
}

TEST(PolynomialModelTest, HornerEvaluation) {
  PolynomialModel m(3);
  // 1 + 2x + 3x^2 + 4x^3 at x=2: 1+4+12+32 = 49.
  EXPECT_DOUBLE_EQ(m.Evaluate({2.0}, {1, 2, 3, 4}), 49.0);
  CheckParameterGradient(m, {1.7}, {1, 2, 3, 4});
  Vector grad;
  m.InputGradient({2.0}, {1, 2, 3, 4}, &grad);
  // d/dx = 2 + 6x + 12x^2 at x=2: 2+12+48 = 62.
  EXPECT_DOUBLE_EQ(grad[0], 62.0);
}

TEST(PowerLawModelTest, EvaluateAndGradients) {
  PowerLawModel m;
  const Vector params = {2.0, -0.7};
  EXPECT_NEAR(m.Evaluate({0.15}, params), 2.0 * std::pow(0.15, -0.7), 1e-12);
  CheckParameterGradient(m, {0.15}, params);
  Vector grad;
  m.InputGradient({0.15}, params, &grad);
  EXPECT_NEAR(grad[0], 2.0 * -0.7 * std::pow(0.15, -1.7), 1e-6);
}

TEST(PowerLawModelTest, ClosedFormWarmStartRecoversParams) {
  Rng rng(1);
  const double p_true = 1.5, a_true = -0.8;
  Matrix x(100, 1);
  Vector y(100);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.Uniform(0.1, 0.2);
    y[i] = p_true * std::pow(x(i, 0), a_true);
  }
  PowerLawModel m;
  FitScratch scratch;
  Vector params;
  ASSERT_TRUE(ClosedFormWarmStart(m, x, y, &scratch, &params));
  EXPECT_NEAR(params[0], p_true, 1e-9);
  EXPECT_NEAR(params[1], a_true, 1e-9);
}

TEST(PowerLawModelTest, ClosedFormWarmStartRejectsNonPositive) {
  Matrix x(3, 1);
  x(0, 0) = 0.1;
  x(1, 0) = 0.2;
  x(2, 0) = 0.3;
  PowerLawModel m;
  FitScratch scratch;
  Vector params;
  EXPECT_FALSE(ClosedFormWarmStart(m, x, {1.0, -1.0, 2.0}, &scratch, &params));
  x(1, 0) = 0.0;
  EXPECT_FALSE(ClosedFormWarmStart(m, x, {1.0, 1.0, 2.0}, &scratch, &params));
}

TEST(ExponentialModelTest, EvaluateGradientsAndClosedFormWarmStart) {
  ExponentialModel m;
  const Vector params = {3.0, -0.5};
  EXPECT_NEAR(m.Evaluate({2.0}, params), 3.0 * std::exp(-1.0), 1e-12);
  CheckParameterGradient(m, {2.0}, params);
  Rng rng(2);
  Matrix x(50, 1);
  Vector y(50);
  for (size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.Uniform(0.0, 5.0);
    y[i] = 3.0 * std::exp(-0.5 * x(i, 0));
  }
  FitScratch scratch;
  Vector est;
  ASSERT_TRUE(ClosedFormWarmStart(m, x, y, &scratch, &est));
  EXPECT_NEAR(est[0], 3.0, 1e-9);
  EXPECT_NEAR(est[1], -0.5, 1e-9);
}

TEST(LogisticModelTest, EvaluateAndGradient) {
  LogisticModel m;
  const Vector params = {4.0, 2.0, 1.0};  // L, k, x0
  EXPECT_NEAR(m.Evaluate({1.0}, params), 2.0, 1e-12);  // midpoint = L/2
  CheckParameterGradient(m, {0.3}, params);
  CheckParameterGradient(m, {2.5}, params);
}

TEST(SeasonalModelTest, BasisAndEvaluate) {
  SeasonalModel m(7.0);
  EXPECT_EQ(m.num_parameters(), 4u);
  const Vector params = {10.0, 2.0, -1.0, 0.1};
  const double x = 3.0;
  const double w = 2.0 * M_PI * x / 7.0;
  EXPECT_NEAR(m.Evaluate({x}, params),
              10.0 + 2.0 * std::sin(w) - std::cos(w) + 0.3, 1e-12);
  EXPECT_TRUE(m.IsLinearInParameters());
  SeasonalModel no_trend(7.0, false);
  EXPECT_EQ(no_trend.num_parameters(), 3u);
}

TEST(PiecewisePolyModelTest, SegmentsAndEvaluate) {
  PiecewisePolynomialModel m({10.0, 20.0}, 1);
  EXPECT_EQ(m.num_segments(), 3u);
  EXPECT_EQ(m.num_parameters(), 6u);
  EXPECT_EQ(m.SegmentOf(5.0), 0u);
  EXPECT_EQ(m.SegmentOf(10.0), 1u);  // breakpoint belongs to the right
  EXPECT_EQ(m.SegmentOf(15.0), 1u);
  EXPECT_EQ(m.SegmentOf(25.0), 2u);
  // Params: seg0 = 1 + 2x, seg1 = 3 + 4x, seg2 = 5 + 6x.
  const Vector params = {1, 2, 3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(m.Evaluate({5.0}, params), 11.0);
  EXPECT_DOUBLE_EQ(m.Evaluate({15.0}, params), 63.0);
  EXPECT_DOUBLE_EQ(m.Evaluate({25.0}, params), 155.0);
  Vector phi;
  ASSERT_TRUE(m.BasisFunctions({15.0}, &phi).ok());
  EXPECT_EQ(phi, (Vector{0, 0, 1, 15, 0, 0}));
}

// --- Source round trips ----------------------------------------------------

class SourceRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SourceRoundTrip, ParsesAndReserializes) {
  auto m = ModelFromSource(GetParam());
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ((*m)->ToSource(), GetParam());
  auto again = ModelFromSource((*m)->ToSource());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->num_parameters(), (*m)->num_parameters());
  EXPECT_EQ((*again)->name(), (*m)->name());
}

INSTANTIATE_TEST_SUITE_P(Sources, SourceRoundTrip,
                         ::testing::Values("power_law", "exponential",
                                           "logistic", "linear(1)",
                                           "linear(3)", "poly(2)", "poly(0)",
                                           "piecewise_poly(1;10,20)"));

TEST(SourceTest, SeasonalRoundTrip) {
  auto m = ModelFromSource("seasonal(7)");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->num_parameters(), 4u);
  auto back = ModelFromSource((*m)->ToSource());
  ASSERT_TRUE(back.ok());
  auto no_trend = ModelFromSource("seasonal(7,notrend)");
  ASSERT_TRUE(no_trend.ok());
  EXPECT_EQ((*no_trend)->num_parameters(), 3u);
}

TEST(SourceTest, RejectsMalformed) {
  EXPECT_FALSE(ModelFromSource("frobnicator").ok());
  EXPECT_FALSE(ModelFromSource("linear(0)").ok());
  EXPECT_FALSE(ModelFromSource("linear(").ok());
  EXPECT_FALSE(ModelFromSource("seasonal(-1)").ok());
  EXPECT_FALSE(ModelFromSource("piecewise_poly(1;20,10)").ok());  // not inc
  EXPECT_FALSE(ModelFromSource("piecewise_poly(1)").ok());
}

// --- Fitting -----------------------------------------------------------------

TEST(FitTest, OlsRecoversLinearParametersExactly) {
  Rng rng(3);
  LinearModel model(2);
  const Vector beta_true = {1.5, -2.0, 0.5};
  Matrix x(60, 2);
  Vector y(60);
  for (size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.Normal();
    x(i, 1) = rng.Normal();
    y[i] = model.Evaluate({x(i, 0), x(i, 1)}, beta_true);
  }
  auto fit = FitModel(model, x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->algorithm_used, FitAlgorithm::kOls);
  EXPECT_TRUE(fit->converged);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(fit->parameters[j], beta_true[j], 1e-9);
  }
  EXPECT_NEAR(fit->quality.r_squared, 1.0, 1e-12);
}

TEST(FitTest, OlsNormalEquationsMatchesQrOnWellConditioned) {
  Rng rng(4);
  PolynomialModel model(2);
  Matrix x(50, 1);
  Vector y(50);
  for (size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.Uniform(-2.0, 2.0);
    y[i] = 1.0 + 0.5 * x(i, 0) - 0.3 * x(i, 0) * x(i, 0) + rng.Normal(0, 0.01);
  }
  FitOptions qr_opts;
  qr_opts.algorithm = FitAlgorithm::kOls;
  FitOptions ne_opts;
  ne_opts.algorithm = FitAlgorithm::kOlsNormalEquations;
  auto a = FitModel(model, x, y, qr_opts);
  auto b = FitModel(model, x, y, ne_opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(a->parameters[j], b->parameters[j], 1e-8);
  }
}

TEST(FitTest, StandardErrorsShrinkWithMoreData) {
  Rng rng(5);
  LinearModel model(1);
  auto fit_n = [&](size_t n) {
    Matrix x(n, 1);
    Vector y(n);
    for (size_t i = 0; i < n; ++i) {
      x(i, 0) = rng.Uniform(0.0, 10.0);
      y[i] = 2.0 + 3.0 * x(i, 0) + rng.Normal(0.0, 1.0);
    }
    auto fit = FitModel(model, x, y);
    EXPECT_TRUE(fit.ok());
    return fit->standard_errors[1];
  };
  const double se_small = fit_n(50);
  const double se_large = fit_n(5000);
  EXPECT_LT(se_large, se_small);
  EXPECT_GT(se_small, 0.0);
}

class NonlinearFitAlgorithms
    : public ::testing::TestWithParam<FitAlgorithm> {};

TEST_P(NonlinearFitAlgorithms, PowerLawRecovery) {
  Rng rng(6);
  PowerLawModel model;
  const double p_true = 0.8, a_true = -0.7;
  Matrix x(200, 1);
  Vector y(200);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.Uniform(0.1, 0.2);
    y[i] = p_true * std::pow(x(i, 0), a_true) *
           std::exp(rng.Normal(0.0, 0.02));
  }
  FitOptions opts;
  opts.algorithm = GetParam();
  auto fit = FitModel(model, x, y, opts);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_TRUE(fit->converged);
  EXPECT_NEAR(fit->parameters[0], p_true, 0.05);
  EXPECT_NEAR(fit->parameters[1], a_true, 0.05);
  EXPECT_GT(fit->quality.r_squared, 0.9);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, NonlinearFitAlgorithms,
                         ::testing::Values(FitAlgorithm::kAuto,
                                           FitAlgorithm::kGaussNewton,
                                           FitAlgorithm::kLevenbergMarquardt,
                                           FitAlgorithm::kLogLinear));

TEST(FitTest, LevenbergMarquardtSurvivesBadStart) {
  Rng rng(7);
  PowerLawModel model;
  Matrix x(100, 1);
  Vector y(100);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.Uniform(0.5, 2.0);
    y[i] = 2.0 * std::pow(x(i, 0), -1.5);
  }
  FitOptions opts;
  opts.algorithm = FitAlgorithm::kLevenbergMarquardt;
  opts.initial_parameters = {50.0, 3.0};  // far from truth
  opts.max_iterations = 500;
  auto fit = FitModel(model, x, y, opts);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->parameters[0], 2.0, 0.05);
  EXPECT_NEAR(fit->parameters[1], -1.5, 0.05);
}

TEST(FitTest, LogisticFitViaLm) {
  Rng rng(8);
  LogisticModel model;
  const Vector truth = {5.0, 1.5, 2.0};
  Matrix x(300, 1);
  Vector y(300);
  for (size_t i = 0; i < 300; ++i) {
    x(i, 0) = rng.Uniform(-2.0, 6.0);
    y[i] = model.Evaluate({x(i, 0)}, truth) + rng.Normal(0.0, 0.02);
  }
  FitOptions opts;
  opts.algorithm = FitAlgorithm::kLevenbergMarquardt;
  opts.initial_parameters = {4.0, 1.0, 1.0};
  opts.max_iterations = 300;
  auto fit = FitModel(model, x, y, opts);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->parameters[0], truth[0], 0.1);
  EXPECT_NEAR(fit->parameters[1], truth[1], 0.1);
  EXPECT_NEAR(fit->parameters[2], truth[2], 0.1);
}

TEST(FitTest, DimensionValidation) {
  LinearModel model(1);
  Matrix x(5, 2);  // arity mismatch
  EXPECT_FALSE(FitModel(model, x, Vector(5, 0.0)).ok());
  Matrix x2(5, 1);
  EXPECT_FALSE(FitModel(model, x2, Vector(4, 0.0)).ok());  // row mismatch
  Matrix x3(2, 1);
  EXPECT_FALSE(FitModel(model, x3, Vector(2, 0.0)).ok());  // n <= p
}

TEST(FitTest, LogLinearOnlyFailsWhereInapplicable) {
  LogisticModel model;
  Matrix x(10, 1);
  Vector y(10, 1.0);
  FitOptions opts;
  opts.algorithm = FitAlgorithm::kLogLinear;
  EXPECT_FALSE(FitModel(model, x, y, opts).ok());
}

TEST(FitTest, SeasonalModelRecoversPlantedCoefficients) {
  Rng rng(9);
  SeasonalModel model(7.0);
  const Vector truth = {100.0, 20.0, -5.0, 0.1};
  Matrix x(365, 1);
  Vector y(365);
  for (size_t i = 0; i < 365; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = model.Evaluate({x(i, 0)}, truth) + rng.Normal(0.0, 1.0);
  }
  auto fit = FitModel(model, x, y);
  ASSERT_TRUE(fit.ok());
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(fit->parameters[j], truth[j], 0.5) << "param " << j;
  }
  EXPECT_GT(fit->quality.r_squared, 0.99);
}

TEST(FitTest, PiecewisePolyFitsRegimes) {
  Rng rng(10);
  PiecewisePolynomialModel model({50.0}, 1);
  Matrix x(200, 1);
  Vector y(200);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = static_cast<double>(i) / 2.0;  // 0..99.5
    const double truth =
        x(i, 0) < 50.0 ? 1.0 + 0.2 * x(i, 0) : 31.0 - 0.4 * x(i, 0);
    y[i] = truth + rng.Normal(0.0, 0.05);
  }
  auto fit = FitModel(model, x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->parameters[0], 1.0, 0.1);
  EXPECT_NEAR(fit->parameters[1], 0.2, 0.01);
  EXPECT_NEAR(fit->parameters[2], 31.0, 0.5);
  EXPECT_NEAR(fit->parameters[3], -0.4, 0.01);
}

// --- Grouped fitting ---------------------------------------------------------

TEST(GroupedFitTest, RecoversPerGroupParameters) {
  Rng rng(11);
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  std::vector<std::pair<double, double>> truth;  // (intercept, slope)
  for (int g = 1; g <= 10; ++g) {
    const double a = rng.Uniform(-5, 5);
    const double b = rng.Uniform(-2, 2);
    truth.emplace_back(a, b);
    for (int i = 0; i < 30; ++i) {
      const double x = rng.Uniform(0, 10);
      ASSERT_TRUE(t.AppendRow({Value::Int64(g), Value::Double(x),
                               Value::Double(a + b * x)})
                      .ok());
    }
  }
  LinearModel model(1);
  GroupedFitSpec spec;
  spec.group_column = "g";
  spec.input_columns = {"x"};
  spec.output_column = "y";
  auto fits = FitGrouped(model, t, spec);
  ASSERT_TRUE(fits.ok());
  ASSERT_EQ(fits->groups.size(), 10u);
  EXPECT_EQ(fits->skipped_too_few, 0u);
  EXPECT_EQ(fits->failed, 0u);
  for (size_t g = 0; g < 10; ++g) {
    EXPECT_EQ(fits->groups[g].group_key, static_cast<int64_t>(g + 1));
    EXPECT_NEAR(fits->groups[g].fit.parameters[0], truth[g].first, 1e-8);
    EXPECT_NEAR(fits->groups[g].fit.parameters[1], truth[g].second, 1e-8);
  }
}

TEST(GroupedFitTest, SkipsTinyGroupsAndNulls) {
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, true},
                  Field{"y", DataType::kDouble, false}}));
  // Group 1: plenty of data. Group 2: only 2 rows (p+1 = 3 needed).
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(1), Value::Double(i),
                             Value::Double(2.0 * i)})
                    .ok());
  }
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(2), Value::Double(1), Value::Double(2)}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(2), Value::Double(2), Value::Double(4)}).ok());
  // NULL input rows are ignored entirely.
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(1), Value::Null(), Value::Double(9)}).ok());
  LinearModel model(1);
  GroupedFitSpec spec;
  spec.group_column = "g";
  spec.input_columns = {"x"};
  spec.output_column = "y";
  auto fits = FitGrouped(model, t, spec);
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits->groups.size(), 1u);
  EXPECT_EQ(fits->skipped_too_few, 1u);
}

TEST(GroupedFitTest, MinObservationsOverride) {
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(1), Value::Double(i),
                             Value::Double(i * 2.0)})
                    .ok());
  }
  LinearModel model(1);
  GroupedFitSpec spec;
  spec.group_column = "g";
  spec.input_columns = {"x"};
  spec.output_column = "y";
  spec.min_observations = 10;
  auto fits = FitGrouped(model, t, spec);
  ASSERT_TRUE(fits.ok());
  EXPECT_TRUE(fits->groups.empty());
  EXPECT_EQ(fits->skipped_too_few, 1u);
}

TEST(GroupedFitTest, RejectsBadSpecs) {
  Table t(Schema({Field{"g", DataType::kDouble, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  LinearModel model(1);
  GroupedFitSpec spec;
  spec.group_column = "g";  // not INT64
  spec.input_columns = {"x"};
  spec.output_column = "y";
  EXPECT_FALSE(FitGrouped(model, t, spec).ok());
  spec.group_column = "missing";
  EXPECT_FALSE(FitGrouped(model, t, spec).ok());
}

TEST(GroupedFitTest, ParameterTableLayout) {
  Rng rng(12);
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int g = 1; g <= 3; ++g) {
    for (int i = 0; i < 20; ++i) {
      const double x = rng.Uniform(0, 1);
      ASSERT_TRUE(t.AppendRow({Value::Int64(g), Value::Double(x),
                               Value::Double(g + x + rng.Normal(0, 0.01))})
                      .ok());
    }
  }
  LinearModel model(1);
  GroupedFitSpec spec;
  spec.group_column = "g";
  spec.input_columns = {"x"};
  spec.output_column = "y";
  auto fits = FitGrouped(model, t, spec);
  ASSERT_TRUE(fits.ok());
  auto pt = GroupedFitToTable(model, *fits, "g");
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt->num_rows(), 3u);
  // Schema: g, intercept, b1, residual_se, r_squared, n_obs.
  EXPECT_EQ(pt->schema().num_fields(), 6u);
  EXPECT_TRUE(pt->schema().HasField("residual_se"));
  EXPECT_TRUE(pt->schema().HasField("r_squared"));
  EXPECT_TRUE(pt->schema().HasField("intercept"));
  EXPECT_EQ(pt->GetValue(0, 0).int64(), 1);
  EXPECT_EQ(pt->GetValue(2, 5).int64(), 20);
}

// The one read view of a fit's parameters, against what FitGrouped and
// GroupedFitToTable produce.
TEST(GroupParametersTest, ReadsWhatFitGroupedWrites) {
  Rng rng(29);
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  // Keys with gaps, appended out of order.
  for (int64_t g : {11, 3, 7}) {
    for (int i = 0; i < 12 + g; ++i) {
      const double x = rng.Uniform(0, 1);
      ASSERT_TRUE(t.AppendRow({Value::Int64(g), Value::Double(x),
                               Value::Double(static_cast<double>(g) +
                                             0.1 * static_cast<double>(g) * x +
                                             rng.Normal(0, 0.01))})
                      .ok());
    }
  }
  LinearModel model(1);
  GroupedFitSpec spec;
  spec.group_column = "g";
  spec.input_columns = {"x"};
  spec.output_column = "y";
  auto fits = FitGrouped(model, t, spec);
  ASSERT_TRUE(fits.ok());
  auto pt = GroupedFitToTable(model, *fits, "g");
  ASSERT_TRUE(pt.ok());

  // The typed columns equal a table appended row by row, byte for byte.
  Table appended(pt->schema());
  for (const GroupFitResult& g : fits->groups) {
    std::vector<Value> row = {Value::Int64(g.group_key)};
    for (double p : g.fit.parameters) row.push_back(Value::Double(p));
    row.push_back(Value::Double(g.fit.quality.residual_standard_error));
    row.push_back(Value::Double(g.fit.quality.r_squared));
    row.push_back(Value::Int64(
        static_cast<int64_t>(g.fit.quality.n_observations)));
    ASSERT_TRUE(appended.AppendRow(row).ok());
  }
  EXPECT_EQ(SerializeTableToBytes(*pt), SerializeTableToBytes(appended));
  EXPECT_EQ(pt->MemoryBytes(), appended.MemoryBytes());

  auto view = GroupParameters::Of(model, *pt);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->num_groups(), 3u);
  Vector params;
  for (size_t g = 0; g < 3; ++g) {
    const GroupFitResult& want = fits->groups[g];
    EXPECT_EQ(view->key(g), want.group_key);
    view->Params(g, &params);
    EXPECT_EQ(params, want.fit.parameters);
    EXPECT_EQ(view->residual_se(g), want.fit.quality.residual_standard_error);
    EXPECT_EQ(view->r_squared(g), want.fit.quality.r_squared);
    EXPECT_EQ(view->n_obs(g), want.fit.quality.n_observations);
  }
  EXPECT_EQ(view->key(0), 3);
  EXPECT_EQ(view->key(2), 11);
  EXPECT_EQ(view->n_obs(2), 23u);

  // Find: every key, and misses below, between and above them.
  EXPECT_EQ(view->Find(3), std::optional<size_t>(0));
  EXPECT_EQ(view->Find(7), std::optional<size_t>(1));
  EXPECT_EQ(view->Find(11), std::optional<size_t>(2));
  for (int64_t miss : {int64_t{-1}, int64_t{2}, int64_t{5}, int64_t{12},
                       std::numeric_limits<int64_t>::max()}) {
    EXPECT_FALSE(view->Find(miss).has_value()) << miss;
  }

  // KeysIn: the run of keys inside [lo, hi], at both ends and beyond.
  using Run = std::pair<size_t, size_t>;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(view->KeysIn(-inf, inf), Run(0, 3));
  EXPECT_EQ(view->KeysIn(3, 3), Run(0, 1));
  EXPECT_EQ(view->KeysIn(11, 11), Run(2, 3));
  EXPECT_EQ(view->KeysIn(3, 11), Run(0, 3));
  EXPECT_EQ(view->KeysIn(3.5, 10.5), Run(1, 2));
  EXPECT_EQ(view->KeysIn(-inf, 2.9), Run(0, 0));
  EXPECT_EQ(view->KeysIn(11.1, inf), Run(3, 3));
  EXPECT_EQ(view->KeysIn(4, 6), Run(1, 1));
  EXPECT_EQ(view->KeysIn(8, 4), Run(2, 2));

  // The layout must be the model's: poly(2) has three parameters.
  EXPECT_EQ(GroupParameters::Of(PolynomialModel(2), *pt).status().code(),
            StatusCode::kInvalidArgument);

  // No groups: nothing to find.
  auto none_table = GroupedFitToTable(model, GroupedFitOutput{}, "g");
  ASSERT_TRUE(none_table.ok());
  auto none = GroupParameters::Of(model, *none_table);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->num_groups(), 0u);
  EXPECT_FALSE(none->Find(0).has_value());
  EXPECT_EQ(none->KeysIn(-inf, inf), Run(0, 0));

  // An ungrouped fit reads as one group with key 0.
  const Vector single = {1.5, 2.5};
  FitQuality quality;
  quality.residual_standard_error = 0.125;
  quality.r_squared = 0.875;
  quality.n_observations = 40;
  auto one = GroupParameters::Ungrouped(model, single, quality);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one->num_groups(), 1u);
  EXPECT_EQ(one->key(0), 0);
  one->Params(0, &params);
  EXPECT_EQ(params, single);
  EXPECT_EQ(one->residual_se(0), 0.125);
  EXPECT_EQ(one->r_squared(0), 0.875);
  EXPECT_EQ(one->n_obs(0), 40u);
  EXPECT_EQ(one->Find(0), std::optional<size_t>(0));
  EXPECT_FALSE(one->Find(1).has_value());
  EXPECT_EQ(one->KeysIn(-inf, inf), Run(0, 1));
  EXPECT_EQ(GroupParameters::Ungrouped(model, {1.5}, quality).status().code(),
            StatusCode::kInvalidArgument);
}

// --- New model classes --------------------------------------------------

TEST(GaussianPeakModelTest, EvaluateAndGradients) {
  GaussianPeakModel m;
  const Vector params = {4.0, 2.0, 0.5};  // amp, mu, sigma
  EXPECT_DOUBLE_EQ(m.Evaluate({2.0}, params), 4.0);  // peak value at mu
  EXPECT_NEAR(m.Evaluate({2.5}, params), 4.0 * std::exp(-0.5), 1e-12);
  CheckParameterGradient(m, {1.7}, params);
  CheckParameterGradient(m, {2.0}, params);
  Vector grad;
  m.InputGradient({2.0}, params, &grad);
  EXPECT_NEAR(grad[0], 0.0, 1e-12);  // flat at the peak
}

TEST(GaussianPeakModelTest, FitsPlantedPeak) {
  Rng rng(31);
  GaussianPeakModel model;
  const Vector truth = {5.0, 3.0, 0.8};
  Matrix x(300, 1);
  Vector y(300);
  for (size_t i = 0; i < 300; ++i) {
    x(i, 0) = rng.Uniform(0.0, 6.0);
    y[i] = model.Evaluate({x(i, 0)}, truth) + rng.Normal(0.0, 0.05);
  }
  auto fit = FitModel(model, x, y);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_NEAR(fit->parameters[0], truth[0], 0.1);
  EXPECT_NEAR(fit->parameters[1], truth[1], 0.05);
  EXPECT_NEAR(std::fabs(fit->parameters[2]), truth[2], 0.1);
  EXPECT_GT(fit->quality.r_squared, 0.97);
}

TEST(LogLawModelTest, EvaluateBasisAndFit) {
  LogLawModel m;
  EXPECT_TRUE(m.IsLinearInParameters());
  EXPECT_NEAR(m.Evaluate({std::exp(1.0)}, {2.0, 3.0}), 5.0, 1e-12);
  Vector phi;
  ASSERT_TRUE(m.BasisFunctions({std::exp(2.0)}, &phi).ok());
  EXPECT_NEAR(phi[1], 2.0, 1e-12);
  EXPECT_FALSE(m.BasisFunctions({-1.0}, &phi).ok());
  CheckParameterGradient(m, {3.0}, {2.0, 3.0});

  Rng rng(32);
  Matrix x(200, 1);
  Vector y(200);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.Uniform(0.5, 50.0);
    y[i] = 1.5 + 0.8 * std::log(x(i, 0)) + rng.Normal(0.0, 0.02);
  }
  auto fit = FitModel(m, x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->parameters[0], 1.5, 0.02);
  EXPECT_NEAR(fit->parameters[1], 0.8, 0.02);
}

TEST(SourceTest, NewModelsRoundTrip) {
  for (const char* src : {"gaussian_peak", "log_law"}) {
    auto m = ModelFromSource(src);
    ASSERT_TRUE(m.ok()) << src;
    EXPECT_EQ((*m)->ToSource(), src);
  }
}

// --- Incremental OLS ------------------------------------------------------

TEST(IncrementalOlsTest, MatchesBatchFit) {
  Rng rng(33);
  LinearModel model(2);
  Matrix x(500, 2);
  Vector y(500);
  for (size_t i = 0; i < 500; ++i) {
    x(i, 0) = rng.Normal();
    x(i, 1) = rng.Uniform(-3, 3);
    y[i] = 1.0 - 2.0 * x(i, 0) + 0.5 * x(i, 1) + rng.Normal(0.0, 0.1);
  }
  auto inc = IncrementalOls::Create(model);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->AddBatch(x, y).ok());
  auto inc_fit = inc->Solve();
  auto batch_fit = FitModel(model, x, y);
  ASSERT_TRUE(inc_fit.ok()) << inc_fit.status().ToString();
  ASSERT_TRUE(batch_fit.ok());
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(inc_fit->parameters[j], batch_fit->parameters[j], 1e-8);
    EXPECT_NEAR(inc_fit->standard_errors[j], batch_fit->standard_errors[j],
                1e-8);
  }
  EXPECT_NEAR(inc_fit->quality.r_squared, batch_fit->quality.r_squared,
              1e-10);
  EXPECT_NEAR(inc_fit->quality.residual_standard_error,
              batch_fit->quality.residual_standard_error, 1e-8);
}

TEST(IncrementalOlsTest, AppendOnlyUpdateSharpensFit) {
  Rng rng(34);
  PolynomialModel model(1);
  auto inc = IncrementalOls::Create(model);
  ASSERT_TRUE(inc.ok());
  auto feed = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const double x = rng.Uniform(0, 10);
      ASSERT_TRUE(inc->Add({x}, 2.0 + 3.0 * x + rng.Normal(0, 1.0)).ok());
    }
  };
  feed(50);
  auto early = inc->Solve();
  ASSERT_TRUE(early.ok());
  feed(5000);
  auto late = inc->Solve();
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(inc->count(), 5050u);
  // More data, tighter slope standard error — no old rows revisited.
  EXPECT_LT(late->standard_errors[1], early->standard_errors[1]);
  EXPECT_NEAR(late->parameters[1], 3.0, 0.05);
}

TEST(IncrementalOlsTest, MergeEqualsUnion) {
  Rng rng(35);
  LinearModel model(1);
  auto a = IncrementalOls::Create(model);
  auto b = IncrementalOls::Create(model);
  auto whole = IncrementalOls::Create(model);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(whole.ok());
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(0, 5);
    const double y = -1.0 + 0.5 * x + rng.Normal(0, 0.2);
    ASSERT_TRUE(whole->Add({x}, y).ok());
    ASSERT_TRUE((i % 2 == 0 ? *a : *b).Add({x}, y).ok());
  }
  ASSERT_TRUE(a->Merge(*b).ok());
  auto merged = a->Solve();
  auto direct = whole->Solve();
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(merged->parameters[0], direct->parameters[0], 1e-10);
  EXPECT_NEAR(merged->parameters[1], direct->parameters[1], 1e-10);
}

TEST(IncrementalOlsTest, Validation) {
  PowerLawModel nonlinear;
  EXPECT_FALSE(IncrementalOls::Create(nonlinear).ok());
  LinearModel model(1);
  auto inc = IncrementalOls::Create(model);
  ASSERT_TRUE(inc.ok());
  EXPECT_FALSE(inc->Add({1.0, 2.0}, 3.0).ok());  // arity
  ASSERT_TRUE(inc->Add({1.0}, 1.0).ok());
  EXPECT_FALSE(inc->Solve().ok());  // n <= p
  auto other = IncrementalOls::Create(LinearModel(2));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(inc->Merge(*other).ok());  // different model class
}

// --- Robust (Huber) fitting -----------------------------------------------

TEST(RobustFitTest, MatchesOlsOnCleanData) {
  Rng rng(41);
  LinearModel model(1);
  Matrix x(200, 1);
  Vector y(200);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.Uniform(0, 10);
    y[i] = 1.0 + 2.0 * x(i, 0) + rng.Normal(0, 0.3);
  }
  auto robust = FitRobustLinear(model, x, y);
  auto ols = FitModel(model, x, y);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  ASSERT_TRUE(ols.ok());
  EXPECT_NEAR(robust->parameters[0], ols->parameters[0], 0.05);
  EXPECT_NEAR(robust->parameters[1], ols->parameters[1], 0.02);
  EXPECT_TRUE(robust->converged);
}

TEST(RobustFitTest, SurvivesHeavyContaminationWhereOlsBreaks) {
  Rng rng(43);
  LinearModel model(1);
  const size_t n = 300;
  Matrix x(n, 1);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(0, 10);
    y[i] = 1.0 + 2.0 * x(i, 0) + rng.Normal(0, 0.2);
    // 15% gross outliers, biased upward.
    if (rng.Bernoulli(0.15)) y[i] += rng.Uniform(50, 100);
  }
  auto robust = FitRobustLinear(model, x, y);
  auto ols = FitModel(model, x, y);
  ASSERT_TRUE(robust.ok());
  ASSERT_TRUE(ols.ok());
  const double robust_err = std::fabs(robust->parameters[1] - 2.0);
  const double ols_err = std::fabs(ols->parameters[1] - 2.0);
  EXPECT_LT(robust_err, 0.1);
  // The OLS intercept is dragged far upward by the biased outliers.
  EXPECT_GT(std::fabs(ols->parameters[0] - 1.0), 2.0);
  EXPECT_LT(std::fabs(robust->parameters[0] - 1.0), 0.3);
  EXPECT_LT(robust_err, ols_err);
}

TEST(RobustFitTest, Validation) {
  PowerLawModel nonlinear;
  Matrix x(10, 1);
  Vector y(10, 1.0);
  EXPECT_FALSE(FitRobustLinear(nonlinear, x, y).ok());
  LinearModel model(1);
  Matrix x2(2, 1);
  EXPECT_FALSE(FitRobustLinear(model, x2, Vector(2, 0.0)).ok());  // n <= p
}

TEST(RobustFitTest, MadScale) {
  EXPECT_EQ(MadScale({}), 0.0);
  EXPECT_EQ(MadScale({1.0}), 0.0);
  // Standard normal sample: MAD*1.4826 ~ sigma.
  Rng rng(47);
  Vector r(5000);
  for (auto& v : r) v = rng.Normal(0, 3.0);
  EXPECT_NEAR(MadScale(r), 3.0, 0.15);
  // Robust to outliers: one huge value barely moves it.
  r[0] = 1e9;
  EXPECT_NEAR(MadScale(r), 3.0, 0.15);
}

TEST(PredictAllTest, MatchesPointEvaluation) {
  PowerLawModel m;
  Matrix x(3, 1);
  x(0, 0) = 0.12;
  x(1, 0) = 0.15;
  x(2, 0) = 0.18;
  const Vector params = {1.0, -0.7};
  const Vector pred = PredictAll(m, x, params);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(pred[i], m.Evaluate({x(i, 0)}, params));
  }
}

TEST(BuildDesignMatrixTest, RejectsNonlinearModels) {
  PowerLawModel m;
  Matrix x(3, 1);
  EXPECT_FALSE(BuildDesignMatrix(m, x).ok());
}

TEST(GroupedFitTest, OutputIdenticalAcrossThreadCounts) {
  // The paper's hot path must be bit-identical whether it runs serially
  // or fanned out over the ThreadPool: same parameters, same group order,
  // same skipped/failed tallies. The table plants healthy groups, a
  // too-small group, and a rank-deficient group (identical x values) so
  // all three outcome kinds are exercised.
  Rng rng(42);
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int g = 1; g <= 120; ++g) {
    const double a = rng.Uniform(-5, 5);
    const double b = rng.Uniform(-2, 2);
    for (int i = 0; i < 12; ++i) {
      const double x = rng.Uniform(0, 10);
      ASSERT_TRUE(t.AppendRow({Value::Int64(g), Value::Double(x),
                               Value::Double(a + b * x + rng.Normal(0, 0.1))})
                      .ok());
    }
  }
  // Group 200: too few observations -> skipped.
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(200), Value::Double(1), Value::Double(2)})
          .ok());
  // Group 300: constant x -> singular design -> failed.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(300), Value::Double(3.0),
                             Value::Double(rng.Uniform(0, 1))})
                    .ok());
  }
  LinearModel model(1);
  GroupedFitSpec spec;
  spec.group_column = "g";
  spec.input_columns = {"x"};
  spec.output_column = "y";

  ThreadPool::SetGlobalThreadCount(1);
  auto serial = FitGrouped(model, t, spec);
  ASSERT_TRUE(serial.ok());
  ThreadPool::SetGlobalThreadCount(8);
  auto parallel = FitGrouped(model, t, spec);
  ThreadPool::SetGlobalThreadCount(0);
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ(serial->skipped_too_few, 1u);
  EXPECT_EQ(serial->failed, 1u);
  EXPECT_EQ(parallel->skipped_too_few, serial->skipped_too_few);
  EXPECT_EQ(parallel->failed, serial->failed);
  EXPECT_EQ(parallel->rows_processed, serial->rows_processed);
  ASSERT_EQ(parallel->groups.size(), serial->groups.size());
  for (size_t i = 0; i < serial->groups.size(); ++i) {
    EXPECT_EQ(parallel->groups[i].group_key, serial->groups[i].group_key);
    // Bitwise equality, not EXPECT_NEAR: the parallel merge guarantees
    // the exact same FitModel invocations in the exact same per-group
    // row order.
    EXPECT_EQ(parallel->groups[i].fit.parameters,
              serial->groups[i].fit.parameters);
    EXPECT_EQ(parallel->groups[i].fit.standard_errors,
              serial->groups[i].fit.standard_errors);
    EXPECT_EQ(parallel->groups[i].fit.quality.r_squared,
              serial->groups[i].fit.quality.r_squared);
  }
  // Keys ascend (the output contract).
  for (size_t i = 1; i < serial->groups.size(); ++i) {
    EXPECT_LT(serial->groups[i - 1].group_key, serial->groups[i].group_key);
  }
}

TEST(GroupedFitTest, NullsAndInterleavedKeysMatchSortedLayout) {
  // Interleaved keys (negative ones too) with NULLs planted in the key,
  // input and output columns. The reference is the sort-based layout
  // spelled out: only the fittable rows, stably sorted by key, so every
  // group is one contiguous run in table order. Grouping the interleaved
  // table must give the identical parameter table at every lane count.
  Rng rng(11);
  Table t(Schema({Field{"g", DataType::kInt64, true},
                  Field{"x", DataType::kDouble, true},
                  Field{"y", DataType::kDouble, true}}));
  std::vector<std::vector<Value>> fittable;
  std::map<int64_t, size_t> rows_per_key;
  for (int i = 0; i < 4000; ++i) {
    const int64_t g = (i * 37) % 101 - 50;
    const double x = rng.Uniform(0.5, 10.0);
    std::vector<Value> row = {
        Value::Int64(g), Value::Double(x),
        Value::Double(2.0 + 0.3 * static_cast<double>(g) + 1.5 * x +
                      rng.Normal(0.0, 0.1))};
    if (i % 13 == 3) row[0] = Value::Null();
    if (i % 17 == 5) row[1] = Value::Null();
    if (i % 19 == 7) row[2] = Value::Null();
    ASSERT_TRUE(t.AppendRow(row).ok());
    if (row[0].is_null() || row[1].is_null() || row[2].is_null()) continue;
    fittable.push_back(row);
    ++rows_per_key[g];
  }
  // Key 1000: only NULL inputs, so no group at all; key 2000: too few
  // fittable rows, so a skipped group.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(1000), Value::Null(),
                             Value::Double(1.0)})
                    .ok());
  }
  ASSERT_TRUE(t.AppendRow({Value::Int64(2000), Value::Double(1.0),
                           Value::Double(2.0)})
                  .ok());
  fittable.push_back({Value::Int64(2000), Value::Double(1.0),
                      Value::Double(2.0)});
  std::stable_sort(fittable.begin(), fittable.end(),
                   [](const std::vector<Value>& a,
                      const std::vector<Value>& b) {
                     return a[0].int64() < b[0].int64();
                   });
  Table sorted(Schema({Field{"g", DataType::kInt64, false},
                       Field{"x", DataType::kDouble, false},
                       Field{"y", DataType::kDouble, false}}));
  for (const auto& row : fittable) ASSERT_TRUE(sorted.AppendRow(row).ok());

  LinearModel model(1);
  GroupedFitSpec spec;
  spec.group_column = "g";
  spec.input_columns = {"x"};
  spec.output_column = "y";
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    ThreadPool::SetGlobalThreadCount(lanes);
    auto got = FitGrouped(model, t, spec);
    auto want = FitGrouped(model, sorted, spec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got->skipped_too_few, 1u);
    EXPECT_EQ(got->failed, want->failed);
    ASSERT_EQ(got->groups.size(), rows_per_key.size());
    ASSERT_EQ(got->groups.size(), want->groups.size());
    size_t g = 0;
    for (const auto& [key, rows] : rows_per_key) {
      EXPECT_EQ(got->groups[g].group_key, key);
      EXPECT_EQ(got->groups[g].fit.quality.n_observations, rows);
      ++g;
    }
    auto got_table = GroupedFitToTable(model, *got, "g");
    auto want_table = GroupedFitToTable(model, *want, "g");
    ASSERT_TRUE(got_table.ok() && want_table.ok());
    ASSERT_EQ(got_table->num_rows(), want_table->num_rows());
    for (size_t r = 0; r < got_table->num_rows(); ++r) {
      for (size_t c = 0; c < got_table->num_columns(); ++c) {
        // Bitwise: the same rows reach every fit in the same order.
        EXPECT_EQ(got_table->GetValue(r, c), want_table->GetValue(r, c))
            << "row " << r << " column " << c << " at " << lanes << " lanes";
      }
    }
  }
  ThreadPool::SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace laws
