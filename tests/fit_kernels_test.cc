#include "model/fit_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "model/fit.h"
#include "model/model.h"

namespace laws {
namespace {

Matrix ColumnMatrix(const Vector& x) {
  Matrix m(x.size(), 1);
  for (size_t i = 0; i < x.size(); ++i) m(i, 0) = x[i];
  return m;
}

// --- SimpleOlsSolve ------------------------------------------------------

TEST(SimpleOlsSolveTest, RecoversExactLine) {
  const Vector x{1.0, 2.0, 3.0, 4.0};
  const Vector y{5.0, 7.0, 9.0, 11.0};  // y = 3 + 2x
  double b0 = 0.0, b1 = 0.0;
  SimpleRegressionSums sums;
  ASSERT_TRUE(SimpleOlsSolve(x.data(), y.data(), x.size(), &b0, &b1, &sums));
  EXPECT_NEAR(b0, 3.0, 1e-12);
  EXPECT_NEAR(b1, 2.0, 1e-12);
  EXPECT_EQ(sums.n, 4u);
  EXPECT_NEAR(sums.syy - b1 * sums.sxy, 0.0, 1e-12);  // zero residual
}

TEST(SimpleOlsSolveTest, RejectsDegenerateInputs) {
  double b0 = 0.0, b1 = 0.0;
  const Vector one_x{1.0};
  const Vector one_y{2.0};
  EXPECT_FALSE(SimpleOlsSolve(one_x.data(), one_y.data(), 1, &b0, &b1,
                              nullptr));
  // Constant x: Sxx = 0.
  const Vector const_x{2.0, 2.0, 2.0};
  const Vector some_y{1.0, 2.0, 3.0};
  EXPECT_FALSE(SimpleOlsSolve(const_x.data(), some_y.data(), 3, &b0, &b1,
                              nullptr));
  // -inf from log(0) poisons the sums.
  const Vector inf_x{1.0, -std::numeric_limits<double>::infinity(), 3.0};
  EXPECT_FALSE(SimpleOlsSolve(inf_x.data(), some_y.data(), 3, &b0, &b1,
                              nullptr));
  // NaN likewise.
  const Vector nan_y{1.0, std::nan(""), 3.0};
  const Vector ok_x{1.0, 2.0, 3.0};
  EXPECT_FALSE(SimpleOlsSolve(ok_x.data(), nan_y.data(), 3, &b0, &b1,
                              nullptr));
}

// --- Closed form vs iterative: property-style agreement ------------------

/// The central property of the fast path: on random power-law groups the
/// closed-form log-log kernel and the iterative fit agree tightly (both
/// minimize least squares; the objectives differ only by the log transform
/// of the noise, which is small at these noise levels).
TEST(ClosedFormAgreementTest, PowerLawMatchesGaussNewtonOnRandomGroups) {
  Rng rng(42);
  PowerLawModel model;
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(8, 200));
    const double p_true = rng.Uniform(0.5, 5.0);
    const double alpha_true = rng.Uniform(-2.0, -0.1);
    Vector x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(1.0, 12.0);
      y[i] = p_true * std::pow(x[i], alpha_true) *
             rng.LogNormal(0.0, 0.02);
    }
    const Matrix inputs = ColumnMatrix(x);

    FitOptions closed;  // kAuto with the fast path on (default)
    const auto fast = FitModel(model, inputs, y, closed);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(fast->algorithm_used, FitAlgorithm::kLogLinear);

    FitOptions iterative;
    iterative.algorithm = FitAlgorithm::kGaussNewton;
    const auto slow = FitModel(model, inputs, y, iterative);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();

    ASSERT_EQ(fast->parameters.size(), 2u);
    ASSERT_EQ(slow->parameters.size(), 2u);
    for (size_t k = 0; k < 2; ++k) {
      const double scale = std::max(1.0, std::fabs(slow->parameters[k]));
      EXPECT_NEAR(fast->parameters[k], slow->parameters[k], 5e-2 * scale)
          << "trial " << trial << " param " << k;
    }
    EXPECT_NEAR(fast->quality.r_squared, slow->quality.r_squared, 1e-3);
  }
}

TEST(ClosedFormAgreementTest, LinearModelMatchesExactOls) {
  Rng rng(7);
  LinearModel model(1);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(4, 100));
    const double a = rng.Uniform(-5.0, 5.0);
    const double b = rng.Uniform(-3.0, 3.0);
    Vector x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(-10.0, 10.0);
      y[i] = a + b * x[i] + rng.Normal(0.0, 0.1);
    }
    const Matrix inputs = ColumnMatrix(x);

    const auto fast = FitModel(model, inputs, y, FitOptions{});
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(fast->algorithm_used, FitAlgorithm::kLogLinear);

    FitOptions qr;
    qr.algorithm = FitAlgorithm::kOls;
    const auto exact = FitModel(model, inputs, y, qr);
    ASSERT_TRUE(exact.ok());

    // Identity transforms: the closed form IS the OLS solution, so both
    // parameters and standard errors must agree to rounding.
    for (size_t k = 0; k < 2; ++k) {
      const double scale = std::max(1.0, std::fabs(exact->parameters[k]));
      EXPECT_NEAR(fast->parameters[k], exact->parameters[k], 1e-9 * scale);
    }
    ASSERT_EQ(fast->standard_errors.size(), 2u);
    ASSERT_EQ(exact->standard_errors.size(), 2u);
    for (size_t k = 0; k < 2; ++k) {
      EXPECT_NEAR(fast->standard_errors[k], exact->standard_errors[k],
                  1e-8 * std::max(1.0, exact->standard_errors[k]));
    }
  }
}

TEST(ClosedFormAgreementTest, ExponentialAndLogLawAgreeWithLm) {
  Rng rng(99);
  ExponentialModel expo;
  LogLawModel loglaw;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(10, 80));
    Vector x(n), ye(n), yl(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(0.5, 4.0);
      ye[i] = 2.0 * std::exp(0.6 * x[i]) * rng.LogNormal(0.0, 0.02);
      yl[i] = 1.5 + 0.8 * std::log(x[i]) + rng.Normal(0.0, 0.01);
    }
    const Matrix inputs = ColumnMatrix(x);
    FitOptions lm;
    lm.algorithm = FitAlgorithm::kLevenbergMarquardt;

    const auto fast_e = FitModel(expo, inputs, ye, FitOptions{});
    const auto slow_e = FitModel(expo, inputs, ye, lm);
    ASSERT_TRUE(fast_e.ok());
    ASSERT_TRUE(slow_e.ok());
    EXPECT_EQ(fast_e->algorithm_used, FitAlgorithm::kLogLinear);
    for (size_t k = 0; k < 2; ++k) {
      const double scale = std::max(1.0, std::fabs(slow_e->parameters[k]));
      EXPECT_NEAR(fast_e->parameters[k], slow_e->parameters[k],
                  5e-2 * scale);
    }

    const auto fast_l = FitModel(loglaw, inputs, yl, FitOptions{});
    const auto slow_l = FitModel(loglaw, inputs, yl, lm);
    ASSERT_TRUE(fast_l.ok());
    ASSERT_TRUE(slow_l.ok());
    EXPECT_EQ(fast_l->algorithm_used, FitAlgorithm::kLogLinear);
    for (size_t k = 0; k < 2; ++k) {
      const double scale = std::max(1.0, std::fabs(slow_l->parameters[k]));
      EXPECT_NEAR(fast_l->parameters[k], slow_l->parameters[k],
                  5e-2 * scale);
    }
  }
}

// --- Degenerate groups ---------------------------------------------------

TEST(ClosedFormDegenerateTest, ConstantXFallsBackAndStillErrorsLikeOls) {
  // Constant wavelength: Sxx = 0, closed form refuses; the kAuto fallback
  // (LM for the power law) must still produce some outcome rather than
  // crash, and explicit kLogLinear must error.
  PowerLawModel model;
  const Vector x{2.0, 2.0, 2.0, 2.0};
  const Vector y{3.0, 3.1, 2.9, 3.0};
  const Matrix inputs = ColumnMatrix(x);
  FitOptions loglinear;
  loglinear.algorithm = FitAlgorithm::kLogLinear;
  EXPECT_FALSE(FitModel(model, inputs, y, loglinear).ok());
  // kAuto: falls through to iterative; whatever it returns must not be
  // the closed form (which cannot apply here).
  const auto out = FitModel(model, inputs, y, FitOptions{});
  if (out.ok()) {
    EXPECT_NE(out->algorithm_used, FitAlgorithm::kLogLinear);
  }
}

TEST(ClosedFormDegenerateTest, NonPositiveIntensityRoutesToIterative) {
  // log(y) undefined at y <= 0: the fast path must detect the domain
  // violation and hand the group to warm-started LM, which fits in
  // original space and handles the zero fine.
  Rng rng(5);
  PowerLawModel model;
  const size_t n = 40;
  Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(1.0, 10.0);
    y[i] = 2.0 * std::pow(x[i], -0.7) + rng.Normal(0.0, 0.01);
  }
  y[7] = 0.0;    // domain violation for log
  y[23] = -0.05; // and a negative
  const Matrix inputs = ColumnMatrix(x);
  const auto out = FitModel(model, inputs, y, FitOptions{});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->algorithm_used, FitAlgorithm::kLevenbergMarquardt);
  EXPECT_NEAR(out->parameters[0], 2.0, 0.2);
  EXPECT_NEAR(out->parameters[1], -0.7, 0.1);
}

TEST(ClosedFormDegenerateTest, TinyGroupN2IsStillExact) {
  // n = 2 with 2 parameters is rejected by FitModel's n > p guard, so
  // drive the kernel directly: two points determine the line exactly.
  const Vector tx{std::log(2.0), std::log(8.0)};
  const Vector ty{std::log(3.0), std::log(12.0)};
  double b0 = 0.0, b1 = 0.0;
  SimpleRegressionSums sums;
  ASSERT_TRUE(SimpleOlsSolve(tx.data(), ty.data(), 2, &b0, &b1, &sums));
  EXPECT_NEAR(b1, 1.0, 1e-12);  // slope log(12/3)/log(8/2) = 1
  EXPECT_NEAR(std::exp(b0), 1.5, 1e-12);
}

// --- Scratch reuse -------------------------------------------------------

TEST(FitScratchTest, RepeatedFitsThroughOneScratchMatchFreshScratch) {
  Rng rng(17);
  PowerLawModel model;
  FitScratch reused;
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(5, 60));
    Vector x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(1.0, 9.0);
      y[i] = 1.2 * std::pow(x[i], -0.5) * rng.LogNormal(0.0, 0.05);
    }
    const Matrix inputs = ColumnMatrix(x);
    const auto with_reuse =
        FitModel(model, inputs, y, FitOptions{}, &reused);
    const auto fresh = FitModel(model, inputs, y, FitOptions{});
    ASSERT_TRUE(with_reuse.ok());
    ASSERT_TRUE(fresh.ok());
    // Bitwise identical: scratch reuse must not leak state between fits.
    EXPECT_EQ(with_reuse->parameters, fresh->parameters);
    EXPECT_EQ(with_reuse->standard_errors, fresh->standard_errors);
    EXPECT_EQ(with_reuse->quality.r_squared, fresh->quality.r_squared);
  }
}

TEST(FitScratchTest, IterativeFitsThroughOneScratchMatchFreshScratch) {
  Rng rng(23);
  PowerLawModel model;
  FitScratch reused;
  FitOptions lm;
  lm.algorithm = FitAlgorithm::kLevenbergMarquardt;
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(6, 50));
    Vector x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(1.0, 9.0);
      y[i] = 2.5 * std::pow(x[i], -1.1) * rng.LogNormal(0.0, 0.05);
    }
    const Matrix inputs = ColumnMatrix(x);
    const auto with_reuse = FitModel(model, inputs, y, lm, &reused);
    const auto fresh = FitModel(model, inputs, y, lm);
    ASSERT_TRUE(with_reuse.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(with_reuse->parameters, fresh->parameters);
    EXPECT_EQ(with_reuse->iterations, fresh->iterations);
  }
}

// --- Warm start ----------------------------------------------------------

TEST(ClosedFormWarmStartTest, ProvidesNearOptimalStartForLm) {
  Rng rng(31);
  PowerLawModel model;
  const size_t n = 60;
  Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(1.0, 10.0);
    y[i] = 3.0 * std::pow(x[i], -0.8) * rng.LogNormal(0.0, 0.02);
  }
  const Matrix inputs = ColumnMatrix(x);
  FitScratch scratch;
  Vector warm;
  ASSERT_TRUE(ClosedFormWarmStart(model, inputs, y, &scratch, &warm));
  ASSERT_EQ(warm.size(), 2u);
  EXPECT_NEAR(warm[0], 3.0, 0.2);
  EXPECT_NEAR(warm[1], -0.8, 0.05);
  // LM from this start converges in very few iterations.
  FitOptions lm;
  lm.algorithm = FitAlgorithm::kLevenbergMarquardt;
  const auto out = FitModel(model, inputs, y, lm);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->converged);
  EXPECT_LE(out->iterations, 10u);
}

TEST(ClosedFormWarmStartTest, DeclinesModelsWithoutLinearization) {
  LogisticModel logistic;
  const Vector x{1.0, 2.0, 3.0, 4.0};
  const Vector y{0.1, 0.3, 0.7, 0.9};
  FitScratch scratch;
  Vector warm;
  EXPECT_FALSE(
      ClosedFormWarmStart(logistic, ColumnMatrix(x), y, &scratch, &warm));
}

// --- Closed form vs iterative ---------------------------------------------

TEST(ClosedFormDispatchTest, AutoSolvesClosedFormWhereLmIterates) {
  Rng rng(13);
  PowerLawModel model;
  const size_t n = 30;
  Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(1.0, 8.0);
    y[i] = 1.8 * std::pow(x[i], -0.6) * rng.LogNormal(0.0, 0.03);
  }
  const Matrix inputs = ColumnMatrix(x);
  FitOptions lm;
  lm.algorithm = FitAlgorithm::kLevenbergMarquardt;
  const auto iter = FitModel(model, inputs, y, lm);
  ASSERT_TRUE(iter.ok());
  EXPECT_EQ(iter->algorithm_used, FitAlgorithm::kLevenbergMarquardt);
  const auto fast = FitModel(model, inputs, y, FitOptions{});
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->algorithm_used, FitAlgorithm::kLogLinear);
  // Same minimizer either way (up to LM tolerance).
  for (size_t k = 0; k < 2; ++k) {
    const double scale = std::max(1.0, std::fabs(iter->parameters[k]));
    EXPECT_NEAR(fast->parameters[k], iter->parameters[k], 5e-2 * scale);
  }
}

}  // namespace
}  // namespace laws
