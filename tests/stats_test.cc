#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "stats/descriptive.h"
#include "stats/diagnostics.h"
#include "stats/distributions.h"
#include "stats/goodness_of_fit.h"
#include "stats/histogram.h"

namespace laws {
namespace {

// --- Moments ---------------------------------------------------------

TEST(MomentsTest, EmptyIsZero) {
  Moments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.mean(), 0.0);
  EXPECT_EQ(m.variance_sample(), 0.0);
}

TEST(MomentsTest, KnownValues) {
  Moments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.Add(v);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.variance_population(), 4.0);
  EXPECT_NEAR(m.variance_sample(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(m.min(), 2.0);
  EXPECT_EQ(m.max(), 9.0);
  EXPECT_DOUBLE_EQ(m.sum(), 40.0);
}

TEST(MomentsTest, MergeEqualsSinglePass) {
  Rng rng(1);
  Moments full, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Normal(3.0, 2.0);
    full.Add(v);
    (i % 3 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), full.count());
  EXPECT_NEAR(a.mean(), full.mean(), 1e-10);
  EXPECT_NEAR(a.variance_sample(), full.variance_sample(), 1e-8);
  EXPECT_EQ(a.min(), full.min());
  EXPECT_EQ(a.max(), full.max());
}

TEST(MomentsTest, MergeWithEmptyIsIdentity) {
  Moments a, empty;
  a.Add(1.0);
  a.Add(2.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  Moments b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(DescriptiveTest, CovarianceAndCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};  // y = 2x exactly
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  EXPECT_NEAR(Covariance(x, y), 5.0, 1e-12);
  // Constant input: correlation defined as 0.
  std::vector<double> c = {3, 3, 3, 3, 3};
  EXPECT_EQ(PearsonCorrelation(x, c), 0.0);
}

TEST(DescriptiveTest, QuantilesType7) {
  std::vector<double> v = {1, 2, 3, 4};
  const auto qs = Quantiles(v, {0.0, 0.25, 0.5, 0.75, 1.0});
  EXPECT_DOUBLE_EQ(qs[0], 1.0);
  EXPECT_DOUBLE_EQ(qs[1], 1.75);
  EXPECT_DOUBLE_EQ(qs[2], 2.5);
  EXPECT_DOUBLE_EQ(qs[3], 3.25);
  EXPECT_DOUBLE_EQ(qs[4], 4.0);
}

// --- Distributions ----------------------------------------------------

TEST(DistributionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(NormalCdf(-1.959963984540054), 0.025, 1e-9);
  EXPECT_NEAR(NormalCdf(3.0), 0.9986501019683699, 1e-9);
}

TEST(DistributionsTest, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-10) << "p=" << p;
  }
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963984540054, 1e-8);
}

TEST(DistributionsTest, NormalPdfIntegratesToCdf) {
  // Trapezoid integration of the pdf should match the cdf difference.
  double integral = 0.0;
  const int steps = 4500;
  const double dx = (1.5 - (-3.0)) / steps;
  for (int i = 0; i < steps; ++i) {
    const double x = -3.0 + i * dx;
    integral += 0.5 * (NormalPdf(x) + NormalPdf(x + dx)) * dx;
  }
  EXPECT_NEAR(integral, NormalCdf(1.5) - NormalCdf(-3.0), 1e-6);
}

TEST(DistributionsTest, GammaPComplement) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-10);
    }
  }
}

TEST(DistributionsTest, ChiSquaredKnownValues) {
  // Chi2 with 1 df at 3.841 ~ 0.95 (classic critical value).
  EXPECT_NEAR(ChiSquaredCdf(3.841458820694124, 1.0), 0.95, 1e-6);
  // Chi2 with 2 df is Exponential(1/2): CDF(x) = 1 - exp(-x/2).
  EXPECT_NEAR(ChiSquaredCdf(2.0, 2.0), 1.0 - std::exp(-1.0), 1e-9);
}

TEST(DistributionsTest, IncompleteBetaSymmetry) {
  for (double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 3.0, x),
                1.0 - RegularizedIncompleteBeta(3.0, 2.0, 1.0 - x), 1e-10);
  }
  EXPECT_EQ(RegularizedIncompleteBeta(1.0, 1.0, 0.0), 0.0);
  EXPECT_EQ(RegularizedIncompleteBeta(1.0, 1.0, 1.0), 1.0);
  // Beta(1,1) is uniform.
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.37), 0.37, 1e-10);
}

TEST(DistributionsTest, StudentTKnownCriticalValues) {
  // t_{0.975, 10} = 2.228138852; t_{0.975, inf} -> 1.96.
  EXPECT_NEAR(StudentTCdf(2.2281388519649385, 10.0), 0.975, 1e-8);
  EXPECT_NEAR(StudentTQuantile(0.975, 10.0), 2.2281388519649385, 1e-6);
  EXPECT_NEAR(StudentTQuantile(0.975, 1e6), 1.96, 1e-2);
  EXPECT_NEAR(StudentTCdf(0.0, 5.0), 0.5, 1e-12);
  // Symmetry.
  EXPECT_NEAR(StudentTCdf(-1.5, 7.0) + StudentTCdf(1.5, 7.0), 1.0, 1e-10);
}

TEST(DistributionsTest, PredictionHalfWidth95) {
  const double rse = 0.25;
  // df = n - p: the t quantile below 200, 1.96 from 200 on.
  EXPECT_EQ(PredictionHalfWidth95(rse, 3, 2),
            StudentTQuantile(0.975, 1.0) * rse);
  EXPECT_EQ(PredictionHalfWidth95(rse, 201, 2),
            StudentTQuantile(0.975, 199.0) * rse);
  EXPECT_EQ(PredictionHalfWidth95(rse, 202, 2), 1.96 * rse);
  // Asked again (the quantile is now remembered), the same bits.
  EXPECT_EQ(PredictionHalfWidth95(rse, 3, 2),
            StudentTQuantile(0.975, 1.0) * rse);
  // n <= p: no degrees of freedom, the raw residual standard error.
  EXPECT_EQ(PredictionHalfWidth95(rse, 2, 2), rse);
  EXPECT_EQ(PredictionHalfWidth95(rse, 1, 2), rse);
}

TEST(DistributionsTest, FDistributionKnownValues) {
  // F(1, n) = T(n)^2: P(F <= t^2) = P(|T| <= t).
  const double t = 2.0;
  EXPECT_NEAR(FCdf(t * t, 1.0, 10.0),
              StudentTCdf(t, 10.0) - StudentTCdf(-t, 10.0), 1e-9);
  // F_{0.95}(2, 10) = 4.102821.
  EXPECT_NEAR(FCdf(4.102821015303716, 2.0, 10.0), 0.95, 1e-6);
  EXPECT_EQ(FCdf(0.0, 3.0, 3.0), 0.0);
}

// --- Goodness of fit ----------------------------------------------------

TEST(GofTest, PerfectFit) {
  std::vector<double> y = {1, 2, 3, 4, 5};
  auto q = ComputeFitQuality(y, y, 2);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q->r_squared, 1.0);
  EXPECT_DOUBLE_EQ(q->residual_standard_error, 0.0);
  EXPECT_EQ(q->n_observations, 5u);
}

TEST(GofTest, MeanModelHasZeroR2) {
  std::vector<double> y = {1, 2, 3, 4, 5};
  std::vector<double> pred(5, 3.0);  // the mean
  auto q = ComputeFitQuality(y, pred, 1);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(q->r_squared, 0.0, 1e-12);
}

TEST(GofTest, KnownResidualStandardError) {
  std::vector<double> y = {1, 2, 3, 4};
  std::vector<double> pred = {1.1, 1.9, 3.1, 3.9};
  auto q = ComputeFitQuality(y, pred, 2);
  ASSERT_TRUE(q.ok());
  // RSS = 4 * 0.01 = 0.04; RSE = sqrt(0.04 / 2) = sqrt(0.02).
  EXPECT_NEAR(q->residual_sum_of_squares, 0.04, 1e-12);
  EXPECT_NEAR(q->residual_standard_error, std::sqrt(0.02), 1e-12);
}

TEST(GofTest, RejectsDegenerateInputs) {
  std::vector<double> y = {1, 2};
  EXPECT_FALSE(ComputeFitQuality(y, {1.0}, 1).ok());
  EXPECT_FALSE(ComputeFitQuality(y, y, 2).ok());  // n <= p
}

TEST(GofTest, QualityFromSumsCoversAConstantResponse) {
  // What ComputeFitQuality and the incremental solver both derive from
  // (RSS, TSS): a constant response fitted exactly has R2 = 1, one fitted
  // with residuals R2 = 0, and adjusted R2 follows R2 when TSS = 0.
  const FitQuality exact = FitQualityFromSums(0.0, 0.0, 5, 2);
  EXPECT_EQ(exact.r_squared, 1.0);
  EXPECT_EQ(exact.adjusted_r_squared, 1.0);
  const FitQuality off = FitQualityFromSums(0.5, 0.0, 5, 2);
  EXPECT_EQ(off.r_squared, 0.0);
  EXPECT_EQ(off.adjusted_r_squared, 0.0);
  EXPECT_EQ(off.residual_standard_error, std::sqrt(0.5 / 3.0));
  // RSS 1, TSS 4 over n = 5, p = 2: R2 = 0.75, adjusted 1 - (1/3)/(4/4).
  const FitQuality q = FitQualityFromSums(1.0, 4.0, 5, 2);
  EXPECT_EQ(q.r_squared, 0.75);
  EXPECT_NEAR(q.adjusted_r_squared, 1.0 - 1.0 / 3.0, 1e-15);
}

TEST(GofTest, BicPenalizesMoreThanAicForLargeN) {
  std::vector<double> y(200), pred(200);
  Rng rng(3);
  for (size_t i = 0; i < 200; ++i) {
    y[i] = static_cast<double>(i);
    pred[i] = y[i] + rng.Normal(0, 1.0);
  }
  auto q2 = ComputeFitQuality(y, pred, 2);
  auto q5 = ComputeFitQuality(y, pred, 5);
  ASSERT_TRUE(q2.ok());
  ASSERT_TRUE(q5.ok());
  // Same predictions, more parameters: both criteria must worsen, BIC more.
  EXPECT_GT(q5->aic, q2->aic);
  EXPECT_GT(q5->bic, q2->bic);
  EXPECT_GT(q5->bic - q2->bic, q5->aic - q2->aic);
}

TEST(FTestTest, SignificantImprovement) {
  // Full model halves the RSS with one extra parameter on 100 points.
  auto r = NestedFTest(/*rss_reduced=*/100.0, /*p_reduced=*/1,
                       /*rss_full=*/50.0, /*p_full=*/2, /*n=*/100);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->significant);
  EXPECT_LT(r->p_value, 1e-6);
  EXPECT_NEAR(r->f_statistic, 98.0, 1e-9);  // (50/1)/(50/98)
}

TEST(FTestTest, NoImprovementNotSignificant) {
  auto r = NestedFTest(100.0, 1, 99.5, 2, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->significant);
  EXPECT_GT(r->p_value, 0.4);
}

TEST(FTestTest, PerfectFullModel) {
  auto r = NestedFTest(10.0, 1, 0.0, 2, 50);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->significant);
  EXPECT_EQ(r->p_value, 0.0);
}

TEST(FTestTest, InvalidInputs) {
  EXPECT_FALSE(NestedFTest(1.0, 2, 0.5, 2, 100).ok());  // p_full <= p_reduced
  EXPECT_FALSE(NestedFTest(1.0, 1, 0.5, 2, 2).ok());    // n <= p_full
  EXPECT_FALSE(NestedFTest(-1.0, 1, 0.5, 2, 10).ok());  // negative RSS
}

TEST(PredictionIntervalTest, HalfWidthMatchesTQuantile) {
  EXPECT_NEAR(PredictionHalfWidth95(2.0, 102, 2),
              2.0 * StudentTQuantile(0.975, 100.0), 1e-10);
  // Small-sample intervals are wider than the normal approximation.
  EXPECT_GT(PredictionHalfWidth95(2.0, 5, 2), 2.0 * 1.96);
}

TEST(PredictionIntervalTest, EmpiricalCoverage) {
  // Simulate: fit a mean-only model, check ~95% of fresh draws fall inside
  // the prediction interval.
  Rng rng(71);
  size_t covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> sample(30);
    double mean = 0.0;
    for (auto& v : sample) {
      v = rng.Normal(10.0, 3.0);
      mean += v;
    }
    mean /= sample.size();
    std::vector<double> pred(sample.size(), mean);
    auto q = ComputeFitQuality(sample, pred, 1);
    ASSERT_TRUE(q.ok());
    const double hw = PredictionHalfWidth95(
        q->residual_standard_error, q->n_observations, q->n_parameters);
    const double fresh = rng.Normal(10.0, 3.0);
    if (std::fabs(fresh - mean) <= hw) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LT(coverage, 0.99);
}

// --- Diagnostics ------------------------------------------------------------

TEST(DiagnosticsTest, KsAcceptsNormalSample) {
  Rng rng(81);
  std::vector<double> v(2000);
  for (auto& x : v) x = rng.Normal(5.0, 2.0);
  auto ks = KolmogorovSmirnovNormalTest(v);
  ASSERT_TRUE(ks.ok());
  EXPECT_TRUE(ks->normal_at_05);
  EXPECT_LT(ks->statistic, 0.05);
}

TEST(DiagnosticsTest, KsRejectsExponentialSample) {
  Rng rng(83);
  std::vector<double> v(2000);
  for (auto& x : v) x = rng.Exponential(1.0);
  auto ks = KolmogorovSmirnovNormalTest(v);
  ASSERT_TRUE(ks.ok());
  EXPECT_FALSE(ks->normal_at_05);
  EXPECT_LT(ks->p_value, 0.001);
}

TEST(DiagnosticsTest, KsValidation) {
  EXPECT_FALSE(KolmogorovSmirnovNormalTest({1, 2, 3}).ok());   // too few
  EXPECT_FALSE(
      KolmogorovSmirnovNormalTest(std::vector<double>(20, 7.0)).ok());
}

TEST(DiagnosticsTest, DurbinWatsonRegimes) {
  Rng rng(85);
  // Independent residuals: DW near 2.
  std::vector<double> iid(5000);
  for (auto& x : iid) x = rng.Normal();
  auto dw_iid = DurbinWatson(iid);
  ASSERT_TRUE(dw_iid.ok());
  EXPECT_NEAR(*dw_iid, 2.0, 0.1);
  // Strong positive autocorrelation (AR(1), rho = 0.95): DW near 0.
  std::vector<double> ar(5000);
  ar[0] = rng.Normal();
  for (size_t i = 1; i < ar.size(); ++i) {
    ar[i] = 0.95 * ar[i - 1] + rng.Normal(0, 0.3);
  }
  auto dw_ar = DurbinWatson(ar);
  ASSERT_TRUE(dw_ar.ok());
  EXPECT_LT(*dw_ar, 0.5);
  // Alternating sign: DW near 4.
  std::vector<double> alt(1000);
  for (size_t i = 0; i < alt.size(); ++i) alt[i] = i % 2 == 0 ? 1.0 : -1.0;
  auto dw_alt = DurbinWatson(alt);
  ASSERT_TRUE(dw_alt.ok());
  EXPECT_GT(*dw_alt, 3.5);
  EXPECT_FALSE(DurbinWatson({1.0}).ok());
  EXPECT_FALSE(DurbinWatson({0.0, 0.0}).ok());
}

TEST(DiagnosticsTest, MisfitModelShowsAutocorrelatedResiduals) {
  // Fit a line to a parabola: residuals ordered by x are smooth -> DW << 2.
  std::vector<double> residuals;
  for (int i = 0; i < 200; ++i) {
    const double x = i / 20.0;
    const double y = x * x;              // truth
    const double line = 10.0 * x - 16.7; // decent linear fit by eye
    residuals.push_back(y - line);
  }
  auto dw = DurbinWatson(residuals);
  ASSERT_TRUE(dw.ok());
  EXPECT_LT(*dw, 0.5);
}

// --- Histogram ----------------------------------------------------------

TEST(HistogramTest, EquiWidthCountsExactOnBucketBoundaries) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>(i));
  auto h = Histogram::BuildEquiWidth(v, 10);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->bucket_count(), 10u);
  EXPECT_EQ(h->total_count(), 100u);
  size_t total = 0;
  for (size_t c : h->counts()) total += c;
  EXPECT_EQ(total, 100u);
  // Full-range estimate equals the exact count.
  EXPECT_NEAR(h->EstimateRangeCount(-1.0, 100.0), 100.0, 1e-9);
}

TEST(HistogramTest, EquiDepthBucketsBalanced) {
  Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.Exponential(1.0));
  auto h = Histogram::BuildEquiDepth(v, 20);
  ASSERT_TRUE(h.ok());
  for (size_t c : h->counts()) EXPECT_EQ(c, 500u);
}

TEST(HistogramTest, RangeCountEstimateOnUniformData) {
  Rng rng(6);
  std::vector<double> v;
  for (int i = 0; i < 50000; ++i) v.push_back(rng.Uniform(0.0, 1.0));
  auto h = Histogram::BuildEquiWidth(v, 50);
  ASSERT_TRUE(h.ok());
  // [0.2, 0.5] should hold ~30% of rows.
  EXPECT_NEAR(h->EstimateRangeCount(0.2, 0.5), 15000.0, 600.0);
}

TEST(HistogramTest, RangeSumAndAvgOnUniformData) {
  Rng rng(7);
  std::vector<double> v;
  for (int i = 0; i < 50000; ++i) v.push_back(rng.Uniform(0.0, 10.0));
  auto h = Histogram::BuildEquiDepth(v, 64);
  ASSERT_TRUE(h.ok());
  const double avg = h->EstimateRangeAvg(2.0, 4.0);
  EXPECT_NEAR(avg, 3.0, 0.15);
  const double count = h->EstimateRangeCount(2.0, 4.0);
  EXPECT_NEAR(h->EstimateRangeSum(2.0, 4.0), avg * count, 1e-6);
}

TEST(HistogramTest, DegenerateInputs) {
  EXPECT_FALSE(Histogram::BuildEquiWidth({}, 4).ok());
  EXPECT_FALSE(Histogram::BuildEquiWidth({1.0}, 0).ok());
  // Constant column must not divide by zero.
  auto h = Histogram::BuildEquiWidth({5.0, 5.0, 5.0}, 4);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->total_count(), 3u);
  EXPECT_NEAR(h->EstimateRangeCount(4.0, 6.0), 3.0, 1e-9);
}

TEST(HistogramTest, EmptyRangeEstimatesZero) {
  auto h = Histogram::BuildEquiWidth({1, 2, 3}, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->EstimateRangeCount(10.0, 20.0), 0.0);
  EXPECT_EQ(h->EstimateRangeCount(5.0, 4.0), 0.0);  // inverted
  EXPECT_EQ(h->EstimateRangeAvg(10.0, 20.0), 0.0);
}

TEST(HistogramTest, SizeBytesPositive) {
  auto h = Histogram::BuildEquiDepth({1, 2, 3, 4, 5}, 2);
  ASSERT_TRUE(h.ok());
  EXPECT_GT(h->SizeBytes(), 0u);
  EXPECT_FALSE(h->ToString().empty());
}

}  // namespace
}  // namespace laws
