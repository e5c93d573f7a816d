#include "stats/goodness_of_fit.h"

#include <cmath>
#include <cstdio>

#include "stats/distributions.h"

namespace laws {

std::string FitQuality::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%zu p=%zu R2=%.4f adjR2=%.4f RSE=%.6g AIC=%.4g BIC=%.4g",
                n_observations, n_parameters, r_squared, adjusted_r_squared,
                residual_standard_error, aic, bic);
  return buf;
}

bool BetterFit(const FitQuality& a, const FitQuality& b) {
  return a.bic < b.bic;
}

Result<FitQuality> ComputeFitQuality(const std::vector<double>& observed,
                                     const std::vector<double>& predicted,
                                     size_t n_parameters) {
  if (observed.size() != predicted.size()) {
    return Status::InvalidArgument("observed/predicted size mismatch");
  }
  const size_t n = observed.size();
  if (n <= n_parameters) {
    return Status::InvalidArgument(
        "need more observations than parameters to assess fit");
  }
  double mean = 0.0;
  for (double y : observed) mean += y;
  mean /= static_cast<double>(n);

  double rss = 0.0;
  double tss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double r = observed[i] - predicted[i];
    const double d = observed[i] - mean;
    rss += r * r;
    tss += d * d;
  }
  return FitQualityFromSums(rss, tss, n, n_parameters);
}

FitQuality FitQualityFromSums(double rss, double tss, size_t n, size_t p) {
  FitQuality q;
  q.n_observations = n;
  q.n_parameters = p;
  q.residual_sum_of_squares = rss;
  q.total_sum_of_squares = tss;
  // A constant response fitted exactly has R2 = 1 by convention; otherwise
  // R2 = 1 - RSS/TSS (can be negative for models worse than the mean).
  q.r_squared = tss > 0.0 ? 1.0 - rss / tss : (rss == 0.0 ? 1.0 : 0.0);
  const double nd = static_cast<double>(n);
  const double pd = static_cast<double>(p);
  q.adjusted_r_squared =
      tss > 0.0 ? 1.0 - (rss / (nd - pd)) / (tss / (nd - 1.0))
                : q.r_squared;
  q.residual_standard_error = std::sqrt(rss / (nd - pd));
  // Gaussian log-likelihood based criteria; +1 counts the variance
  // parameter. Guard log(0) for perfect fits.
  const double sigma2 = std::max(rss / nd, 1e-300);
  const double log_lik =
      -0.5 * nd * (std::log(2.0 * M_PI * sigma2) + 1.0);
  q.aic = 2.0 * (pd + 1.0) - 2.0 * log_lik;
  q.bic = std::log(nd) * (pd + 1.0) - 2.0 * log_lik;
  return q;
}

Result<FTestResult> NestedFTest(double rss_reduced, size_t p_reduced,
                                double rss_full, size_t p_full, size_t n,
                                double alpha) {
  if (p_full <= p_reduced) {
    return Status::InvalidArgument("full model must have more parameters");
  }
  if (n <= p_full) {
    return Status::InvalidArgument("need n > p_full observations");
  }
  if (rss_full < 0.0 || rss_reduced < 0.0) {
    return Status::InvalidArgument("negative residual sum of squares");
  }
  FTestResult r;
  r.df_numerator = static_cast<double>(p_full - p_reduced);
  r.df_denominator = static_cast<double>(n - p_full);
  if (rss_full <= 0.0) {
    // Perfect full model: infinitely significant unless the reduced model is
    // also perfect.
    r.f_statistic = rss_reduced > 0.0 ? 1e308 : 0.0;
    r.p_value = rss_reduced > 0.0 ? 0.0 : 1.0;
    r.significant = rss_reduced > 0.0;
    return r;
  }
  r.f_statistic = ((rss_reduced - rss_full) / r.df_numerator) /
                  (rss_full / r.df_denominator);
  if (r.f_statistic < 0.0) r.f_statistic = 0.0;
  r.p_value = 1.0 - FCdf(r.f_statistic, r.df_numerator, r.df_denominator);
  r.significant = r.p_value < alpha;
  return r;
}

}  // namespace laws
