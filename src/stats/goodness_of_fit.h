#ifndef LAWSDB_STATS_GOODNESS_OF_FIT_H_
#define LAWSDB_STATS_GOODNESS_OF_FIT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"

namespace laws {

/// Goodness-of-fit summary for a fitted model, as proposed in the paper
/// (§3): R², residual standard error, plus information criteria used by the
/// model-lifecycle arbitration in laws::core.
struct FitQuality {
  size_t n_observations = 0;
  size_t n_parameters = 0;
  double r_squared = 0.0;
  double adjusted_r_squared = 0.0;
  /// sqrt(RSS / (n - p)) — "Residual SE" in the paper's Table 1.
  double residual_standard_error = 0.0;
  double residual_sum_of_squares = 0.0;
  double total_sum_of_squares = 0.0;
  /// Akaike information criterion under a Gaussian error model.
  double aic = 0.0;
  /// Bayesian information criterion under a Gaussian error model.
  double bic = 0.0;

  std::string ToString() const;
};

/// The quality summary of a fit with residual sum of squares `rss` and
/// total sum of squares `tss` over `n` observations and `p` parameters;
/// requires n > p. Every fit path derives R², adjusted R², RSE, AIC and
/// BIC here, so the same sums give bit-identical qualities.
FitQuality FitQualityFromSums(double rss, double tss, size_t n, size_t p);

/// The model-selection rule the advisor and the learner share: true when
/// `a` is the better of two fits of the same observations, by lower BIC.
/// BIC charges log(n) per parameter, so a nested family that fits no
/// better than the smaller one loses. Fits of different rows do not
/// compare by it; quality gates such as adjusted R² judge those.
bool BetterFit(const FitQuality& a, const FitQuality& b);

/// Computes the full quality summary from observed and predicted outputs.
/// Returns InvalidArgument on size mismatch or n <= p.
Result<FitQuality> ComputeFitQuality(const std::vector<double>& observed,
                                     const std::vector<double>& predicted,
                                     size_t n_parameters);

/// Result of an F-test comparing a full model against a nested reduced model
/// (paper §3: "the results of an F-test against a model with fewer
/// parameters").
struct FTestResult {
  double f_statistic = 0.0;
  double p_value = 1.0;
  double df_numerator = 0.0;
  double df_denominator = 0.0;
  /// True when the full model is a significant improvement at `alpha`.
  bool significant = false;
};

/// Nested-model F-test. `rss_reduced` / `rss_full` are residual sums of
/// squares; `p_reduced` < `p_full` are parameter counts; n is the number of
/// observations.
Result<FTestResult> NestedFTest(double rss_reduced, size_t p_reduced,
                                double rss_full, size_t p_full, size_t n,
                                double alpha = 0.05);

}  // namespace laws

#endif  // LAWSDB_STATS_GOODNESS_OF_FIT_H_
