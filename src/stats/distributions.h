#ifndef LAWSDB_STATS_DISTRIBUTIONS_H_
#define LAWSDB_STATS_DISTRIBUTIONS_H_

#include <cstddef>

namespace laws {

/// Standard normal density.
double NormalPdf(double x);

/// Standard normal CDF via erfc.
double NormalCdf(double x);

/// Standard normal quantile (inverse CDF), Acklam's rational approximation
/// refined with one Halley step; |error| < 1e-12 over (0,1).
double NormalQuantile(double p);

/// Regularized lower incomplete gamma P(a, x); a > 0, x >= 0.
double RegularizedGammaP(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// Regularized incomplete beta I_x(a, b) via continued fraction (Lentz).
double RegularizedIncompleteBeta(double a, double b, double x);

/// Student-t CDF with `df` degrees of freedom.
double StudentTCdf(double t, double df);

/// Student-t two-sided critical value: smallest c with
/// P(|T| <= c) >= 1 - alpha. Used for confidence/prediction intervals.
double StudentTQuantile(double p, double df);

/// The 95% prediction-interval half-width of a fit with residual standard
/// error `rse` over `n_observations` points and `n_parameters` parameters:
/// StudentTQuantile(0.975, n - p) * rse, with 1.96 for the quantile from
/// 200 degrees of freedom on (within half a percent of normal), and the
/// raw rse when n <= p. Model answers serve it as their error bound. Each
/// df's quantile is computed once per process; safe on any thread.
double PredictionHalfWidth95(double rse, size_t n_observations,
                             size_t n_parameters);

/// F-distribution CDF with (d1, d2) degrees of freedom.
double FCdf(double f, double d1, double d2);

/// Chi-squared CDF with `df` degrees of freedom.
double ChiSquaredCdf(double x, double df);

}  // namespace laws

#endif  // LAWSDB_STATS_DISTRIBUTIONS_H_
