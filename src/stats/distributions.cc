#include "stats/distributions.h"

#include <array>
#include <atomic>
#include <cmath>
#include <limits>

namespace laws {
namespace {

constexpr double kEps = 1e-15;
constexpr int kMaxIter = 500;

/// Thread-safe log-gamma. glibc's lgamma() writes the process-global
/// `signgam`, which is a data race when concurrent sessions evaluate
/// t-quantiles; lgamma_r keeps the sign in a local instead. Every call
/// site here passes a positive argument, so the sign is always +1.
double LogGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// Continued-fraction evaluation of the regularized incomplete beta
/// (Numerical Recipes' betacf, modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < 1e-300) d = 1e-300;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = 1.0 + aa / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = 1.0 + aa / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

/// Lower incomplete gamma by series expansion (x < a+1 regime).
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < kMaxIter; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

/// Upper incomplete gamma by continued fraction (x >= a+1 regime).
double GammaQContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1e300;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h * std::exp(-x + a * std::log(x) - LogGamma(a));
}

}  // namespace

double NormalPdf(double x) {
  static const double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double NormalQuantile(double p) {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step.
  const double e = NormalCdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double RegularizedGammaP(double a, double x) {
  if (x < 0.0 || a <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  if (x < 0.0 || a <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = LogGamma(a + b) - LogGamma(a) -
                          LogGamma(b) + a * std::log(x) +
                          b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double df) {
  if (df <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  const double x = df / (df + t * t);
  const double p = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - p : p;
}

double StudentTQuantile(double p, double df) {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  // Bisection on the CDF; monotone, so robust. Bracket grows as needed.
  double lo = -1.0, hi = 1.0;
  while (StudentTCdf(lo, df) > p) lo *= 2.0;
  while (StudentTCdf(hi, df) < p) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (StudentTCdf(mid, df) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + std::fabs(hi))) break;
  }
  return 0.5 * (lo + hi);
}

double PredictionHalfWidth95(double rse, size_t n_observations,
                             size_t n_parameters) {
  if (n_observations <= n_parameters) return rse;
  const size_t df = n_observations - n_parameters;
  if (df >= 200) return 1.96 * rse;
  // One quantile inversion takes tens of microseconds and a grouped
  // reconstruction asks once per group, so each df's quantile is kept (0 =
  // not yet; threads that race store the same value).
  static std::array<std::atomic<double>, 200> quantiles{};
  double t = quantiles[df].load(std::memory_order_relaxed);
  if (t == 0.0) {
    t = StudentTQuantile(0.975, static_cast<double>(df));
    quantiles[df].store(t, std::memory_order_relaxed);
  }
  return t * rse;
}

double FCdf(double f, double d1, double d2) {
  if (f <= 0.0) return 0.0;
  const double x = d1 * f / (d1 * f + d2);
  return RegularizedIncompleteBeta(d1 / 2.0, d2 / 2.0, x);
}

double ChiSquaredCdf(double x, double df) {
  if (x <= 0.0) return 0.0;
  return RegularizedGammaP(df / 2.0, x / 2.0);
}

}  // namespace laws
