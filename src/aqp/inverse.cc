#include "aqp/inverse.h"

#include <cmath>

#include "model/model.h"

namespace laws {

Result<std::vector<InverseRegion>> InversePredict(const CapturedModel& model,
                                                  const ColumnDomain& domain,
                                                  double y_lo, double y_hi) {
  if (y_hi < y_lo) {
    return Status::InvalidArgument("empty target range (y_hi < y_lo)");
  }
  LAWS_ASSIGN_OR_RETURN(ModelPtr fn, ModelFromSource(model.model_source));
  if (fn->num_inputs() != 1) {
    return Status::InvalidArgument(
        "inverse prediction implemented for single-input models");
  }

  LAWS_ASSIGN_OR_RETURN(const GroupParameters groups,
                        ParametersOf(model, *fn));

  std::vector<InverseRegion> regions;
  const size_t n = domain.Cardinality();
  Vector x(1), params;
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    groups.Params(g, &params);
    bool in_run = false;
    InverseRegion current;
    for (size_t i = 0; i < n; ++i) {
      x[0] = domain.ValueAt(i);
      const double y = fn->Evaluate(x, params);
      const bool hit = std::isfinite(y) && y >= y_lo && y <= y_hi;
      if (hit && !in_run) {
        current = InverseRegion{groups.key(g), x[0], x[0], 1};
        in_run = true;
      } else if (hit) {
        current.input_hi = x[0];
        ++current.points;
      } else if (in_run) {
        regions.push_back(current);
        in_run = false;
      }
    }
    if (in_run) regions.push_back(current);
  }
  return regions;
}

Result<double> InvertMonotone(const Model& model, const Vector& params,
                              double y, double x_lo, double x_hi,
                              double tolerance) {
  if (x_hi <= x_lo) {
    return Status::InvalidArgument("empty input interval");
  }
  const double f_lo = model.Evaluate({x_lo}, params);
  const double f_hi = model.Evaluate({x_hi}, params);
  const double f_mid = model.Evaluate({0.5 * (x_lo + x_hi)}, params);
  if (!std::isfinite(f_lo) || !std::isfinite(f_hi) || !std::isfinite(f_mid)) {
    return Status::NumericError("model non-finite on the interval");
  }
  const bool increasing = f_hi >= f_lo;
  // Monotonicity spot check at the midpoint.
  if (increasing ? (f_mid < f_lo - 1e-12 || f_mid > f_hi + 1e-12)
                 : (f_mid > f_lo + 1e-12 || f_mid < f_hi - 1e-12)) {
    return Status::InvalidArgument("model is not monotone on the interval");
  }
  const double lo_val = increasing ? f_lo : f_hi;
  const double hi_val = increasing ? f_hi : f_lo;
  if (y < lo_val - 1e-12 || y > hi_val + 1e-12) {
    return Status::NotFound("target output outside the attained range");
  }

  double lo = x_lo, hi = x_hi;
  for (int iter = 0; iter < 200 && hi - lo > tolerance * (1.0 + std::fabs(hi));
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double f = model.Evaluate({mid}, params);
    if ((f < y) == increasing) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace laws
