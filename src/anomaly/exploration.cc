#include "anomaly/exploration.h"

#include <algorithm>
#include <cmath>

#include "model/model.h"

namespace laws {

Result<std::vector<GradientPoint>> FindHighGradientRegions(
    const CapturedModel& model, const ColumnDomain& domain, size_t top_k) {
  LAWS_ASSIGN_OR_RETURN(ModelPtr fn, ModelFromSource(model.model_source));
  if (fn->num_inputs() != 1) {
    return Status::InvalidArgument(
        "gradient sweep implemented for single-input models");
  }

  LAWS_ASSIGN_OR_RETURN(const GroupParameters groups,
                        ParametersOf(model, *fn));

  std::vector<GradientPoint> points;
  Vector x(1), params, grad;
  const size_t n = domain.Cardinality();
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    groups.Params(g, &params);
    for (size_t i = 0; i < n; ++i) {
      x[0] = domain.ValueAt(i);
      fn->InputGradient(x, params, &grad);
      if (!std::isfinite(grad[0])) continue;
      points.push_back(GradientPoint{groups.key(g), x[0], grad[0]});
    }
  }
  const size_t keep = std::min(top_k, points.size());
  std::partial_sort(points.begin(), points.begin() + keep, points.end(),
                    [](const GradientPoint& a, const GradientPoint& b) {
                      return std::fabs(a.gradient) > std::fabs(b.gradient);
                    });
  points.resize(keep);
  return points;
}

}  // namespace laws
