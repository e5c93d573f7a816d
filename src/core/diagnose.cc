#include "core/diagnose.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "model/model.h"

namespace laws {

Result<ModelDiagnostics> DiagnoseModel(const Table& table,
                                       const CapturedModel& model,
                                       int64_t group_key) {
  LAWS_ASSIGN_OR_RETURN(ModelPtr fn, ModelFromSource(model.model_source));
  if (fn->num_inputs() != model.input_columns.size()) {
    return Status::Internal("captured model arity mismatch");
  }

  // Resolve the parameter vector: the model's own (ungrouped) or the
  // requested group's.
  LAWS_ASSIGN_OR_RETURN(const GroupParameters groups,
                        ParametersOf(model, *fn));
  const std::optional<size_t> g =
      model.grouped ? groups.Find(group_key) : std::optional<size_t>(0);
  if (!g) {
    return Status::NotFound("group " + std::to_string(group_key) +
                            " has no captured parameters");
  }
  Vector params;
  groups.Params(*g, &params);

  const Column* group_col = nullptr;
  if (model.grouped) {
    LAWS_ASSIGN_OR_RETURN(group_col, table.ColumnByName(model.group_column));
    if (group_col->type() != DataType::kInt64) {
      return Status::TypeMismatch("group column must be INT64");
    }
  }
  std::vector<const Column*> inputs;
  for (const auto& name : model.input_columns) {
    LAWS_ASSIGN_OR_RETURN(const Column* c, table.ColumnByName(name));
    inputs.push_back(c);
  }
  LAWS_ASSIGN_OR_RETURN(const Column* output,
                        table.ColumnByName(model.output_column));

  // Collect (first input, residual) pairs for the covered rows.
  struct Point {
    double x;
    double residual;
  };
  std::vector<Point> points;
  Vector x(inputs.size());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (output->IsNull(i)) continue;
    if (model.grouped &&
        (group_col->IsNull(i) || group_col->Int64At(i) != group_key)) {
      continue;
    }
    bool ok = true;
    for (size_t c = 0; c < inputs.size(); ++c) {
      if (inputs[c]->IsNull(i)) {
        ok = false;
        break;
      }
      auto v = inputs[c]->NumericAt(i);
      if (!v.ok()) return v.status();
      x[c] = *v;
    }
    if (!ok) continue;
    const double pred = fn->Evaluate(x, params);
    auto obs = output->NumericAt(i);
    if (!obs.ok()) return obs.status();
    if (!std::isfinite(pred)) continue;
    points.push_back(Point{x[0], *obs - pred});
  }
  if (points.size() < 8) {
    return Status::InvalidArgument("too few covered rows for diagnostics");
  }
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.x < b.x; });

  std::vector<double> residuals;
  residuals.reserve(points.size());
  for (const Point& pt : points) residuals.push_back(pt.residual);

  ModelDiagnostics out;
  out.residuals_used = residuals.size();
  LAWS_ASSIGN_OR_RETURN(out.residual_normality,
                        KolmogorovSmirnovNormalTest(residuals));
  LAWS_ASSIGN_OR_RETURN(out.durbin_watson, DurbinWatson(residuals));
  out.healthy = out.residual_normality.normal_at_05 &&
                out.durbin_watson >= 1.0 && out.durbin_watson <= 3.0;
  return out;
}

}  // namespace laws
