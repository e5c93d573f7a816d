#include "anomaly/anomaly.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/session.h"
#include "model/model.h"

namespace laws {

Result<GroupAnomalyReport> ScoreGroups(const CapturedModel& model,
                                       const AnomalyOptions& options) {
  if (!model.grouped) {
    return Status::InvalidArgument("group screening needs a grouped model");
  }
  LAWS_ASSIGN_OR_RETURN(ModelPtr fn, ModelFromSource(model.model_source));
  LAWS_ASSIGN_OR_RETURN(const GroupParameters groups,
                        ParametersOf(model, *fn));

  const size_t n = groups.num_groups();
  std::vector<double> rses(n), r2s(n);
  for (size_t g = 0; g < n; ++g) {
    rses[g] = groups.residual_se(g);
    r2s[g] = groups.r_squared(g);
  }
  GroupAnomalyReport report;
  report.median_residual_se = MedianOf(rses);
  report.median_r_squared = MedianOf(r2s);
  const double rse_cut =
      options.rse_factor * std::max(report.median_residual_se, 1e-300);

  report.ranked.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    GroupAnomalyScore s;
    s.group_key = groups.key(r);
    s.residual_se = rses[r];
    s.r_squared = r2s[r];
    const double rse_ratio =
        rses[r] / std::max(report.median_residual_se, 1e-300);
    const double r2_penalty = std::max(0.0, 1.0 - std::max(r2s[r], 0.0));
    s.score = rse_ratio + r2_penalty;
    s.flagged =
        r2s[r] < options.r_squared_threshold || rses[r] > rse_cut;
    if (s.flagged) ++report.flagged;
    report.ranked.push_back(s);
  }
  std::sort(report.ranked.begin(), report.ranked.end(),
            [](const GroupAnomalyScore& a, const GroupAnomalyScore& b) {
              return a.score > b.score;
            });
  return report;
}

Result<std::vector<TupleOutlier>> DetectOutlierTuples(
    const Table& table, const CapturedModel& model, double z_threshold) {
  if (!model.grouped) {
    return Status::InvalidArgument("tuple screening needs a grouped model");
  }
  LAWS_ASSIGN_OR_RETURN(ModelPtr fn, ModelFromSource(model.model_source));
  LAWS_ASSIGN_OR_RETURN(const GroupParameters groups,
                        ParametersOf(model, *fn));

  LAWS_ASSIGN_OR_RETURN(const Column* group,
                        table.ColumnByName(model.group_column));
  if (group->type() != DataType::kInt64) {
    return Status::TypeMismatch("group column must be INT64");
  }
  std::vector<const Column*> inputs;
  for (const auto& name : model.input_columns) {
    LAWS_ASSIGN_OR_RETURN(const Column* c, table.ColumnByName(name));
    inputs.push_back(c);
  }
  LAWS_ASSIGN_OR_RETURN(const Column* output,
                        table.ColumnByName(model.output_column));

  std::vector<TupleOutlier> outliers;
  Vector x(inputs.size()), params;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (group->IsNull(i) || output->IsNull(i)) continue;
    const int64_t key = group->Int64At(i);
    const std::optional<size_t> g = groups.Find(key);
    if (!g) continue;
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
    groups.Params(*g, &params);
    const double predicted = fn->Evaluate(x, params);
    LAWS_ASSIGN_OR_RETURN(double observed, output->NumericAt(i));
    const double denom = std::max(groups.residual_se(*g), 1e-300);
    const double z = (observed - predicted) / denom;
    if (std::fabs(z) >= z_threshold) {
      outliers.push_back(TupleOutlier{i, key, observed, predicted, z});
    }
  }
  std::sort(outliers.begin(), outliers.end(),
            [](const TupleOutlier& a, const TupleOutlier& b) {
              return std::fabs(a.z_score) > std::fabs(b.z_score);
            });
  return outliers;
}

}  // namespace laws
