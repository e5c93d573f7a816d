#include "core/session.h"

#include <algorithm>
#include <cmath>

#include "model/grouped_fit.h"
#include "model/model.h"
#include "query/expr_eval.h"
#include "query/parser.h"

namespace laws {

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

FitRequest RefitRequest(const CapturedModel& model) {
  FitRequest request;
  request.table = model.table_name;
  request.model_source = model.model_source;
  request.input_columns = model.input_columns;
  request.output_column = model.output_column;
  request.group_column = model.group_column;
  request.where = model.subset_predicate;
  return request;
}

namespace {

/// Applies the optional subset predicate, returning either the original
/// table (no predicate) or the filtered materialization.
Result<Table> ApplySubset(const Table& table, const std::string& where) {
  if (where.empty()) {
    return Status::Internal("ApplySubset called without predicate");
  }
  LAWS_ASSIGN_OR_RETURN(auto predicate, ParseExpression(where));
  LAWS_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                        FilterRows(*predicate, table));
  return table.GatherRows(rows);
}

}  // namespace

Status ExtractObservations(const Table& table,
                           const std::vector<std::string>& input_columns,
                           const std::string& output_column, Matrix* inputs,
                           Vector* outputs) {
  std::vector<const Column*> in_cols;
  for (const auto& name : input_columns) {
    LAWS_ASSIGN_OR_RETURN(const Column* c, table.ColumnByName(name));
    if (c->type() == DataType::kString) {
      return Status::TypeMismatch("input column '" + name +
                                  "' is not numeric");
    }
    in_cols.push_back(c);
  }
  LAWS_ASSIGN_OR_RETURN(const Column* out_col,
                        table.ColumnByName(output_column));
  if (out_col->type() == DataType::kString) {
    return Status::TypeMismatch("output column is not numeric");
  }
  std::vector<uint32_t> usable;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (out_col->IsNull(i)) continue;
    bool ok = true;
    for (const Column* c : in_cols) {
      if (c->IsNull(i)) {
        ok = false;
        break;
      }
    }
    if (ok) usable.push_back(static_cast<uint32_t>(i));
  }
  Vector scratch;
  return GatherObservations(in_cols, *out_col, usable.data(), usable.size(),
                            inputs, outputs, &scratch);
}

Status ComputeCapturedFit(const Catalog& data, const FitRequest& request,
                          CapturedModel* captured, FitReport* report) {
  FitReport scratch;
  if (report == nullptr) report = &scratch;
  LAWS_ASSIGN_OR_RETURN(TablePtr table_ptr, data.Get(request.table));
  LAWS_ASSIGN_OR_RETURN(ModelPtr model, ModelFromSource(request.model_source));
  if (model->num_inputs() != request.input_columns.size()) {
    return Status::InvalidArgument(
        "model arity does not match input column count");
  }

  const Table* table = table_ptr.get();
  Table subset{Schema{}};
  if (!request.where.empty()) {
    LAWS_ASSIGN_OR_RETURN(subset, ApplySubset(*table, request.where));
    table = &subset;
  }

  captured->table_name = request.table;
  captured->input_columns = request.input_columns;
  captured->output_column = request.output_column;
  captured->group_column = request.group_column;
  captured->subset_predicate = request.where;
  captured->model_source = request.model_source;
  captured->fitted_data_version = table_ptr->data_version();
  captured->rows_fitted = table->num_rows();

  if (request.group_column.empty()) {
    Matrix inputs;
    Vector outputs;
    LAWS_RETURN_IF_ERROR(ExtractObservations(*table, request.input_columns,
                                             request.output_column, &inputs,
                                             &outputs));
    LAWS_ASSIGN_OR_RETURN(FitOutput fit,
                          FitModel(*model, inputs, outputs, request.options));
    captured->grouped = false;
    captured->parameters = fit.parameters;
    captured->standard_errors = fit.standard_errors;
    captured->quality = fit.quality;
    report->grouped = false;
    report->parameters = fit.parameters;
    report->quality = fit.quality;
    return Status::OK();
  }

  GroupedFitSpec spec;
  spec.group_column = request.group_column;
  spec.input_columns = request.input_columns;
  spec.output_column = request.output_column;
  spec.fit_options = request.options;
  spec.min_observations = request.min_observations;
  LAWS_ASSIGN_OR_RETURN(GroupedFitOutput fits,
                        FitGrouped(*model, *table, spec));
  LAWS_ASSIGN_OR_RETURN(
      Table param_table,
      GroupedFitToTable(*model, fits, request.group_column));

  std::vector<double> r2s, rses;
  r2s.reserve(fits.groups.size());
  for (const GroupFitResult& g : fits.groups) {
    r2s.push_back(g.fit.quality.r_squared);
    rses.push_back(g.fit.quality.residual_standard_error);
  }
  captured->grouped = true;
  captured->parameter_table = std::move(param_table);
  captured->num_groups = fits.groups.size();
  captured->groups_skipped = fits.skipped_too_few;
  captured->groups_failed = fits.failed;
  captured->median_r_squared = MedianOf(r2s);
  captured->median_residual_se = MedianOf(rses);

  report->grouped = true;
  report->num_groups = captured->num_groups;
  report->groups_skipped = captured->groups_skipped;
  report->groups_failed = captured->groups_failed;
  report->median_r_squared = captured->median_r_squared;
  report->median_residual_se = captured->median_residual_se;
  return Status::OK();
}

Result<FitReport> Session::FitInternal(const FitRequest& request,
                                       CapturedModel* captured) {
  FitReport report;
  LAWS_RETURN_IF_ERROR(ComputeCapturedFit(*data_, request, captured, &report));
  return report;
}

Result<FitReport> Session::Fit(const FitRequest& request) {
  CapturedModel captured;
  LAWS_ASSIGN_OR_RETURN(FitReport report, FitInternal(request, &captured));
  report.model_id = models_->Store(std::move(captured));
  return report;
}

Result<FitReport> Session::Refit(uint64_t model_id) {
  LAWS_ASSIGN_OR_RETURN(const CapturedModel* existing, models_->Get(model_id));
  CapturedModel refreshed;
  LAWS_ASSIGN_OR_RETURN(FitReport report,
                        FitInternal(RefitRequest(*existing), &refreshed));
  // Replace in place, keeping the id stable — holders of the old id (the
  // learning loop's hit-rate stats, anomaly fixtures, shell history) keep
  // addressing the same model after the refit.
  refreshed.id = model_id;
  LAWS_RETURN_IF_ERROR(models_->Remove(model_id));
  LAWS_RETURN_IF_ERROR(models_->RestoreWithId(std::move(refreshed)));
  report.model_id = model_id;
  return report;
}

Result<RefitReport> Session::RefitStale() {
  RefitReport report;
  for (uint64_t id : models_->ListIds()) {
    auto model = models_->Get(id);
    if (!model.ok()) continue;
    ++report.checked;
    auto table = data_->Get((*model)->table_name);
    if (!table.ok()) continue;
    if (!ModelCatalog::IsStale(**model, (*table)->data_version())) continue;
    ++report.stale;
    const double old_quality = (*model)->ArbitrationQuality();
    auto refit = Refit(id);
    if (!refit.ok()) {
      ++report.failed;
      continue;
    }
    ++report.refitted;
    auto refreshed = models_->Get(id);
    if (!refreshed.ok()) continue;
    const double new_quality = (*refreshed)->ArbitrationQuality();
    if (std::fabs(new_quality - old_quality) > 0.05) {
      report.quality_shifted.push_back(refit->model_id);
    }
  }
  return report;
}

}  // namespace laws
