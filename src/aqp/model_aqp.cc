#include "aqp/model_aqp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "model/model.h"
#include "query/executor.h"
#include "query/expr_eval.h"
#include "query/parser.h"
#include "stats/distributions.h"
#include "stats/goodness_of_fit.h"

namespace laws {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    CollectConjuncts(e->children[0].get(), out);
    CollectConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

/// If `e` is `<column> <cmp> <constant>` (either orientation), extracts the
/// pieces.
bool MatchColumnComparison(const Expr& e, std::string* column, BinaryOp* op,
                           double* constant) {
  if (e.kind != ExprKind::kBinary) return false;
  switch (e.binary_op) {
    case BinaryOp::kEqual:
    case BinaryOp::kLess:
    case BinaryOp::kLessEqual:
    case BinaryOp::kGreater:
    case BinaryOp::kGreaterEqual:
      break;
    default:
      return false;
  }
  const Expr* lhs = e.children[0].get();
  const Expr* rhs = e.children[1].get();
  bool flipped = false;
  if (lhs->kind != ExprKind::kColumnRef) {
    std::swap(lhs, rhs);
    flipped = true;
  }
  if (lhs->kind != ExprKind::kColumnRef) return false;
  auto v = EvaluateConstant(*rhs);
  if (!v.ok() || v->is_null()) return false;
  auto num = v->AsDouble();
  if (!num.ok()) return false;
  *column = lhs->column_name;
  *constant = *num;
  BinaryOp op_out = e.binary_op;
  if (flipped) {
    switch (e.binary_op) {
      case BinaryOp::kLess:
        op_out = BinaryOp::kGreater;
        break;
      case BinaryOp::kLessEqual:
        op_out = BinaryOp::kGreaterEqual;
        break;
      case BinaryOp::kGreater:
        op_out = BinaryOp::kLess;
        break;
      case BinaryOp::kGreaterEqual:
        op_out = BinaryOp::kLessEqual;
        break;
      default:
        break;
    }
  }
  *op = op_out;
  return true;
}

}  // namespace

std::map<std::string, std::pair<double, double>> ExtractRangeConstraints(
    const Expr* where) {
  std::map<std::string, std::pair<double, double>> ranges;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    std::string column;
    BinaryOp op = BinaryOp::kEqual;
    double v = 0.0;
    if (!MatchColumnComparison(*c, &column, &op, &v)) continue;
    const std::string key = ToLower(column);
    auto [it, inserted] = ranges.emplace(key, std::make_pair(-kInf, kInf));
    auto& [lo, hi] = it->second;
    switch (op) {
      case BinaryOp::kEqual:
        lo = std::max(lo, v);
        hi = std::min(hi, v);
        break;
      case BinaryOp::kLess:
      case BinaryOp::kLessEqual:
        hi = std::min(hi, v);
        break;
      case BinaryOp::kGreater:
      case BinaryOp::kGreaterEqual:
        lo = std::max(lo, v);
        break;
      default:
        break;
    }
  }
  return ranges;
}

void ModelQueryEngine::AttachLegalFilter(uint64_t model_id,
                                         LegalCombinationFilter filter) {
  legal_filters_.emplace(model_id, std::move(filter));
}

Result<const CapturedModel*> ModelQueryEngine::FindModelFor(
    const SelectStatement& stmt) const {
  LAWS_ASSIGN_OR_RETURN(TablePtr table, data_->Get(stmt.from_table));
  // The model must cover every referenced column: group, inputs or output.
  const std::vector<std::string> referenced = ReferencedColumns(stmt);
  const std::vector<const CapturedModel*> candidates =
      models_->ModelsForTable(stmt.from_table);
  const CapturedModel* best = nullptr;
  for (const CapturedModel* m : candidates) {
    if (!m->subset_predicate.empty()) continue;
    bool covers = true;
    for (const std::string& col : referenced) {
      bool known = EqualsIgnoreCase(col, m->output_column) ||
                   (!m->group_column.empty() &&
                    EqualsIgnoreCase(col, m->group_column));
      for (const auto& in : m->input_columns) {
        known = known || EqualsIgnoreCase(col, in);
      }
      if (!known) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    const bool fresh = !ModelCatalog::IsStale(*m, table->data_version());
    if (!fresh) continue;
    if (best == nullptr ||
        m->ArbitrationQuality() > best->ArbitrationQuality()) {
      best = m;
    }
  }
  if (best == nullptr) {
    return Status::NotFound(
        "no fresh captured model covers the referenced columns of " +
        stmt.from_table);
  }
  return best;
}

Result<ApproxAnswer> ModelQueryEngine::ReconstructTable(
    const CapturedModel& model,
    const std::map<std::string, std::pair<double, double>>& ranges) const {
  LAWS_ASSIGN_OR_RETURN(ModelPtr fn, ModelFromSource(model.model_source));
  LAWS_ASSIGN_OR_RETURN(const GroupParameters groups,
                        ParametersOf(model, *fn));

  auto range_for = [&](const std::string& column) {
    auto it = ranges.find(ToLower(column));
    if (it == ranges.end()) return std::make_pair(-kInf, kInf);
    return it->second;
  };

  // --- Group axis ---------------------------------------------------------
  // Groups come from the captured parameters (zero IO): the run of keys
  // inside the group column's range, each group carrying its parameter
  // vector and RSE. An ungrouped model has no group column and one group.
  const size_t p = fn->num_parameters();
  const auto [glo, ghi] = range_for(model.group_column);
  const auto [first_group, last_group] = groups.KeysIn(glo, ghi);

  // --- Input axes ----------------------------------------------------------
  // Each input dimension needs either an enumerable domain or an equality
  // pin from the predicate (paper: "if a parameter column is enumerable, we
  // can use it without actually loading its values").
  std::vector<std::vector<double>> input_values(model.input_columns.size());
  for (size_t d = 0; d < model.input_columns.size(); ++d) {
    const std::string& col = model.input_columns[d];
    const auto [lo, hi] = range_for(col);
    if (lo == hi && std::isfinite(lo)) {
      input_values[d] = {lo};  // pinned by equality
      continue;
    }
    auto domain = domains_->Get(model.table_name, col);
    if (!domain.ok()) {
      return Status::InvalidArgument(
          "input dimension '" + col +
          "' is not enumerable and not pinned by the predicate");
    }
    for (size_t i : (*domain)->IndicesInRange(lo, hi)) {
      input_values[d].push_back((*domain)->ValueAt(i));
    }
  }

  // Enumeration size check.
  size_t total = last_group - first_group;
  for (const auto& vals : input_values) {
    if (vals.empty()) total = 0;
    if (total > 0 && vals.size() > max_tuples_ / total) {
      return Status::InvalidArgument("enumeration exceeds tuple cap");
    }
    total *= vals.size();
  }

  // --- Materialize ---------------------------------------------------------
  // Typed columns, filled tuple by tuple: the group key, each input, then
  // the output.
  const auto legal_it = legal_filters_.find(model.id);
  const LegalCombinationFilter* legal =
      legal_it == legal_filters_.end() ? nullptr : &legal_it->second;

  double rse_sum = 0.0;
  double rse_max = 0.0;
  size_t touched_groups = 0;

  std::vector<int64_t> key_out;
  std::vector<std::vector<double>> input_out(input_values.size());
  std::vector<double> output_out;
  Vector x(input_values.size());
  Vector params;
  std::vector<size_t> idx(input_values.size());
  const bool any_empty =
      std::any_of(input_values.begin(), input_values.end(),
                  [](const std::vector<double>& v) { return v.empty(); });
  for (size_t g = first_group; g < last_group; ++g) {
    const int64_t key = groups.key(g);
    groups.Params(g, &params);
    // The 95% prediction-interval half-width of the group's tuples.
    const double half_width =
        PredictionHalfWidth95(groups.residual_se(g), groups.n_obs(g), p);
    bool group_touched = false;
    // Odometer over input dimensions.
    std::fill(idx.begin(), idx.end(), size_t{0});
    bool more = !any_empty;
    while (more) {
      for (size_t d = 0; d < idx.size(); ++d) x[d] = input_values[d][idx[d]];
      if (legal == nullptr || legal->MayContain(key, x)) {
        if (model.grouped) key_out.push_back(key);
        for (size_t d = 0; d < x.size(); ++d) input_out[d].push_back(x[d]);
        output_out.push_back(fn->Evaluate(x, params));
        group_touched = true;
      }
      // Advance odometer; zero input dimensions means exactly one tuple.
      if (idx.empty()) break;
      size_t d = 0;
      while (d < idx.size() && ++idx[d] >= input_values[d].size()) {
        idx[d] = 0;
        ++d;
      }
      if (d == idx.size()) more = false;
    }
    if (group_touched) {
      ++touched_groups;
      rse_sum += half_width;
      rse_max = std::max(rse_max, half_width);
    }
  }

  std::vector<Field> fields;
  std::vector<Column> columns;
  if (model.grouped) {
    fields.push_back(Field{model.group_column, DataType::kInt64, false});
    columns.push_back(Column::FromInt64Vector(std::move(key_out)));
  }
  for (size_t d = 0; d < model.input_columns.size(); ++d) {
    fields.push_back(Field{model.input_columns[d], DataType::kDouble, false});
    columns.push_back(Column::FromDoubleVector(std::move(input_out[d])));
  }
  fields.push_back(Field{model.output_column, DataType::kDouble, false});
  columns.push_back(Column::FromDoubleVector(std::move(output_out)));
  LAWS_ASSIGN_OR_RETURN(
      Table out, Table::FromColumns(Schema(std::move(fields)), std::move(columns)));

  ApproxAnswer answer;
  answer.tuples_reconstructed = out.num_rows();
  answer.table = std::move(out);
  answer.method = "model-enum";
  answer.error_bound =
      touched_groups > 0 ? rse_sum / static_cast<double>(touched_groups) : 0.0;
  answer.max_error_bound = rse_max;
  answer.raw_rows_accessed = 0;
  answer.model_id = model.id;
  return answer;
}

Result<ApproxAnswer> ModelQueryEngine::ExecuteStatement(
    const SelectStatement& stmt) const {
  LAWS_ASSIGN_OR_RETURN(const CapturedModel* model, FindModelFor(stmt));
  const auto ranges = ExtractRangeConstraints(stmt.where.get());
  LAWS_ASSIGN_OR_RETURN(ApproxAnswer answer,
                        ReconstructTable(*model, ranges));
  // A law evaluated outside its domain (the log of a non-positive input, a
  // negative power of zero) predicts inf or NaN, which no answer may rest
  // on: decline, and the exact engine answers instead.
  for (double y : answer.table.column(answer.table.num_columns() - 1)
                      .double_data()) {
    if (!std::isfinite(y)) {
      return Status::NumericError("model " + std::to_string(model->id) +
                                  " predicts a non-finite " +
                                  model->output_column);
    }
  }
  // Run the original statement over the reconstructed tuples. The
  // reconstruction already honoured the pushed-down ranges, but the full
  // predicate (e.g. intensity > 3.0) still applies here.
  LAWS_ASSIGN_OR_RETURN(Table result,
                        ExecuteSelectOnTable(answer.table, stmt));
  const bool pinned_point = answer.tuples_reconstructed <= 1;
  answer.method = pinned_point ? "model-point" : "model-enum";
  answer.table = std::move(result);
  return answer;
}

Result<ApproxAnswer> ModelQueryEngine::Execute(const std::string& sql) const {
  LAWS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return ExecuteStatement(stmt);
}

Result<size_t> ModelQueryEngine::MaterializeView(uint64_t model_id,
                                                 const std::string& view_name,
                                                 Catalog* catalog) const {
  if (catalog == nullptr) {
    return Status::InvalidArgument("null catalog");
  }
  LAWS_ASSIGN_OR_RETURN(const CapturedModel* model, models_->Get(model_id));
  LAWS_ASSIGN_OR_RETURN(ApproxAnswer answer, ReconstructTable(*model, {}));
  const size_t tuples = answer.table.num_rows();
  catalog->RegisterOrReplace(view_name,
                             std::make_shared<Table>(std::move(answer.table)));
  return tuples;
}

}  // namespace laws
