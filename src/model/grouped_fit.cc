#include "model/grouped_fit.h"

#include <algorithm>
#include <utility>

#include "common/governor.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "model/fit_kernels.h"
#include "storage/grouping.h"

namespace laws {

namespace {

/// One contiguous run of rows for a single group key inside the row index
/// built by FitGrouped.
struct GroupSlice {
  int64_t key = 0;
  size_t offset = 0;
  size_t length = 0;
};

/// Per-group outcome slot, written by exactly one ParallelFor lane and
/// merged serially in group order so the output (and the skipped/failed
/// tallies) is bit-identical across thread counts.
struct GroupOutcome {
  enum class Kind : uint8_t { kSkipped, kFailed, kFitted } kind =
      Kind::kSkipped;
  FitOutput fit;
};

}  // namespace

Status GatherObservations(const std::vector<const Column*>& input_cols,
                          const Column& output_col, const uint32_t* rows,
                          size_t n, Matrix* inputs, Vector* outputs,
                          Vector* scratch) {
  inputs->Reshape(n, input_cols.size());
  if (input_cols.size() == 1) {
    // Single-input models (the paper's power law) fill the n x 1 design
    // block contiguously.
    LAWS_RETURN_IF_ERROR(
        input_cols[0]->GatherNumeric(rows, n, inputs->mutable_data()));
  } else {
    scratch->resize(n);
    double* data = inputs->mutable_data();
    const size_t num_cols = input_cols.size();
    for (size_t c = 0; c < num_cols; ++c) {
      LAWS_RETURN_IF_ERROR(
          input_cols[c]->GatherNumeric(rows, n, scratch->data()));
      for (size_t r = 0; r < n; ++r) data[r * num_cols + c] = (*scratch)[r];
    }
  }
  outputs->resize(n);
  return output_col.GatherNumeric(rows, n, outputs->data());
}

Result<GroupedFitOutput> FitGrouped(const Model& model, const Table& table,
                                    const GroupedFitSpec& spec) {
  LAWS_ASSIGN_OR_RETURN(const Column* group_col,
                        table.ColumnByName(spec.group_column));
  if (group_col->type() != DataType::kInt64) {
    return Status::TypeMismatch("group column must be INT64");
  }
  if (spec.input_columns.size() != model.num_inputs()) {
    return Status::InvalidArgument(
        "input column count does not match model arity");
  }
  std::vector<const Column*> input_cols;
  input_cols.reserve(spec.input_columns.size());
  for (const std::string& name : spec.input_columns) {
    LAWS_ASSIGN_OR_RETURN(const Column* c, table.ColumnByName(name));
    if (c->type() == DataType::kString) {
      return Status::TypeMismatch("input column '" + name +
                                  "' is not numeric");
    }
    input_cols.push_back(c);
  }
  LAWS_ASSIGN_OR_RETURN(const Column* output_col,
                        table.ColumnByName(spec.output_column));
  if (output_col->type() == DataType::kString) {
    return Status::TypeMismatch("output column is not numeric");
  }

  ScopedSpan fit_span("FitGrouped");
  // Group the fittable rows (non-NULL key, inputs and output) with the
  // shared partitioned grouping, which keeps each group's rows in table
  // order, then order the groups by key (the output contract).
  ScopedSpan index_span("GroupIndex");
  const size_t n = table.num_rows();
  ScopedCharge charge;
  std::vector<const Column*> used = input_cols;
  used.push_back(group_col);
  used.push_back(output_col);
  std::vector<uint32_t> fittable;
  const bool any_null =
      std::any_of(used.begin(), used.end(),
                  [](const Column* c) { return c->null_count() > 0; });
  if (any_null) {
    LAWS_RETURN_IF_ERROR(
        charge.Acquire(n * sizeof(uint32_t), "grouped fit rows"));
    for (size_t i = 0; i < n; ++i) {
      if (i % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
      if (std::none_of(used.begin(), used.end(),
                       [i](const Column* c) { return c->IsNull(i); })) {
        fittable.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  LAWS_ASSIGN_OR_RETURN(
      Grouping grouping,
      GroupRows({group_col}, n, any_null ? &fittable : nullptr, &charge));
  std::vector<uint32_t> row_index;
  std::vector<size_t> offsets;
  LAWS_RETURN_IF_ERROR(RowsByGroup(grouping, &charge, &row_index, &offsets));
  std::vector<GroupSlice> groups(grouping.num_groups());
  for (size_t g = 0; g < groups.size(); ++g) {
    groups[g] = GroupSlice{group_col->Int64At(grouping.first_row[g]),
                           offsets[g], offsets[g + 1] - offsets[g]};
  }
  std::sort(groups.begin(), groups.end(),
            [](const GroupSlice& a, const GroupSlice& b) {
              return a.key < b.key;
            });
  index_span.SetRows(n, groups.size());
  index_span.End();

  const size_t floor_obs =
      std::max(model.num_parameters() + 1, spec.min_observations);

  // The paper's hot configuration — a single-input model with an exact
  // linearization (power law) — skips matrix assembly entirely: the fused
  // gather-transform materializes log(x)/log(y) straight out of column
  // storage and the closed-form sum kernel fits each group with zero
  // allocations after lane warm-up. Groups whose data violates the
  // transform domain fall back to the generic FitModel dispatch.
  ModelLinearization lin;
  const bool linearizable = input_cols.size() == 1 &&
                            model.num_inputs() == 1 &&
                            model.Linearization(&lin);
  const bool fast_closed = linearizable &&
                           spec.fit_options.algorithm == FitAlgorithm::kAuto;
  const bool fast_loglinear =
      linearizable && spec.fit_options.algorithm == FitAlgorithm::kLogLinear;

  // Fit groups in parallel. Each lane owns a disjoint slice of the
  // outcome array and a FitScratch arena reused across the groups it
  // processes (and threaded through FitModel down to the solvers);
  // per-group results are pure functions of the group's rows, so outcomes
  // are independent of the partition. The span is opened on the calling
  // thread (worker lanes never see the trace sink), so it measures the
  // whole parallel region.
  ScopedSpan loop_span("FitLoop");
  LAWS_RETURN_IF_ERROR(charge.Acquire(
      groups.size() * sizeof(GroupOutcome), "grouped fit outcomes"));
  std::vector<GroupOutcome> outcomes(groups.size());
  ParallelForChunks(0, groups.size(), [&](size_t lo, size_t hi) {
    // ParallelForChunks installed the caller's governor in this lane.
    // A lane that observes a tripped governor abandons its remaining
    // groups (slots stay kSkipped); the re-poll after the region turns
    // that partial state into the typed error before it can escape.
    QueryGovernor* const governor = QueryGovernor::Current();
    FitScratch scratch;
    for (size_t g = lo; g < hi; ++g) {
      if (governor != nullptr && !governor->Poll().ok()) return;
      const GroupSlice& slice = groups[g];
      GroupOutcome& slot = outcomes[g];
      if (slice.length < floor_obs) {
        slot.kind = GroupOutcome::Kind::kSkipped;
        continue;
      }
      const uint32_t* rows = row_index.data() + slice.offset;
      const size_t len = slice.length;
      if (fast_closed || fast_loglinear) {
        scratch.tx.resize(len);
        scratch.ty.resize(len);
        Status st = input_cols[0]->GatherNumericTransformed(
            rows, len, scratch.tx.data(), lin.x_transform);
        if (st.ok()) {
          st = output_col->GatherNumericTransformed(
              rows, len, scratch.ty.data(), lin.y_transform);
        }
        const Vector* orig_y = &scratch.ty;
        if (st.ok() && lin.y_transform != NumericTransform::kIdentity) {
          scratch.outputs.resize(len);
          st = output_col->GatherNumeric(rows, len, scratch.outputs.data());
          orig_y = &scratch.outputs;
        }
        if (!st.ok()) {
          slot.kind = GroupOutcome::Kind::kFailed;
          continue;
        }
        auto fast = ClosedFormLinearizedFit(model, lin, scratch.tx.data(),
                                            scratch.ty.data(), len, *orig_y,
                                            spec.fit_options, &scratch);
        if (fast.ok()) {
          slot.kind = GroupOutcome::Kind::kFitted;
          slot.fit = std::move(*fast);
          continue;
        }
        if (fast_loglinear) {
          // Explicit kLogLinear has no fallback: out-of-domain or
          // degenerate groups are failed fits, as before.
          slot.kind = GroupOutcome::Kind::kFailed;
          continue;
        }
        // else: domain violation under kAuto — take the generic path,
        // which warm-starts LM from whatever structure survives.
      }
      const Status gathered =
          GatherObservations(input_cols, *output_col, rows, len,
                             &scratch.inputs, &scratch.outputs,
                             &scratch.column);
      if (!gathered.ok()) {
        // Unreachable after the type checks above; count as a failed fit
        // rather than crossing the parallel region with an error.
        slot.kind = GroupOutcome::Kind::kFailed;
        continue;
      }
      auto fit = FitModel(model, scratch.inputs, scratch.outputs,
                          spec.fit_options, &scratch);
      if (!fit.ok()) {
        slot.kind = GroupOutcome::Kind::kFailed;
        continue;
      }
      slot.kind = GroupOutcome::Kind::kFitted;
      slot.fit = std::move(*fit);
    }
  });

  loop_span.SetRows(row_index.size(), groups.size());
  loop_span.End();

  // Surface a mid-region cancel/deadline before the partial outcome
  // array can be merged into a result (sticky-error contract; see
  // thread_pool.h).
  LAWS_GOVERNOR_POLL();

  // Deterministic merge in group-key order. Dispatch accounting happens
  // here, in the serial pass, so the parallel lanes never contend on
  // shared counters: closed-form fits carry algorithm_used == kLogLinear,
  // everything else went through the iterative dispatch.
  ScopedSpan merge_span("MergeOutcomes");
  uint64_t closed_form = 0, iterative = 0, iterations = 0;
  GroupedFitOutput out;
  out.rows_processed = n;
  out.groups.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    switch (outcomes[g].kind) {
      case GroupOutcome::Kind::kSkipped:
        ++out.skipped_too_few;
        break;
      case GroupOutcome::Kind::kFailed:
        ++out.failed;
        break;
      case GroupOutcome::Kind::kFitted:
        if (outcomes[g].fit.algorithm_used == FitAlgorithm::kLogLinear) {
          ++closed_form;
        } else {
          ++iterative;
          iterations += outcomes[g].fit.iterations;
        }
        out.groups.push_back(
            GroupFitResult{groups[g].key, std::move(outcomes[g].fit)});
        break;
    }
  }
  {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static Counter* fitted = reg.GetCounter("fit.groups_fitted");
    static Counter* skipped = reg.GetCounter("fit.groups_skipped");
    static Counter* failed = reg.GetCounter("fit.groups_failed");
    static Counter* closed = reg.GetCounter("fit.dispatch.closed_form");
    static Counter* iter = reg.GetCounter("fit.dispatch.iterative");
    static Counter* iters = reg.GetCounter("fit.iterations");
    fitted->Add(out.groups.size());
    skipped->Add(out.skipped_too_few);
    failed->Add(out.failed);
    closed->Add(closed_form);
    iter->Add(iterative);
    iters->Add(iterations);
  }
  merge_span.SetRows(groups.size(), out.groups.size());
  fit_span.SetRows(n, out.groups.size());
  return out;
}

Result<Table> GroupedFitToTable(const Model& model,
                                const GroupedFitOutput& fits,
                                const std::string& group_name) {
  std::vector<Field> fields;
  fields.push_back(Field{group_name, DataType::kInt64, false});
  for (const std::string& pname : model.parameter_names()) {
    fields.push_back(Field{pname, DataType::kDouble, false});
  }
  fields.push_back(Field{"residual_se", DataType::kDouble, false});
  fields.push_back(Field{"r_squared", DataType::kDouble, false});
  fields.push_back(Field{"n_obs", DataType::kInt64, false});

  // Typed columns, non-nullable like the fields, so the table equals one
  // appended row by row: doubles[j] holds parameter j, then residual_se
  // and r_squared.
  const size_t p = model.num_parameters();
  const size_t n = fits.groups.size();
  std::vector<int64_t> keys(n), n_obs(n);
  std::vector<std::vector<double>> doubles(p + 2, std::vector<double>(n));
  for (size_t g = 0; g < n; ++g) {
    const GroupFitResult& fit = fits.groups[g];
    if (fit.fit.parameters.size() != p) {
      return Status::InvalidArgument("row arity does not match table");
    }
    keys[g] = fit.group_key;
    for (size_t j = 0; j < p; ++j) doubles[j][g] = fit.fit.parameters[j];
    doubles[p][g] = fit.fit.quality.residual_standard_error;
    doubles[p + 1][g] = fit.fit.quality.r_squared;
    n_obs[g] = static_cast<int64_t>(fit.fit.quality.n_observations);
  }
  std::vector<Column> columns;
  columns.push_back(Column::FromInt64Vector(std::move(keys)));
  for (std::vector<double>& column : doubles) {
    columns.push_back(Column::FromDoubleVector(std::move(column)));
  }
  columns.push_back(Column::FromInt64Vector(std::move(n_obs)));
  return Table::FromColumns(Schema(std::move(fields)), std::move(columns));
}

Result<GroupParameters> GroupParameters::Of(const Model& model,
                                            const Table& table) {
  // GroupedFitToTable's layout: INT64 key, p DOUBLE parameters, DOUBLE
  // residual_se and r_squared, INT64 n_obs, no NULLs.
  const size_t p = model.num_parameters();
  const Schema& schema = table.schema();
  bool laid_out = table.num_columns() == p + 4;
  for (size_t c = 0; laid_out && c < p + 4; ++c) {
    const bool int64 = c == 0 || c == p + 3;
    laid_out = schema.field(c).type ==
                   (int64 ? DataType::kInt64 : DataType::kDouble) &&
               table.column(c).null_count() == 0;
  }
  if (!laid_out || schema.field(p + 1).name != "residual_se" ||
      schema.field(p + 2).name != "r_squared" ||
      schema.field(p + 3).name != "n_obs") {
    return Status::InvalidArgument("parameter table " + schema.ToString() +
                                   " is not the layout of " +
                                   model.ToSource());
  }
  GroupParameters view;
  view.num_groups_ = table.num_rows();
  view.keys_ = table.column(0).int64_data().data();
  for (size_t j = 0; j < p; ++j) {
    view.params_.push_back(table.column(j + 1).double_data().data());
  }
  view.residual_se_ = table.column(p + 1).double_data().data();
  view.r_squared_ = table.column(p + 2).double_data().data();
  view.n_obs_ = table.column(p + 3).int64_data().data();
  return view;
}

Result<GroupParameters> GroupParameters::Ungrouped(const Model& model,
                                                   const Vector& parameters,
                                                   const FitQuality& quality) {
  if (parameters.size() != model.num_parameters()) {
    return Status::InvalidArgument(
        model.ToSource() + " needs " + std::to_string(model.num_parameters()) +
        " parameters, not " + std::to_string(parameters.size()));
  }
  static constexpr int64_t kKey = 0;
  GroupParameters view;
  view.num_groups_ = 1;
  view.keys_ = &kKey;
  for (const double& param : parameters) view.params_.push_back(&param);
  view.residual_se_ = &quality.residual_standard_error;
  view.r_squared_ = &quality.r_squared;
  view.single_n_obs_ = quality.n_observations;
  return view;
}

void GroupParameters::Params(size_t g, Vector* out) const {
#ifdef LAWS_TESTING_INJECT_BUG
  // Planted mutant (tools/check_differential.sh): group g reads the
  // parameters of group g + 1, the last group its own.
  g = std::min(g + 1, num_groups_ - 1);
#endif
  out->resize(params_.size());
  for (size_t j = 0; j < params_.size(); ++j) (*out)[j] = params_[j][g];
}

std::optional<size_t> GroupParameters::Find(int64_t key) const {
  const int64_t* it = std::lower_bound(keys_, keys_ + num_groups_, key);
  if (it == keys_ + num_groups_ || *it != key) return std::nullopt;
  return static_cast<size_t>(it - keys_);
}

std::pair<size_t, size_t> GroupParameters::KeysIn(double lo,
                                                  double hi) const {
  // The double comparisons a scan of the keys would make, so the run
  // holds exactly the keys it would keep.
  const int64_t* end = keys_ + num_groups_;
  const int64_t* first = std::partition_point(
      keys_, end, [lo](int64_t k) { return static_cast<double>(k) < lo; });
  const int64_t* last = std::partition_point(
      first, end, [hi](int64_t k) { return !(static_cast<double>(k) > hi); });
  return {static_cast<size_t>(first - keys_),
          static_cast<size_t>(last - keys_)};
}

}  // namespace laws
