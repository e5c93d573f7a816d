#include "core/advisor.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/random.h"
#include "core/session.h"
#include "model/grouped_fit.h"
#include "model/model.h"
#include "storage/grouping.h"

namespace laws {
namespace {

/// Ungrouped trials fit at most kMaxTrialRows rows, a uniform sample
/// without replacement; grouped advice samples groups instead. Both draw
/// from kSampleSeed, so the same table gets the same advice. Ungrouped
/// advice needs kMinTrialRows observations, and a sampled group with
/// fewer takes no part.
constexpr size_t kMaxTrialRows = 20'000;
constexpr uint64_t kSampleSeed = 1234;
constexpr size_t kMinTrialRows = 8;

FitOptions TrialFitOptions() {
  FitOptions opts;
  opts.compute_standard_errors = false;
  return opts;
}

/// Tries every model of the battery with `try_model`, which fills in the
/// candidate's fit or failure or returns an error that ends the advice,
/// and ranks the candidates best first: fitted ones by BetterFit over
/// their fit's quality, failed ones last. InvalidArgument(`none_fitted`)
/// when no candidate fitted.
Result<std::vector<ModelCandidate>> Advise(
    const AdvisorOptions& options,
    const std::function<Status(const Model&, ModelCandidate*)>& try_model,
    const char* none_fitted) {
  const std::vector<std::string> battery =
      options.candidate_sources.empty()
          ? std::vector<std::string>{"linear(1)", "poly(2)", "poly(3)",
                                     "power_law", "exponential", "logistic"}
          : options.candidate_sources;
  std::vector<ModelCandidate> candidates(battery.size());
  for (size_t b = 0; b < battery.size(); ++b) {
    ModelCandidate& c = candidates[b];
    c.model_source = battery[b];
    auto model = ModelFromSource(battery[b]);
    if (!model.ok()) {
      c.failure = model.status().ToString();
    } else if ((*model)->num_inputs() != 1) {
      c.failure = "advisor battery expects single-input models";
    } else {
      LAWS_RETURN_IF_ERROR(try_model(**model, &c));
    }
    c.bic = c.fit.quality.bic;
    c.r_squared = c.fit.quality.r_squared;
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ModelCandidate& a, const ModelCandidate& b) {
              if (a.fitted != b.fitted) return a.fitted;
              return BetterFit(a.fit.quality, b.fit.quality);
            });
  if (candidates.empty() || !candidates.front().fitted) {
    return Status::InvalidArgument(none_fitted);
  }
  return candidates;
}

}  // namespace

Result<std::vector<ModelCandidate>> SuggestModels(
    const Table& table, const std::string& input_column,
    const std::string& output_column, const AdvisorOptions& options) {
  Matrix inputs;
  Vector outputs;
  LAWS_RETURN_IF_ERROR(ExtractObservations(table, {input_column},
                                           output_column, &inputs, &outputs));
  if (outputs.size() > kMaxTrialRows) {
    const std::vector<uint32_t> perm =
        Rng(kSampleSeed).Permutation(static_cast<uint32_t>(outputs.size()));
    Matrix x(kMaxTrialRows, 1);
    Vector y(kMaxTrialRows);
    for (size_t i = 0; i < kMaxTrialRows; ++i) {
      x(i, 0) = inputs(perm[i], 0);
      y[i] = outputs[perm[i]];
    }
    inputs = std::move(x);
    outputs = std::move(y);
  }
  if (outputs.size() < kMinTrialRows) {
    return Status::InvalidArgument("too few observations for the advisor");
  }
  return Advise(
      options,
      [&](const Model& model, ModelCandidate* c) {
        auto fit = FitModel(model, inputs, outputs, TrialFitOptions());
        if (!fit.ok()) {
          c->failure = fit.status().ToString();
          return Status::OK();
        }
        c->fitted = true;
        c->fit = std::move(*fit);
        return Status::OK();
      },
      "no candidate model could be fitted");
}

Result<std::vector<ModelCandidate>> SuggestGroupedModels(
    const Table& table, const std::string& group_column,
    const std::string& input_column, const std::string& output_column,
    const AdvisorOptions& options) {
  LAWS_ASSIGN_OR_RETURN(const Column* keys, table.ColumnByName(group_column));
  if (keys->type() != DataType::kInt64) {
    return Status::TypeMismatch("group column must be INT64");
  }
  LAWS_ASSIGN_OR_RETURN(const Column* in, table.ColumnByName(input_column));
  LAWS_ASSIGN_OR_RETURN(const Column* out, table.ColumnByName(output_column));

  // Group the rows with no NULL in the three columns, sample groups by a
  // seeded permutation of the groups in key order, and gather the rows of
  // the sampled groups of kMinTrialRows or more, each group's in table
  // order.
  std::vector<uint32_t> usable;
  for (uint32_t i = 0; i < table.num_rows(); ++i) {
    if (!keys->IsNull(i) && !in->IsNull(i) && !out->IsNull(i)) {
      usable.push_back(i);
    }
  }
  ScopedCharge charge;
  LAWS_ASSIGN_OR_RETURN(
      Grouping grouping,
      GroupRows({keys}, table.num_rows(), &usable, &charge));
  if (grouping.num_groups() == 0) {
    return Status::InvalidArgument("no usable groups");
  }
  std::vector<uint32_t> rows;
  std::vector<size_t> offsets;
  LAWS_RETURN_IF_ERROR(RowsByGroup(grouping, &charge, &rows, &offsets));
  auto key_of = [&](uint32_t g) {
    return keys->Int64At(grouping.first_row[g]);
  };
  std::vector<uint32_t> by_key(grouping.num_groups());
  std::iota(by_key.begin(), by_key.end(), uint32_t{0});
  std::sort(by_key.begin(), by_key.end(),
            [&](uint32_t a, uint32_t b) { return key_of(a) < key_of(b); });
  const std::vector<uint32_t> perm =
      Rng(kSampleSeed).Permutation(static_cast<uint32_t>(by_key.size()));
  std::vector<int64_t> sampled_keys;
  std::vector<uint32_t> sampled_rows;
  for (size_t s = 0; s < std::min(options.sample_groups, by_key.size()); ++s) {
    const uint32_t g = by_key[perm[s]];
    if (offsets[g + 1] - offsets[g] < kMinTrialRows) continue;
    sampled_keys.push_back(key_of(g));
    sampled_rows.insert(sampled_rows.end(), rows.begin() + offsets[g],
                        rows.begin() + offsets[g + 1]);
  }
  LAWS_ASSIGN_OR_RETURN(const Table sample, table.GatherRows(sampled_rows));

  GroupedFitSpec spec;
  spec.group_column = group_column;
  spec.input_columns = {input_column};
  spec.output_column = output_column;
  spec.fit_options = TrialFitOptions();
  spec.min_observations = kMinTrialRows;
  return Advise(
      options,
      [&](const Model& model, ModelCandidate* c) -> Status {
        LAWS_ASSIGN_OR_RETURN(GroupedFitOutput fits,
                              FitGrouped(model, sample, spec));
        // Tally the sampled groups in sample order; FitGrouped returns the
        // fitted ones by key.
        double bic_sum = 0.0;
        double r2_sum = 0.0;
        size_t fitted = 0;
        for (const int64_t key : sampled_keys) {
          auto it = std::lower_bound(
              fits.groups.begin(), fits.groups.end(), key,
              [](const GroupFitResult& g, int64_t k) {
                return g.group_key < k;
              });
          if (it == fits.groups.end() || it->group_key != key) continue;
          bic_sum += it->fit.quality.bic;
          r2_sum += it->fit.quality.r_squared;
          ++fitted;
        }
        // A class must fit the (large) majority of sampled groups.
        const size_t failed = sampled_keys.size() - fitted;
        if (fitted == 0 || failed > fitted / 4) {
          c->failure = fitted == 0 ? "no group could be fitted"
                                   : "failed on too many groups";
          return Status::OK();
        }
        c->fitted = true;
        c->fit.quality.bic = bic_sum / static_cast<double>(fitted);
        c->fit.quality.r_squared = r2_sum / static_cast<double>(fitted);
        return Status::OK();
      },
      "no candidate model class qualified");
}

}  // namespace laws
