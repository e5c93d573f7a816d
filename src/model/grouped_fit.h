#ifndef LAWSDB_MODEL_GROUPED_FIT_H_
#define LAWSDB_MODEL_GROUPED_FIT_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "model/fit.h"
#include "storage/table.h"

namespace laws {

/// Describes a per-group fit over a table, the paper's §2 workload: fit
/// I = p * nu^alpha for every LOFAR source. The group column must be INT64
/// (source ids, SKUs, sensor ids, ...).
struct GroupedFitSpec {
  std::string group_column;
  std::vector<std::string> input_columns;
  std::string output_column;
  FitOptions fit_options;
  /// Groups with fewer usable observations than max(num_parameters + 1,
  /// min_observations) are skipped (counted in skipped_too_few).
  size_t min_observations = 0;
};

/// Fit result for one group.
struct GroupFitResult {
  int64_t group_key = 0;
  FitOutput fit;
};

/// All per-group fits plus bookkeeping about groups that could not be
/// fitted.
struct GroupedFitOutput {
  std::vector<GroupFitResult> groups;
  /// Groups skipped for having too few observations.
  size_t skipped_too_few = 0;
  /// Groups whose fit returned an error (singular/diverged).
  size_t failed = 0;
  /// Total rows consumed from the source table.
  size_t rows_processed = 0;
};

/// The (inputs, outputs) observation block of the rows `rows[0..n)`, none
/// of them NULL in these columns, gathered in bulk: one type dispatch per
/// column instead of a NumericAt per cell. `scratch` stages multi-input
/// blocks. TypeMismatch for a STRING column.
Status GatherObservations(const std::vector<const Column*>& input_cols,
                          const Column& output_col, const uint32_t* rows,
                          size_t n, Matrix* inputs, Vector* outputs,
                          Vector* scratch);

/// Runs the grouped fit. Rows with NULL in any referenced column are
/// ignored. Groups are returned sorted by key.
Result<GroupedFitOutput> FitGrouped(const Model& model, const Table& table,
                                    const GroupedFitSpec& spec);

/// Materializes the grouped-fit output as a parameter table — the paper's
/// Table 1 right-hand side. Schema: [<group_name> INT64, <one DOUBLE column
/// per model parameter>, residual_se DOUBLE, r_squared DOUBLE, n_obs INT64].
Result<Table> GroupedFitToTable(const Model& model,
                                const GroupedFitOutput& fits,
                                const std::string& group_name);

/// The one read view of a fit's parameters: a table laid out as
/// GroupedFitToTable writes it, or an ungrouped fit as one group with key
/// 0. Building it checks the layout against the model in O(parameters)
/// and never walks the groups. Groups are numbered in table order; lookups
/// binary-search the keys, which FitGrouped returns ascending and the
/// image loader checks. It points into the table or vector it views,
/// which must outlive it.
class GroupParameters {
 public:
  /// InvalidArgument unless `table` has p + 4 columns (p =
  /// model.num_parameters()): an INT64 key, p DOUBLE parameters, DOUBLE
  /// residual_se and r_squared, INT64 n_obs, and no NULLs.
  static Result<GroupParameters> Of(const Model& model, const Table& table);
  /// InvalidArgument unless `parameters` holds p values.
  static Result<GroupParameters> Ungrouped(const Model& model,
                                           const Vector& parameters,
                                           const FitQuality& quality);

  size_t num_groups() const { return num_groups_; }
  int64_t key(size_t g) const { return keys_[g]; }
  /// Group g's parameters, in parameter_names() order.
  void Params(size_t g, Vector* out) const;
  double residual_se(size_t g) const { return residual_se_[g]; }
  double r_squared(size_t g) const { return r_squared_[g]; }
  size_t n_obs(size_t g) const {
    return n_obs_ != nullptr ? static_cast<size_t>(n_obs_[g]) : single_n_obs_;
  }
  /// The group whose key is `key`, if any.
  std::optional<size_t> Find(int64_t key) const;
  /// The run of groups [first, last) whose key, as a double, is in
  /// [lo, hi].
  std::pair<size_t, size_t> KeysIn(double lo, double hi) const;

 private:
  GroupParameters() = default;

  size_t num_groups_ = 0;
  const int64_t* keys_ = nullptr;
  /// params_[j][g] is parameter j of group g.
  std::vector<const double*> params_;
  const double* residual_se_ = nullptr;
  const double* r_squared_ = nullptr;
  /// The n_obs column; null for an ungrouped fit, whose count is
  /// single_n_obs_.
  const int64_t* n_obs_ = nullptr;
  size_t single_n_obs_ = 0;
};

}  // namespace laws

#endif  // LAWSDB_MODEL_GROUPED_FIT_H_
