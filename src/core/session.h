#ifndef LAWSDB_CORE_SESSION_H_
#define LAWSDB_CORE_SESSION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/model_catalog.h"
#include "model/fit.h"
#include "storage/catalog.h"

namespace laws {

/// A fit request as issued from the statistical environment. The dataset
/// the user manipulates is a *strawman* for a database table (paper §3,
/// Figure 2): the fit executes inside the engine and is intercepted into
/// the model catalog as a side effect.
struct FitRequest {
  /// Table the strawman wraps.
  std::string table;
  /// Model structure in source form ("power_law", "linear(2)", ...).
  std::string model_source;
  std::vector<std::string> input_columns;
  std::string output_column;
  /// Optional per-group fit (INT64 column), e.g. "source" for LOFAR.
  std::string group_column;
  /// Optional SQL predicate restricting the fit to a subset (partial
  /// model), e.g. "wavelength < 0.15".
  std::string where;
  FitOptions options;
  /// Minimum usable observations per group (grouped fits).
  size_t min_observations = 0;
};

/// What the user sees back from a fit (Figure 2 step 3: "the database
/// dutifully fits the model and returns the goodness of fit") plus the
/// handle of the captured artifact.
struct FitReport {
  uint64_t model_id = 0;
  bool grouped = false;
  /// Ungrouped: the fitted parameters.
  Vector parameters;
  FitQuality quality;
  /// Grouped: summary statistics over per-group fits.
  size_t num_groups = 0;
  size_t groups_skipped = 0;
  size_t groups_failed = 0;
  double median_r_squared = 0.0;
  double median_residual_se = 0.0;
};

/// Result of a staleness sweep (paper §4.1 "Data or model changes").
struct RefitReport {
  size_t checked = 0;
  size_t stale = 0;
  size_t refitted = 0;
  size_t failed = 0;
  /// Models whose ArbitrationQuality() moved by more than 0.05 in the
  /// refit.
  std::vector<uint64_t> quality_shifted;
};

/// The interception session: the database end of Figure 2. Owns neither
/// catalog; both outlive the session.
class Session {
 public:
  Session(Catalog* data_catalog, ModelCatalog* model_catalog)
      : data_(data_catalog), models_(model_catalog) {}

  /// Steps 1-3 of Figure 2: execute the fit inside the database, judge the
  /// quality, store model + parameters in the model catalog, and return
  /// the goodness of fit to the user.
  Result<FitReport> Fit(const FitRequest& request);

  /// Re-fits one captured model against the table's current contents and
  /// replaces its stored parameters in place.
  Result<FitReport> Refit(uint64_t model_id);

  /// Sweeps the model catalog, re-fitting every model whose table has a
  /// newer data version — the paper's proposed reaction to data changes.
  Result<RefitReport> RefitStale();

  const ModelCatalog& model_catalog() const { return *models_; }
  Catalog* data_catalog() { return data_; }

 private:
  /// Builds the (inputs, outputs) observation set for an ungrouped fit.
  Result<FitReport> FitInternal(const FitRequest& request,
                                CapturedModel* captured);

  Catalog* data_;
  ModelCatalog* models_;
};

/// The request that re-fits `model` on its table's current rows: the
/// same table, model source, columns, grouping and subset, with default
/// fit options.
FitRequest RefitRequest(const CapturedModel& model);

/// Computes the median of `values` (by copy); 0 for empty input.
double MedianOf(std::vector<double> values);

/// The observations of an ungrouped fit, gathered in bulk: `inputs` holds
/// one row per table row with no NULL in `input_columns` or
/// `output_column`, in table order, and `outputs` the matching outputs.
/// TypeMismatch for a STRING column.
Status ExtractObservations(const Table& table,
                           const std::vector<std::string>& input_columns,
                           const std::string& output_column, Matrix* inputs,
                           Vector* outputs);

/// The fit kernel behind Session::Fit/Refit, factored out so callers that
/// only hold a const catalog (the learning loop's background refits run
/// against a snapshot-commit copy) can compute a CapturedModel without a
/// Session: extracts observations, fits, and fills `*captured` and
/// `*report` — it does NOT store anything; publication is the caller's
/// job. `report` may be nullptr.
Status ComputeCapturedFit(const Catalog& data, const FitRequest& request,
                          CapturedModel* captured, FitReport* report);

}  // namespace laws

#endif  // LAWSDB_CORE_SESSION_H_
