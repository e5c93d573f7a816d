#ifndef LAWSDB_CORE_MODEL_CATALOG_H_
#define LAWSDB_CORE_MODEL_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "model/grouped_fit.h"
#include "stats/goodness_of_fit.h"
#include "storage/table.h"

namespace laws {

/// A harvested user model: everything the database retains after
/// intercepting a fit (paper §3: "store the model itself and the trained
/// parameters", plus the goodness-of-fit judgment and enough metadata to
/// detect staleness and partial coverage).
struct CapturedModel {
  uint64_t id = 0;

  /// Which data the model describes.
  std::string table_name;
  std::vector<std::string> input_columns;
  std::string output_column;
  /// Grouping column for per-group fits ("" = one global fit).
  std::string group_column;
  /// SQL predicate restricting the fitted subset ("" = whole table) — the
  /// paper's partial-model challenge.
  std::string subset_predicate;

  /// Model structure in source form (ModelFromSource round-trips it).
  std::string model_source;

  /// Ungrouped fit: the parameter vector and its quality.
  Vector parameters;
  Vector standard_errors;
  FitQuality quality;

  /// Grouped fit: per-group parameters (schema from GroupedFitToTable).
  bool grouped = false;
  Table parameter_table{Schema{}};
  size_t num_groups = 0;
  size_t groups_skipped = 0;
  size_t groups_failed = 0;
  /// Median per-group R² / residual SE, the screening quality measures.
  double median_r_squared = 0.0;
  double median_residual_se = 0.0;

  /// Table::data_version() at fit time; used for staleness detection.
  uint64_t fitted_data_version = 0;
  /// Rows used for the fit.
  size_t rows_fitted = 0;

  /// Storage footprint of the captured artifact (parameters + metadata).
  size_t StorageBytes() const;

  /// Quality used for arbitration among competing models: adjusted R² for
  /// ungrouped fits, median R² for grouped fits.
  double ArbitrationQuality() const;

  std::string Summary() const;
};

/// The captured parameters of `model` through the one checked view: its
/// parameter table when grouped, else its parameter vector as one group
/// with key 0. `law` is the model parsed from model.model_source.
/// InvalidArgument when the parameters contradict the law.
Result<GroupParameters> ParametersOf(const CapturedModel& model,
                                     const Model& law);

/// The model catalog: the database-side registry of harvested models. The
/// paper's lifecycle challenges land here — staleness on data change and
/// partial coverage; ModelQueryEngine::FindModelFor arbitrates among the
/// models it holds.
class ModelCatalog {
 public:
  ModelCatalog() = default;

  ModelCatalog(const ModelCatalog&) = delete;
  ModelCatalog& operator=(const ModelCatalog&) = delete;
  ModelCatalog(ModelCatalog&&) = default;
  ModelCatalog& operator=(ModelCatalog&&) = default;

  /// Deep copy for snapshot publication (serve layer). Copies every
  /// captured model (including grouped parameter tables) and preserves
  /// id assignment, so the clone's future Store() ids continue the
  /// original sequence. Model-mutating commits are rare next to queries;
  /// the copy cost buys immutable snapshots for readers.
  ModelCatalog Clone() const;

  /// Stores a captured model; assigns and returns its id.
  uint64_t Store(CapturedModel model);

  /// Reinserts a model keeping its existing id (the persistence restore
  /// path). AlreadyExists when the id is taken, InvalidArgument for id 0.
  Status RestoreWithId(CapturedModel model);

  Result<const CapturedModel*> Get(uint64_t id) const;

  Status Remove(uint64_t id);

  /// Removes every model fitted over `table_name` (use when the table is
  /// dropped). Returns the number removed.
  size_t RemoveForTable(const std::string& table_name);

  /// All models fitted over `table_name` (any output).
  std::vector<const CapturedModel*> ModelsForTable(
      const std::string& table_name) const;

  /// True when the model was fitted on an older data version than
  /// `current_data_version` (paper §4.1 "Data or model changes").
  static bool IsStale(const CapturedModel& model,
                      uint64_t current_data_version);

  /// Ids of all stored models, ascending.
  std::vector<uint64_t> ListIds() const;

  size_t size() const { return models_.size(); }

 private:
  std::map<uint64_t, CapturedModel> models_;
  uint64_t next_id_ = 1;
};

}  // namespace laws

#endif  // LAWSDB_CORE_MODEL_CATALOG_H_
