#ifndef LAWSDB_AQP_MODEL_AQP_H_
#define LAWSDB_AQP_MODEL_AQP_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aqp/bloom.h"
#include "aqp/domain.h"
#include "common/result.h"
#include "core/model_catalog.h"
#include "query/ast.h"
#include "storage/catalog.h"

namespace laws {

/// An approximate answer (Figure 2 step 5: "calculated using the model and
/// the small parameter dataset and returned with error bounds").
struct ApproxAnswer {
  Table table{Schema{}};
  /// Which path produced it: "model-enum" (grid reconstruction),
  /// "model-point" (pinned lookup), "model-analytic" (closed form).
  std::string method;
  /// Representative +/- bound on reconstructed output values: the mean
  /// 95% prediction-interval half-width (t_{0.975, n-p} * residual SE) of
  /// the groups involved.
  double error_bound = 0.0;
  /// Worst-case bound: the max such half-width across involved groups.
  double max_error_bound = 0.0;
  /// Raw table rows read to answer (0 = the paper's zero-IO scan).
  size_t raw_rows_accessed = 0;
  /// Tuples materialized from the model during enumeration.
  size_t tuples_reconstructed = 0;
  /// Model used.
  uint64_t model_id = 0;
};

/// The model-based approximate query processor: answers SELECTs over a
/// table *solely* from captured models, enumerable domains and (optionally)
/// legal-combination filters — never touching the raw data.
class ModelQueryEngine {
 public:
  ModelQueryEngine(const Catalog* data, const ModelCatalog* models,
                   const DomainRegistry* domains)
      : data_(data), models_(models), domains_(domains) {}

  /// Attaches a legal-combination filter for a captured model; subsequent
  /// enumerations drop combinations the filter rejects (paper §4.2 "Legal
  /// parameter combinations").
  void AttachLegalFilter(uint64_t model_id, LegalCombinationFilter filter);

  /// Parses and answers SQL approximately. Fails with NotFound when no
  /// fresh-enough model covers the referenced columns, InvalidArgument
  /// when a referenced input dimension is not enumerable and not pinned by
  /// the predicate, and NumericError when the model predicts inf or NaN
  /// for a tuple it reconstructs — callers then fall back to the exact
  /// engine.
  Result<ApproxAnswer> Execute(const std::string& sql) const;

  Result<ApproxAnswer> ExecuteStatement(const SelectStatement& stmt) const;

  /// Reconstructs the model-covered portion of `table_name` as a table
  /// (group, inputs..., predicted output). Equality/range constraints for
  /// specific columns can be supplied to restrict the enumeration. Exposed
  /// for the zero-IO-scan experiments.
  Result<ApproxAnswer> ReconstructTable(
      const CapturedModel& model,
      const std::map<std::string, std::pair<double, double>>& ranges) const;

  /// MauveDB-style materialized model view: reconstructs the model-covered
  /// grid and registers it in `catalog` under `view_name` (replacing any
  /// existing binding). The view is then queryable by the exact engine
  /// like any table. Returns the number of materialized tuples.
  Result<size_t> MaterializeView(uint64_t model_id,
                                 const std::string& view_name,
                                 Catalog* catalog) const;

  /// Safety cap on enumerated tuples (default 20M).
  void set_max_tuples(size_t cap) { max_tuples_ = cap; }

  const ModelCatalog* model_catalog() const { return models_; }

  /// Arbitration (paper §4.1 "Multiple, partial or grouped models"): among
  /// the fresh full-table models of the statement's table that cover every
  /// column it references, the one with the best arbitration quality.
  /// Partial models (a non-empty subset_predicate) never answer: they
  /// describe only their subset. NotFound when no model qualifies.
  Result<const CapturedModel*> FindModelFor(const SelectStatement& stmt) const;

 private:
  const Catalog* data_;
  const ModelCatalog* models_;
  const DomainRegistry* domains_;
  std::map<uint64_t, LegalCombinationFilter> legal_filters_;
  size_t max_tuples_ = 20'000'000;
};

/// Extracts per-column [lo, hi] constraints from the conjunctive part of a
/// predicate (handles =, <, <=, >, >=, BETWEEN-desugared AND chains).
/// Columns without constraints are absent from the map.
std::map<std::string, std::pair<double, double>> ExtractRangeConstraints(
    const Expr* where);

}  // namespace laws

#endif  // LAWSDB_AQP_MODEL_AQP_H_
