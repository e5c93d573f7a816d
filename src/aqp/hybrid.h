#ifndef LAWSDB_AQP_HYBRID_H_
#define LAWSDB_AQP_HYBRID_H_

#include <string>

#include "aqp/model_aqp.h"
#include "common/result.h"
#include "learn/observer.h"

namespace laws {

/// Controls when the hybrid engine trusts a captured model.
struct HybridOptions {
  /// Models below this arbitration quality (adjusted R² / median R²) are
  /// not used — the paper's "judge the quality of the model" gate applied
  /// at query time.
  double min_quality = 0.8;
  /// When the model path is unavailable (no covering model, quality too
  /// low, stale, non-enumerable dimension), fall back to the exact engine
  /// instead of failing.
  bool allow_exact_fallback = true;
  /// Database-learning hooks (may be nullptr = learning off): successful
  /// exact scans are harvested into candidate models, drift-flagged
  /// models are rejected at arbitration, and hit/fallback decisions feed
  /// the promotion/eviction policy. Not owned; must outlive the engine.
  LearningObserver* learner = nullptr;
};

/// Answer from the hybrid engine, recording which path produced it.
struct HybridAnswer {
  Table table{Schema{}};
  /// "model-point" / "model-enum" when a captured model answered;
  /// "exact" when the scan did.
  std::string method;
  bool approximate = false;
  /// Error bound when approximate (95% prediction-interval half-width).
  double error_bound = 0.0;
  /// Why the model path was not used (empty when it was).
  std::string fallback_reason;
  /// True when the exact path was stopped by the resource governor
  /// (deadline or memory budget) and the engine degraded to serving the
  /// available model answer instead of failing — overload-graceful
  /// behavior. Never set for cancellation: a canceled query must not
  /// return an answer at all. The model answer served this way is the
  /// one the quality gate rejected, so `fallback_reason` names the
  /// governor limit and `approximate` is true.
  bool degraded = false;
};

/// The user-transparent face of Figure 2: queries go in, the engine
/// decides whether a harvested model can answer them (fresh, covering,
/// good enough) and otherwise runs the exact scan. This is what "the user
/// queries the database for a value that can be approximately
/// reconstructed" looks like as an API.
class HybridQueryEngine {
 public:
  HybridQueryEngine(const Catalog* data, const ModelQueryEngine* model_engine,
                    HybridOptions options = {})
      : data_(data), model_engine_(model_engine), options_(options) {}

  Result<HybridAnswer> Execute(const std::string& sql) const;

  /// EXPLAIN ANALYZE through the hybrid engine: executes the statement
  /// under a TraceSink and renders it with RenderExplainAnalyze — the
  /// HybridDecision span carries the arbitration outcome (model id,
  /// quality and error bound on a hit; the fallback reason otherwise) —
  /// adding a "learning:" line of the query's own harvest and drift
  /// counts and, when the query finished, an "answered by:" decision
  /// line. A query a governor limit stopped renders its partial tree.
  Result<std::string> ExplainAnalyze(const std::string& sql) const;

 private:
  const Catalog* data_;
  const ModelQueryEngine* model_engine_;
  HybridOptions options_;
};

}  // namespace laws

#endif  // LAWSDB_AQP_HYBRID_H_
