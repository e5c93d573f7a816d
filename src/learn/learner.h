#ifndef LAWSDB_LEARN_LEARNER_H_
#define LAWSDB_LEARN_LEARNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/model_catalog.h"
#include "core/session.h"
#include "learn/observer.h"
#include "model/incremental.h"
#include "query/ast.h"
#include "storage/catalog.h"

namespace laws {

/// Knobs for the database-learning loop (Park et al.'s "Database
/// Learning" direction): whether exact-scan traffic is harvested, how much
/// of it per scan, and when served models are evicted. The promotion,
/// refinement and drift thresholds are constants in learner.cc.
struct LearnerOptions {
  /// Master switch (LAWS_LEARNING). Off ⇒ every hook is a no-op and the
  /// hybrid engine pays one virtual call per exact fallback, nothing
  /// else.
  bool enabled = false;

  /// Harvest budget per exact scan: at most this many new rows are
  /// folded per candidate per query. Keeps the by-product cost of one
  /// query bounded regardless of table size.
  size_t max_rows_per_scan = 4096;

  /// Catalog cap for eviction; 0 = never evict.
  size_t max_models = 0;
  /// A model must have been arbitrated at least this often before its
  /// hit rate can evict it — fresh models get a grace period.
  size_t evict_min_opportunities = 32;

  /// The defaults, with `enabled` read from LAWS_LEARNING.
  static LearnerOptions FromEnv();
};

/// What one maintenance pass (Learner::Apply) changed in the catalog.
struct LearnTickReport {
  size_t promoted = 0;        // new models harvested from traffic
  size_t refined = 0;         // existing models re-solved with more rows
  size_t refine_rejected = 0; // re-solve discarded (interval not tighter)
  size_t refits = 0;          // drift-flagged models refit from the table
  size_t refit_failed = 0;    // drift refits that errored (flag kept)
  size_t evicted = 0;         // models dropped by the hit-rate policy

  bool did_work() const {
    return promoted + refined + refits + evicted > 0;
  }
  std::string Summary() const;
};

/// The database-learning loop's stateful half: every exact-scan fallback
/// feeds scanned rows through mergeable OLS sufficient statistics
/// (model/incremental.h) to grow candidate models, residual tests flag
/// served models whose law the fresh data contradicts, and Apply()
/// publishes the resulting promotions/refinements/refits/evictions into
/// a ModelCatalog — under the serving layer, inside one snapshot commit.
///
/// Thread-safety: all methods are safe to call concurrently. Row
/// accumulation runs outside the mutex into a scan-local accumulator and
/// merges under the mutex, so N sessions harvesting in parallel contend
/// only on the merge.
class Learner : public LearningObserver {
 public:
  explicit Learner(LearnerOptions options = LearnerOptions::FromEnv());
  ~Learner() override = default;

  Learner(const Learner&) = delete;
  Learner& operator=(const Learner&) = delete;

  // ---- LearningObserver (hybrid-engine hooks) ----
  bool enabled() const override {
    return enabled_.load(std::memory_order_acquire);
  }
  void OnExactScan(const SelectStatement& stmt, const Catalog& data,
                   const ModelCatalog& models) override;
  bool RejectModel(uint64_t model_id, std::string* why) override;
  void OnDecision(const std::string& table, uint64_t hit_model_id,
                  const ModelCatalog& models) override;

  // ---- Lifecycle / maintenance ----

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_release); }

  /// One maintenance pass: promote ready candidates, refine adopted
  /// models (only when the refreshed prediction interval is no wider —
  /// intervals may tighten, never lie), refit drift-flagged models
  /// against the current table contents, and apply the eviction policy.
  /// `data`/`models` are the writable copies inside a snapshot commit
  /// (or the process catalogs in standalone use); ids stay stable across
  /// refinements and refits.
  LearnTickReport Apply(const Catalog& data, ModelCatalog* models);

  /// True when Apply() has something to do (ready candidate or pending
  /// drift refit) — the loop's scheduling predicate.
  bool HasPendingWork() const;

  /// Invoked (outside the learner mutex) whenever new pending work
  /// appears; the learning loop points this at its scheduler.
  void SetWorkSignal(std::function<void()> signal);

  /// Self-check for the differential harness: re-accumulates every
  /// untainted candidate's rows in a single Add()-only pass (no Merge)
  /// and compares sufficient statistics entrywise against the merged
  /// accumulator. Returns "" on agreement, else a description of the
  /// first mismatch — this is what the planted merge mutant trips.
  std::string VerifyCandidatesAgainstBatch(const Catalog& data,
                                           double tolerance) const;

  /// One-line shell status ("learning status").
  std::string StatusString() const;

  size_t num_candidates() const;
  size_t num_drifted() const;

 private:
  struct Candidate {
    std::string table;
    std::string x_column;
    std::string y_column;
    std::string model_source;
    IncrementalOls acc;
    /// Rows [0, seen_rows) of the table have been offered to `acc`
    /// (filtered rows excluded); the reservation that makes repeated
    /// scans of unchanged data harvest nothing twice.
    size_t seen_rows = 0;
    uint64_t seen_version = 0;
    /// Bumped when the table is replaced and the accumulator restarts; a
    /// harvest reserved before the bump belongs to a dead lineage.
    uint64_t resets = 0;
    /// acc.count() at the last Apply attempt; gates re-solving.
    size_t solved_count = 0;
    /// Catalog id once promoted/adopted; 0 while still a candidate.
    uint64_t model_id = 0;
    /// Set when a harvest left reserved rows unfolded, because the
    /// governor aborted it or the family's law refused a row: the
    /// accumulator no longer equals "all usable rows in [0, seen_rows)".
    /// Until a reset, the candidate is neither promoted nor adopted (its
    /// pair's other candidates fit rows it lacks), and the batch
    /// self-check skips it.
    bool tainted = false;

    Candidate(std::string t, std::string x, std::string y, std::string src,
              IncrementalOls a)
        : table(std::move(t)),
          x_column(std::move(x)),
          y_column(std::move(y)),
          model_source(std::move(src)),
          acc(std::move(a)) {}
  };

  struct ModelStats {
    uint64_t hits = 0;
    uint64_t opportunities = 0;
    /// data_version at the last drift check (skip re-checking until the
    /// table moves again).
    uint64_t drift_checked_version = 0;
    bool drifted = false;
  };

  void HarvestPairs(const SelectStatement& stmt, const Table& table,
                    const std::string& table_name);
  void CheckDrift(const Table& table, const ModelCatalog& models,
                  const std::string& table_name);
  void SignalIfPending();

  const LearnerOptions options_;
  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;
  std::map<std::string, Candidate> candidates_;  // keyed table|x|y|source
  std::map<uint64_t, ModelStats> model_stats_;
  std::function<void()> work_signal_;
};

}  // namespace laws

#endif  // LAWSDB_LEARN_LEARNER_H_
