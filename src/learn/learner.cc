#include "learn/learner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "common/env.h"
#include "common/governor.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "model/fit.h"
#include "model/model.h"
#include "stats/diagnostics.h"
#include "stats/distributions.h"
#include "stats/goodness_of_fit.h"
#include "storage/table.h"

namespace laws {
namespace {

/// Harvest and promotion thresholds: at most kMaxPairsPerScan (x, y)
/// column pairs per scan (the first referenced numeric columns win) and
/// kMaxCandidates candidates at once; a candidate is solved once it holds
/// kMinObservations rows and promoted at adjusted R² >= kMinPromoteQuality
/// (stricter than Fit's gate: nobody asked for these models); an adopted
/// model is re-solved only after kRefineMinNewRows more rows, so a hot
/// query loop does not re-solve per query.
constexpr size_t kMaxPairsPerScan = 4;
constexpr size_t kMaxCandidates = 64;
constexpr size_t kMinObservations = 48;
constexpr double kMinPromoteQuality = 0.90;
constexpr size_t kRefineMinNewRows = 64;
/// Drift gate, once kDriftMinRows fresh rows exist: the mean residual sits
/// more than kDriftZ standard errors from zero, the KS normality p-value
/// drops below kDriftKsP, or Durbin-Watson shows extreme serial
/// correlation.
constexpr double kDriftZ = 4.0;
constexpr double kDriftKsP = 1e-4;
constexpr size_t kDriftMinRows = 32;

/// Loop accounting (cached pointers; see metrics.h).
struct LearnCounters {
  Counter* harvest_scans;
  Counter* harvest_rows;
  Counter* harvest_aborted;
  Counter* candidates_created;
  Counter* candidates_reset;
  Counter* promoted;
  Counter* refined;
  Counter* refine_rejected;
  Counter* drift_checks;
  Counter* drift_detected;
  Counter* drift_rejected;
  Counter* refits;
  Counter* refit_failed;
  Counter* evicted;
  Counter* decisions;
  Counter* model_hits;
  Counter* ticks;

  static LearnCounters& Get() {
    static LearnCounters c = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return LearnCounters{reg.GetCounter("learn.harvest.scans"),
                           reg.GetCounter("learn.harvest.rows"),
                           reg.GetCounter("learn.harvest.aborted"),
                           reg.GetCounter("learn.candidates.created"),
                           reg.GetCounter("learn.candidates.reset"),
                           reg.GetCounter("learn.promoted"),
                           reg.GetCounter("learn.refined"),
                           reg.GetCounter("learn.refine_rejected"),
                           reg.GetCounter("learn.drift.checks"),
                           reg.GetCounter("learn.drift.detected"),
                           reg.GetCounter("learn.drift.rejected"),
                           reg.GetCounter("learn.refits"),
                           reg.GetCounter("learn.refit_failed"),
                           reg.GetCounter("learn.evicted"),
                           reg.GetCounter("learn.decisions"),
                           reg.GetCounter("learn.model_hits"),
                           reg.GetCounter("learn.ticks")};
    }();
    return c;
  }
};

double NumericAt(const Column& c, size_t row) {
  return c.type() == DataType::kInt64 ? static_cast<double>(c.Int64At(row))
                                      : c.DoubleAt(row);
}

bool IsNumericColumn(const Column* c) {
  return c != nullptr &&
         (c->type() == DataType::kInt64 || c->type() == DataType::kDouble);
}

std::string CandidateKey(const std::string& table, const std::string& x,
                         const std::string& y, const std::string& source) {
  return table + "|" + x + "|" + y + "|" + source;
}

/// Gathers the usable (x, y) observations a candidate accumulator is
/// defined over: rows [0, row_limit) with both columns non-NULL and
/// finite.
size_t GatherUsable(const Column& xc, const Column& yc, size_t row_limit,
                    std::vector<double>* xs, std::vector<double>* ys) {
  for (size_t r = 0; r < row_limit; ++r) {
    if (xc.IsNull(r) || yc.IsNull(r)) continue;
    const double x = NumericAt(xc, r);
    const double y = NumericAt(yc, r);
    if (!std::isfinite(x) || !std::isfinite(y)) continue;
    xs->push_back(x);
    ys->push_back(y);
  }
  return xs->size();
}

}  // namespace

LearnerOptions LearnerOptions::FromEnv() {
  LearnerOptions o;
  o.enabled = EnvFlag("LAWS_LEARNING", false);
  return o;
}

std::string LearnTickReport::Summary() const {
  return "promoted=" + std::to_string(promoted) +
         " refined=" + std::to_string(refined) +
         " refine_rejected=" + std::to_string(refine_rejected) +
         " refits=" + std::to_string(refits) +
         " refit_failed=" + std::to_string(refit_failed) +
         " evicted=" + std::to_string(evicted);
}

Learner::Learner(LearnerOptions options) : options_(options) {
  enabled_.store(options_.enabled, std::memory_order_release);
}

void Learner::SetWorkSignal(std::function<void()> signal) {
  std::lock_guard<std::mutex> lock(mutex_);
  work_signal_ = std::move(signal);
}

void Learner::SignalIfPending() {
  std::function<void()> signal;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    signal = work_signal_;
  }
  if (signal && HasPendingWork()) signal();
}

void Learner::OnExactScan(const SelectStatement& stmt, const Catalog& data,
                          const ModelCatalog& models) {
  if (!enabled()) return;
  const std::string& table_name = stmt.from_table;
  // Join results interleave two tables' columns; attributing rows to one
  // accumulator would mix laws, so joins are not harvested.
  if (table_name.empty() || !stmt.join_table.empty()) return;
  auto table = data.Get(table_name);
  if (!table.ok()) return;
  ScopedSpan span("Harvest");
  LearnCounters::Get().harvest_scans->Add();
  HarvestPairs(stmt, **table, table_name);
  CheckDrift(**table, models, table_name);
  SignalIfPending();
}

void Learner::HarvestPairs(const SelectStatement& stmt, const Table& table,
                           const std::string& table_name) {
  LearnCounters& counters = LearnCounters::Get();

  // Referenced numeric columns, in query order.
  std::vector<std::string> names;
  std::vector<const Column*> cols;
  for (auto& name : ReferencedColumns(stmt)) {
    auto col = table.ColumnByName(name);
    if (!col.ok() || !IsNumericColumn(*col)) continue;
    names.push_back(std::move(name));
    cols.push_back(*col);
  }

  // Ordered (x, y) pairs, capped per scan.
  struct Pair {
    size_t x, y;
  };
  std::vector<Pair> pairs;
  for (size_t i = 0; i < names.size() && pairs.size() < kMaxPairsPerScan; ++i) {
    for (size_t j = 0; j < names.size() && pairs.size() < kMaxPairsPerScan; ++j) {
      if (i != j) pairs.push_back(Pair{i, j});
    }
  }

  // Candidate model families tried per pair. All are linear in their
  // parameters (the IncrementalOls requirement); the promotion pass keeps
  // one family per pair, the best by BetterFit.
  static const std::array<ModelPtr, 3> kFamilies = {
      std::make_unique<LinearModel>(1), std::make_unique<LogLawModel>(),
      std::make_unique<PolynomialModel>(2)};
  for (const Pair& pair : pairs) {
    for (const ModelPtr& family : kFamilies) {
      const std::string source = family->ToSource();
      const std::string key =
          CandidateKey(table_name, names[pair.x], names[pair.y], source);

      // Phase 1 (locked): get-or-create the candidate and reserve the
      // row range [begin, end). The reservation is what makes repeated
      // scans over unchanged data harvest nothing twice — intervals
      // tighten only on genuinely new observations.
      size_t begin = 0, end = 0;
      uint64_t reserved_resets = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = candidates_.find(key);
        if (it == candidates_.end()) {
          if (candidates_.size() >= kMaxCandidates) continue;
          auto acc = IncrementalOls::Create(*family);
          if (!acc.ok()) continue;
          it = candidates_
                   .emplace(key, Candidate(table_name, names[pair.x],
                                           names[pair.y], source,
                                           std::move(*acc)))
                   .first;
          counters.candidates_created->Add();
        }
        Candidate& cand = it->second;
        if (table.data_version() < cand.seen_version ||
            table.num_rows() < cand.seen_rows) {
          // The table was replaced wholesale (version or size went
          // backwards): restart the accumulator from scratch rather than
          // blending two unrelated populations.
          auto acc = IncrementalOls::Create(*family);
          if (!acc.ok()) continue;
          cand.acc = std::move(*acc);
          cand.seen_rows = 0;
          cand.solved_count = 0;
          cand.tainted = false;
          ++cand.resets;
          counters.candidates_reset->Add();
        }
        cand.seen_version = table.data_version();
        reserved_resets = cand.resets;
        begin = cand.seen_rows;
        end = std::min(table.num_rows(), begin + options_.max_rows_per_scan);
        cand.seen_rows = end;
      }
      if (end <= begin) continue;

      // Phase 2 (unlocked): fold the reserved rows into a scan-local
      // accumulator. Governed: a tripped deadline/budget/cancel aborts
      // the harvest silently — learning never fails the query. A row the
      // family's law refuses (IncrementalOls::Add fails, as log_law does
      // at x <= 0, where Session::Fit refuses the same rows) ends this
      // candidate's fold only.
      auto local = IncrementalOls::Create(*family);
      if (!local.ok()) continue;
      const Column& xc = *cols[pair.x];
      const Column& yc = *cols[pair.y];
      Vector in(1);
      bool aborted = false;
      bool refused = false;
      size_t added = 0;
      QueryGovernor* gov = QueryGovernor::Current();
      for (size_t r = begin; r < end; ++r) {
        if (((r - begin) & 1023u) == 0u && gov != nullptr &&
            !gov->Poll().ok()) {
          aborted = true;
          break;
        }
        if (xc.IsNull(r) || yc.IsNull(r)) continue;
        const double x = NumericAt(xc, r);
        const double y = NumericAt(yc, r);
        if (!std::isfinite(x) || !std::isfinite(y)) continue;
        in[0] = x;
        if (!local->Add(in, y).ok()) {
          refused = true;
          break;
        }
        ++added;
      }

      // Phase 3 (locked): merge into the stored accumulator, unless the
      // candidate was reset behind our back (then the local rows belong
      // to a dead lineage and are dropped; the reset candidate will
      // re-reserve them). An append that only moved the data version
      // keeps the lineage: rows [begin, end) are unchanged, and dropping
      // them would leave a reserved range the accumulator never folds.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = candidates_.find(key);
        if (it == candidates_.end()) continue;
        Candidate& cand = it->second;
        if (cand.resets != reserved_resets) continue;
        if (aborted || refused) {
          // Rows [begin, end) are reserved but (partly) unfolded: the
          // accumulator no longer matches the row range.
          cand.tainted = true;
          if (aborted) counters.harvest_aborted->Add();
        } else if (cand.acc.Merge(*local).ok()) {
          counters.harvest_rows->Add(added);
        } else {
          cand.tainted = true;
        }
      }
      if (aborted) return;  // governor tripped: stop all harvest work
    }
  }
}

void Learner::CheckDrift(const Table& table, const ModelCatalog& models,
                         const std::string& table_name) {
  LearnCounters& counters = LearnCounters::Get();
  for (const CapturedModel* m : models.ModelsForTable(table_name)) {
    if (m->grouped || !m->group_column.empty() ||
        !m->subset_predicate.empty()) {
      continue;
    }
    if (m->input_columns.size() != 1) continue;
    const size_t fresh_begin = m->rows_fitted;
    if (table.num_rows() <= fresh_begin) continue;
    if (table.data_version() <= m->fitted_data_version) continue;
    if (table.num_rows() - fresh_begin < kDriftMinRows) continue;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ModelStats& st = model_stats_[m->id];
      if (st.drifted) continue;
      if (st.drift_checked_version >= table.data_version()) continue;
      st.drift_checked_version = table.data_version();
    }
    auto xcol = table.ColumnByName(m->input_columns[0]);
    auto ycol = table.ColumnByName(m->output_column);
    if (!xcol.ok() || !ycol.ok() || !IsNumericColumn(*xcol) ||
        !IsNumericColumn(*ycol)) {
      continue;
    }
    auto model = ModelFromSource(m->model_source);
    if (!model.ok()) continue;

    // Residuals of the fresh window against the fitted law.
    const size_t fresh_end = std::min(
        table.num_rows(), fresh_begin + options_.max_rows_per_scan);
    std::vector<double> residuals;
    residuals.reserve(fresh_end - fresh_begin);
    Vector in(1);
    for (size_t r = fresh_begin; r < fresh_end; ++r) {
      if ((*xcol)->IsNull(r) || (*ycol)->IsNull(r)) continue;
      const double x = NumericAt(**xcol, r);
      const double y = NumericAt(**ycol, r);
      if (!std::isfinite(x) || !std::isfinite(y)) continue;
      in[0] = x;
      const double pred = (*model)->Evaluate(in, m->parameters);
      if (!std::isfinite(pred)) continue;
      residuals.push_back(y - pred);
    }
    if (residuals.size() < kDriftMinRows) continue;
    counters.drift_checks->Add();

    const double n = static_cast<double>(residuals.size());
    double mean = 0.0;
    for (double r : residuals) mean += r;
    mean /= n;
    double var = 0.0;
    for (double r : residuals) var += (r - mean) * (r - mean);
    var /= n;
    double rse = m->quality.residual_standard_error;
    if (!(rse > 0.0)) rse = std::sqrt(var);
    if (!(rse > 0.0)) continue;

    // Mean-shift z-test against the model's own residual scale, then the
    // stats/diagnostics residual tests for shape and serial structure.
    bool drifted = std::fabs(mean) * std::sqrt(n) / rse > kDriftZ;
    if (!drifted) {
      auto ks = KolmogorovSmirnovNormalTest(residuals);
      if (ks.ok() && ks->p_value < kDriftKsP) drifted = true;
    }
    if (!drifted) {
      auto dw = DurbinWatson(residuals);
      if (dw.ok() && (*dw < 0.4 || *dw > 3.6)) drifted = true;
    }
    if (drifted) {
      std::lock_guard<std::mutex> lock(mutex_);
      model_stats_[m->id].drifted = true;
      counters.drift_detected->Add();
    }
  }
}

bool Learner::RejectModel(uint64_t model_id, std::string* why) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = model_stats_.find(model_id);
  if (it == model_stats_.end() || !it->second.drifted) return false;
  if (why != nullptr) {
    *why = "model " + std::to_string(model_id) +
           " drift-flagged (fresh rows contradict the fitted law; refit "
           "pending)";
  }
  LearnCounters::Get().drift_rejected->Add();
  return true;
}

void Learner::OnDecision(const std::string& table, uint64_t hit_model_id,
                         const ModelCatalog& models) {
  if (!enabled()) return;
  LearnCounters& counters = LearnCounters::Get();
  counters.decisions->Add();
  if (hit_model_id != 0) counters.model_hits->Add();
  auto for_table = models.ModelsForTable(table);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const CapturedModel* m : for_table) {
    ModelStats& st = model_stats_[m->id];
    ++st.opportunities;
    if (m->id == hit_model_id) ++st.hits;
  }
}

bool Learner::HasPendingWork() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, cand] : candidates_) {
    (void)key;
    const size_t need = cand.solved_count == 0
                            ? kMinObservations
                            : cand.solved_count + kRefineMinNewRows;
    if (cand.acc.count() >= need) return true;
  }
  for (const auto& [id, st] : model_stats_) {
    (void)id;
    if (st.drifted) return true;
  }
  return false;
}

LearnTickReport Learner::Apply(const Catalog& data, ModelCatalog* models) {
  LearnCounters& counters = LearnCounters::Get();
  counters.ticks->Add();
  LearnTickReport report;
  std::lock_guard<std::mutex> lock(mutex_);

  // ---- Promote / refine from candidate sufficient statistics ----
  struct NewModel {
    Candidate* cand;
    FitOutput fit;
  };
  std::map<std::string, NewModel> best_new;  // keyed table|x|y
  for (auto& [key, cand] : candidates_) {
    (void)key;
    const size_t need = cand.solved_count == 0
                            ? kMinObservations
                            : cand.solved_count + kRefineMinNewRows;
    if (cand.acc.count() < need) continue;
    cand.solved_count = cand.acc.count();  // rate-limit re-solves either way
    auto fit = cand.acc.Solve();
    if (!fit.ok()) continue;

    if (cand.model_id != 0) {
      // Refine path: replace the published fit only when the refreshed
      // prediction interval is no wider — intervals may tighten, never
      // lie — and the model id stays stable for pinned readers.
      auto existing = models->Get(cand.model_id);
      if (!existing.ok()) {
        cand.model_id = 0;  // evicted or dropped; back to candidacy
      } else {
        // The half-width the model AQP path serves as its error bound, so
        // "refine only if tighter" compares exactly what users see.
        const FitQuality& was = (*existing)->quality;
        const double old_hw = PredictionHalfWidth95(
            was.residual_standard_error, was.n_observations, was.n_parameters);
        const FitQuality& now = fit->quality;
        const double new_hw = PredictionHalfWidth95(
            now.residual_standard_error, now.n_observations, now.n_parameters);
        if (new_hw <= old_hw &&
            fit->quality.n_observations >= (*existing)->quality.n_observations) {
          CapturedModel updated = **existing;  // metadata carries over
          updated.parameters = fit->parameters;
          updated.standard_errors = fit->standard_errors;
          updated.quality = fit->quality;
          updated.fitted_data_version = cand.seen_version;
          updated.rows_fitted = cand.seen_rows;
          auto table = data.Get(cand.table);
          if (table.ok()) {
            updated.fitted_data_version = (*table)->data_version();
          }
          (void)models->Remove(updated.id);
          if (models->RestoreWithId(std::move(updated)).ok()) {
            ++report.refined;
            counters.refined->Add();
          }
        } else {
          ++report.refine_rejected;
          counters.refine_rejected->Add();
        }
        continue;
      }
    }

    if (cand.tainted ||
        fit->quality.adjusted_r_squared < kMinPromoteQuality) {
      continue;
    }
    // Adopt an exactly matching catalog model instead of duplicating it
    // (e.g. one published by Fit or by an earlier learner instance).
    bool adopted = false;
    for (const CapturedModel* m : models->ModelsForTable(cand.table)) {
      if (!m->grouped && m->group_column.empty() &&
          m->subset_predicate.empty() && m->input_columns.size() == 1 &&
          m->input_columns[0] == cand.x_column &&
          m->output_column == cand.y_column &&
          m->model_source == cand.model_source) {
        cand.model_id = m->id;
        adopted = true;
        break;
      }
    }
    if (adopted) continue;  // refined on the next pass
    const std::string pair_key =
        cand.table + "|" + cand.x_column + "|" + cand.y_column;
    // A pair's untainted candidates folded the same rows, so the rule
    // the advisor ranks by picks among them.
    auto it = best_new.find(pair_key);
    if (it == best_new.end() ||
        BetterFit(fit->quality, it->second.fit.quality)) {
      best_new[pair_key] = NewModel{&cand, std::move(*fit)};
    }
  }
  for (auto& [pair_key, nm] : best_new) {
    (void)pair_key;
    Candidate& cand = *nm.cand;
    // Don't promote below an existing model over the same (table, x, y):
    // arbitration would never pick ours, it would only bloat the catalog.
    // A partial model never answers outside its subset, so it cannot
    // dominate a full-table candidate.
    bool dominated = false;
    for (const CapturedModel* m : models->ModelsForTable(cand.table)) {
      if (!m->grouped && m->subset_predicate.empty() &&
          m->input_columns.size() == 1 &&
          m->input_columns[0] == cand.x_column &&
          m->output_column == cand.y_column &&
          m->ArbitrationQuality() >= nm.fit.quality.adjusted_r_squared) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    CapturedModel captured;
    captured.table_name = cand.table;
    captured.input_columns = {cand.x_column};
    captured.output_column = cand.y_column;
    captured.model_source = cand.model_source;
    captured.parameters = nm.fit.parameters;
    captured.standard_errors = nm.fit.standard_errors;
    captured.quality = nm.fit.quality;
    captured.grouped = false;
    captured.rows_fitted = cand.seen_rows;
    captured.fitted_data_version = cand.seen_version;
    auto table = data.Get(cand.table);
    if (table.ok()) captured.fitted_data_version = (*table)->data_version();
    cand.model_id = models->Store(std::move(captured));
    ++report.promoted;
    counters.promoted->Add();
  }

  // ---- Refit drift-flagged models against the current table ----
  for (auto& [id, st] : model_stats_) {
    if (!st.drifted) continue;
    auto existing = models->Get(id);
    if (!existing.ok()) {
      st.drifted = false;  // dropped/evicted meanwhile
      continue;
    }
    if (QueryGovernor* gov = QueryGovernor::Current()) {
      if (!gov->Poll().ok()) break;  // retry on the next tick
    }
    CapturedModel refreshed;
    auto status = ComputeCapturedFit(data, RefitRequest(**existing),
                                     &refreshed, /*report=*/nullptr);
    if (!status.ok()) {
      // Keep the flag: the model stays rejected at arbitration (serving
      // exact answers) rather than serving a law the data contradicts.
      ++report.refit_failed;
      counters.refit_failed->Add();
      continue;
    }
    refreshed.id = id;
    (void)models->Remove(id);
    if (models->RestoreWithId(std::move(refreshed)).ok()) {
      st.drifted = false;
      ++report.refits;
      counters.refits->Add();
      // The refit re-anchored rows_fitted; matching candidates restart
      // their re-solve clock so a stale accumulator cannot immediately
      // overwrite the fresh fit with a wider interval (the tighter-only
      // gate would reject it anyway, but don't even try).
      for (auto& [key, cand] : candidates_) {
        (void)key;
        if (cand.model_id == id) cand.solved_count = cand.acc.count();
      }
    }
  }

  // ---- Hit-rate eviction down to the catalog cap ----
  if (options_.max_models > 0) {
    while (models->size() > options_.max_models) {
      uint64_t victim = 0;
      double victim_rate = 2.0;
      for (const auto& [id, st] : model_stats_) {
        if (st.opportunities < options_.evict_min_opportunities) continue;
        if (!models->Get(id).ok()) continue;
        const double rate = static_cast<double>(st.hits) /
                            static_cast<double>(st.opportunities);
        if (rate < victim_rate) {
          victim_rate = rate;
          victim = id;
        }
      }
      if (victim == 0) break;  // nobody eligible: respect the grace period
      (void)models->Remove(victim);
      model_stats_.erase(victim);
      for (auto& [key, cand] : candidates_) {
        (void)key;
        if (cand.model_id == victim) cand.model_id = 0;
      }
      ++report.evicted;
      counters.evicted->Add();
    }
  }

  return report;
}

std::string Learner::VerifyCandidatesAgainstBatch(const Catalog& data,
                                                  double tolerance) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, cand] : candidates_) {
    if (cand.tainted) continue;
    auto model = ModelFromSource(cand.model_source);
    if (!model.ok()) continue;
    if (cand.acc.count() <= (*model)->num_parameters()) continue;
    auto table = data.Get(cand.table);
    if (!table.ok()) continue;
    // Only meaningful when the accumulator's lineage matches the live
    // table (otherwise the rows it folded no longer exist).
    if ((*table)->data_version() != cand.seen_version ||
        (*table)->num_rows() < cand.seen_rows) {
      continue;
    }
    auto xcol = (*table)->ColumnByName(cand.x_column);
    auto ycol = (*table)->ColumnByName(cand.y_column);
    if (!xcol.ok() || !ycol.ok()) continue;
    std::vector<double> xs, ys;
    GatherUsable(**xcol, **ycol, cand.seen_rows, &xs, &ys);
    if (xs.size() != cand.acc.count()) {
      return key + ": accumulator folded " +
             std::to_string(cand.acc.count()) + " rows but the table holds " +
             std::to_string(xs.size()) + " usable rows in its range";
    }
    // Re-accumulate the same rows in one pass and compare sufficient
    // statistics entrywise. Comparing statistics (not solved parameters)
    // is deliberate: merge-vs-single-pass only reassociates sums, so the
    // statistics agree to ~n·eps, while the Gram solve would amplify
    // that noise by the squared condition number of arbitrary data.
    auto rebuilt = IncrementalOls::Create(**model);
    if (!rebuilt.ok()) continue;
    Vector in(1);
    bool add_failed = false;
    for (size_t r = 0; r < xs.size(); ++r) {
      in[0] = xs[r];
      if (!rebuilt->Add(in, ys[r]).ok()) {
        add_failed = true;
        break;
      }
    }
    if (add_failed) continue;
    auto differs = [tolerance](double a, double b) {
      const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
      return std::fabs(a - b) > tolerance * scale;
    };
    const Matrix& got_xtx = cand.acc.gram();
    const Matrix& want_xtx = rebuilt->gram();
    for (size_t i = 0; i < got_xtx.rows(); ++i) {
      for (size_t j = 0; j < got_xtx.cols(); ++j) {
        if (differs(got_xtx(i, j), want_xtx(i, j))) {
          return key + ": merged Gram entry (" + std::to_string(i) + "," +
                 std::to_string(j) + ") = " + FormatDouble(got_xtx(i, j), 9) +
                 " but a single pass over the same " +
                 std::to_string(xs.size()) + " rows gives " +
                 FormatDouble(want_xtx(i, j), 9);
        }
      }
    }
    for (size_t i = 0; i < cand.acc.moment().size(); ++i) {
      if (differs(cand.acc.moment()[i], rebuilt->moment()[i])) {
        return key + ": merged moment entry " + std::to_string(i) + " = " +
               FormatDouble(cand.acc.moment()[i], 9) +
               " but a single pass over the same " +
               std::to_string(xs.size()) + " rows gives " +
               FormatDouble(rebuilt->moment()[i], 9);
      }
    }
    if (differs(cand.acc.sum_y(), rebuilt->sum_y()) ||
        differs(cand.acc.sum_y2(), rebuilt->sum_y2())) {
      return key + ": merged response sums diverge from a single pass over " +
             std::to_string(xs.size()) + " rows";
    }
  }
  return "";
}

size_t Learner::num_candidates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return candidates_.size();
}

size_t Learner::num_drifted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& [id, st] : model_stats_) {
    (void)id;
    if (st.drifted) ++n;
  }
  return n;
}

std::string Learner::StatusString() const {
  LearnCounters& c = LearnCounters::Get();
  size_t candidates = 0, drifted = 0;
  uint64_t tracked_rows = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    candidates = candidates_.size();
    for (const auto& [key, cand] : candidates_) {
      (void)key;
      tracked_rows += cand.acc.count();
    }
    for (const auto& [id, st] : model_stats_) {
      (void)id;
      if (st.drifted) ++drifted;
    }
  }
  const uint64_t decisions = c.decisions->value();
  const uint64_t hits = c.model_hits->value();
  std::string out = "learning: ";
  out += enabled() ? "on" : "off";
  out += " | candidates=" + std::to_string(candidates) +
         " tracked_rows=" + std::to_string(tracked_rows) +
         " harvested_rows=" + std::to_string(c.harvest_rows->value()) +
         " promoted=" + std::to_string(c.promoted->value()) +
         " refined=" + std::to_string(c.refined->value()) +
         " drift_flagged=" + std::to_string(drifted) +
         " refits=" + std::to_string(c.refits->value()) +
         " evicted=" + std::to_string(c.evicted->value()) + " hits=" +
         std::to_string(hits) + "/" + std::to_string(decisions);
  if (decisions > 0) {
    out += " (" +
           FormatDouble(100.0 * static_cast<double>(hits) /
                            static_cast<double>(decisions),
                        1) +
           "%)";
  }
  return out;
}

}  // namespace laws
