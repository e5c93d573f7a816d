#ifndef LAWSDB_COMMON_METRICS_H_
#define LAWSDB_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.h"

namespace laws {

/// Process-wide observability registry: named monotonic counters and
/// value/latency histograms. This is the accounting substrate for the
/// paper's Figure 2 loop — which queries were answered from models vs.
/// exact scans, with what error bounds, at what cost — surfaced through
/// the shell's `metrics` command, EXPLAIN ANALYZE, and the BENCH_*.json
/// counter fields.
///
/// Cost model: counters are always on (one relaxed fetch_add and one
/// thread-local load; hot loops batch into locals and add once per
/// phase). Histograms take a per-histogram mutex and are recorded only on
/// low-frequency paths (per query, per save/load, per ParallelFor) or
/// inside trace-gated spans — see trace.h for the LAWS_TRACE gate that
/// keeps per-stage timing at near-zero cost when disabled.
///
/// Lookup discipline: GetCounter/GetHistogram return stable pointers
/// (entries are never erased; ResetAll zeroes values in place), so hot
/// call sites cache the pointer in a function-local static.

/// A monotonically increasing counter. Thread-safe, relaxed ordering. An
/// Add made on a thread with an installed TraceSink (trace.h) also credits
/// that sink, which is how EXPLAIN ANALYZE reports one query's counts
/// while other sessions run; without a sink that costs one thread-local
/// load.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    if (TraceSink* sink = TraceSink::Current()) sink->Credit(this, n);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A histogram of non-negative values (microseconds, bytes, interval
/// widths): count/sum/min/max plus power-of-two buckets for approximate
/// quantiles. Guarded by a mutex — record only on paths that are per-
/// operation, not per-row.
class MetricHistogram {
 public:
  void Record(double value);

  uint64_t count() const;
  double sum() const;
  double min() const;  // +inf when empty
  double max() const;  // 0 when empty
  double Mean() const;
  /// Approximate quantile (q in [0,1]) from the log2 buckets: returns the
  /// geometric midpoint of the bucket holding the q-th sample. Exact for
  /// min/max-degenerate histograms, within 2x otherwise.
  double Quantile(double q) const;
  void Reset();

 private:
  static constexpr int kBuckets = 64;
  mutable std::mutex mutex_;
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One named counter value in a snapshot.
struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

/// One named histogram summary in a snapshot.
struct HistogramSample {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

/// The registry. Use MetricsRegistry::Global() everywhere; separate
/// instances exist only for tests.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the named counter/histogram, creating it on first use. The
  /// returned pointer is stable for the registry's lifetime.
  Counter* GetCounter(std::string_view name);
  MetricHistogram* GetHistogram(std::string_view name);

  /// Snapshot of all non-zero counters / non-empty histograms, sorted by
  /// name.
  std::vector<CounterSample> CounterSamples() const;
  std::vector<HistogramSample> HistogramSamples() const;

  /// Zeroes every counter and histogram in place (pointers stay valid).
  void ResetAll();

  /// Human-readable table of every non-zero metric — the shell's
  /// `metrics` command.
  std::string Render() const;

  /// Flat JSON object {"counter.<name>": n, ..., "histogram.<name>.count":
  /// n, ...} for machine consumers.
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  // std::map: stable addresses for mapped unique_ptrs, deterministic
  // iteration order for snapshots. Heterogeneous lookup via less<>.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<MetricHistogram>, std::less<>> histograms_;
};

}  // namespace laws

#endif  // LAWSDB_COMMON_METRICS_H_
