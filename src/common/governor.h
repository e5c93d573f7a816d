#ifndef LAWSDB_COMMON_GOVERNOR_H_
#define LAWSDB_COMMON_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace laws {

/// Row stride between governor polls inside per-row loops: frequent
/// enough that a canceled query stops within microseconds, sparse enough
/// that the poll (one TLS read + one relaxed load when idle) stays
/// invisible in profiles.
inline constexpr size_t kGovernorPollStride = 4096;

/// Per-query resource limits enforced by QueryGovernor. Zero means
/// "unlimited" for both fields, which is also the default — an idle
/// governor (installed but unconstrained) costs one TLS read plus a
/// relaxed load per poll site.
struct ResourceLimits {
  /// Wall-clock deadline, measured from governor construction. <= 0
  /// disables the deadline.
  int64_t timeout_micros = 0;
  /// Memory budget for query-owned materializations (selection vectors,
  /// hash tables, sort permutations, intermediate tables). 0 disables.
  uint64_t memory_budget_bytes = 0;
};

/// The per-query resource governor: a deadline, a cooperative
/// cancellation token, and a memory-accounting arena, shared by every
/// stage of one query's execution. Long-running loops poll it (via
/// LAWS_GOVERNOR_POLL or Poll()) every batch/block/group/few-thousand
/// rows; large materializations charge it (via ScopedCharge). When a
/// limit trips, the poll/charge site returns a typed governor Status
/// (kCanceled / kDeadlineExceeded / kResourceExhausted) that unwinds the
/// query cleanly through the ordinary Result<> plumbing — never a crash,
/// never a torn catalog (fits register models only after success).
///
/// Installation is scoped and thread-local (like TraceSink): the driver
/// wraps execution in a ScopedGovernor and every poll site reads
/// QueryGovernor::Current(). ParallelForChunks re-installs the caller's
/// governor inside worker lanes and skips chunks whose governor has
/// already tripped, so a canceled query stops burning the pool.
///
/// Cancel() may be called from any thread (the token is atomic); all
/// other mutators are called from the query's executing threads.
///
/// Fault-injection sites (tools can arm via LAWS_FAULTS):
///   governor/poll   — an armed error forces cancellation at that poll;
///   governor/alloc  — an armed error forces budget exhaustion at that
///                     charge.
class QueryGovernor {
 public:
  explicit QueryGovernor(ResourceLimits limits = {});
  ~QueryGovernor();

  QueryGovernor(const QueryGovernor&) = delete;
  QueryGovernor& operator=(const QueryGovernor&) = delete;

  /// Requests cooperative cancellation. Thread-safe, idempotent, sticky.
  void Cancel();
  bool canceled() const {
    return canceled_.load(std::memory_order_acquire);
  }

  /// Binds a long-lived external interrupt flag: when `flag` is found set
  /// at a poll, it is consumed (exchanged to false) and translated into
  /// Cancel(). This is the safe cancel-token handoff for drivers whose
  /// cancel source outlives any one query (a shell SIGINT handler, a
  /// server session's CancelCurrent): the asynchronous canceller touches
  /// only the flag — which lives as long as the session — never a
  /// governor pointer that may already be destroyed. Setting an atomic
  /// bool is async-signal-safe. Call before the query starts (not
  /// concurrently with polls); `flag` may be nullptr to unbind. An
  /// interrupt that no poll observes (the query finished first, or none
  /// was running) stays set and cancels the session's next query — the
  /// "armed cancel" semantics drivers surface to users.
  void BindExternalCancel(std::atomic<bool>* flag) {
    external_cancel_ = flag;
  }

  /// The cancellation point: returns OK, or the typed governor error
  /// (kCanceled / kDeadlineExceeded). Deadline and cancellation are
  /// sticky, so once Poll fails it keeps failing — callers that run
  /// parallel regions re-poll after the barrier and get the same error.
  Status Poll();

  /// Charges `bytes` against the budget. On overflow the charge is
  /// rolled back and kResourceExhausted is returned, so accounting stays
  /// symmetric even on the failure path. `what` names the consumer for
  /// the error message ("hash join build", ...).
  Status Charge(uint64_t bytes, const char* what);
  void Release(uint64_t bytes);

  uint64_t bytes_in_use() const {
    return used_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }
  const ResourceLimits& limits() const { return limits_; }

  /// Wall-clock microseconds since construction (for diagnostics).
  int64_t ElapsedMicros() const;

  /// One-line render for EXPLAIN ANALYZE: limits, peak memory, polls,
  /// and whether a limit tripped.
  std::string DescribeLine() const;

  /// The governor installed on this thread, or nullptr. Poll sites are
  /// expected to do: if (auto* g = QueryGovernor::Current()) ... .
  static QueryGovernor* Current();

 private:
  friend class ScopedGovernor;

  /// Records the cancel→observation latency histogram exactly once.
  void RecordCancelObserved();

  const ResourceLimits limits_;
  const std::chrono::steady_clock::time_point start_;
  const std::chrono::steady_clock::time_point deadline_;

  /// Session-lifetime interrupt flag (see BindExternalCancel); not owned.
  std::atomic<bool>* external_cancel_ = nullptr;

  std::atomic<bool> canceled_{false};
  /// steady_clock ticks at the moment Cancel() first ran (0 = never).
  std::atomic<int64_t> cancel_at_micros_{0};
  std::atomic<bool> cancel_observed_{false};
  std::atomic<bool> deadline_reported_{false};

  std::atomic<uint64_t> used_bytes_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> polls_{0};
  std::atomic<bool> any_charge_{false};
};

/// RAII thread-local installation of a governor. Nesting-safe (saves and
/// restores the previous governor); installing nullptr is a no-op shield
/// that uninstalls for the scope.
class ScopedGovernor {
 public:
  explicit ScopedGovernor(QueryGovernor* governor);
  ~ScopedGovernor();

  ScopedGovernor(const ScopedGovernor&) = delete;
  ScopedGovernor& operator=(const ScopedGovernor&) = delete;

 private:
  QueryGovernor* prev_;
};

/// RAII memory charge against the current governor. Acquire() is a no-op
/// (and returns OK) when no governor is installed or the bytes are zero;
/// otherwise the charge is released on destruction. One ScopedCharge can
/// Acquire() several times (charges accumulate; one release at the end),
/// which fits staged operators that grow their footprint as they run.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ~ScopedCharge() { ReleaseNow(); }

  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  /// Charges against the governor current *at this call*; mixing
  /// governors across Acquire calls on one ScopedCharge is a bug.
  Status Acquire(uint64_t bytes, const char* what);
  void ReleaseNow();

  uint64_t held_bytes() const { return bytes_; }

 private:
  QueryGovernor* governor_ = nullptr;
  uint64_t bytes_ = 0;
};

}  // namespace laws

/// Polls the current governor (if any) and returns its typed error from
/// the enclosing function when a limit has tripped. This is the standard
/// cancellation point for long-running loops; call it once per
/// batch/block/group or every few thousand rows.
#define LAWS_GOVERNOR_POLL()                                     \
  do {                                                           \
    if (::laws::QueryGovernor* _laws_gov =                       \
            ::laws::QueryGovernor::Current()) {                  \
      LAWS_RETURN_IF_ERROR(_laws_gov->Poll());                   \
    }                                                            \
  } while (false)

#endif  // LAWSDB_COMMON_GOVERNOR_H_
