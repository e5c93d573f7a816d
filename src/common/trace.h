#ifndef LAWSDB_COMMON_TRACE_H_
#define LAWSDB_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace laws {

class Counter;

/// Scoped-span tracing: RAII timers over the engine's pipeline stages
/// (executor operators, hybrid AQP arbitration, grouped fitting phases,
/// persistence). Spans are recorded into two destinations:
///
///  1. The process-wide trace gate (LAWS_TRACE=1 or SetTraceEnabled):
///     every finished span feeds a `span.<name>.micros` histogram in
///     MetricsRegistry::Global().
///  2. A thread-local TraceSink, installed per operation by EXPLAIN
///     ANALYZE: spans append name/detail/rows/time records that render as
///     the per-stage plan tree, and every Counter::Add made on the thread
///     is credited to the sink as well (metrics.h).
///
/// When neither is active a ScopedSpan costs one relaxed atomic load and
/// one thread-local read — no clock call, no allocation — which is what
/// keeps instrumentation overhead on the hot pipeline under the 2%
/// budget (DESIGN.md §10).
bool TraceEnabled();
void SetTraceEnabled(bool enabled);

/// One finished span. `name` must be a string literal (stored as a
/// pointer); `detail` is optional free text (expression, decision).
struct SpanRecord {
  const char* name = "";
  std::string detail;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  bool has_rows = false;
  double micros = 0.0;
  int depth = 0;        // nesting depth at entry, for tree rendering
  size_t sequence = 0;  // entry order
};

/// Collects the spans of one traced operation and the counts Counter::Add
/// makes on its thread while it is installed — the operation's own counts,
/// whatever other threads add to the same counters. Construction installs
/// the sink as the calling thread's current sink (stacking over any
/// previous one, which sees nothing until restored); destruction restores
/// the previous sink. Not thread-safe: one sink belongs to one thread.
/// Spans opened and counts added on *other* threads (e.g. inside
/// ParallelFor workers) do not reach the sink — per-phase spans around
/// parallel regions are opened on the calling thread instead, and lanes'
/// counts are summed and added there once.
class TraceSink {
 public:
  TraceSink();
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Renders the span tree: indentation by depth, one line per span with
  /// rows in/out (when set) and wall time.
  std::string Render() const;

  /// The sum of what Counter::Add credited to this sink for the counter
  /// registered as `counter`.
  uint64_t Credited(std::string_view counter) const;

  /// The calling thread's innermost sink, or nullptr.
  static TraceSink* Current() { return current_; }

 private:
  friend class Counter;
  friend class ScopedSpan;
  void Credit(const Counter* counter, uint64_t n);

  static constinit inline thread_local TraceSink* current_ = nullptr;
  std::vector<SpanRecord> spans_;
  std::unordered_map<const Counter*, uint64_t> credits_;
  int depth_ = 0;
  TraceSink* prev_ = nullptr;
};

/// RAII span. Opens at construction, records at destruction. All methods
/// are no-ops when the span is inactive (tracing off and no sink), so
/// call sites need no branching.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches input/output cardinality shown by EXPLAIN ANALYZE.
  void SetRows(uint64_t rows_in, uint64_t rows_out);
  /// Attaches free-text detail (predicate text, decision, path).
  void SetDetail(std::string detail);
  /// Ends the span now (for phases that finish mid-scope); destruction
  /// after End() is a no-op, as are further SetRows/SetDetail calls.
  void End();

  bool active() const { return active_; }

 private:
  using Clock = std::chrono::steady_clock;
  const char* name_;
  bool active_;
  TraceSink* sink_ = nullptr;  // sink at entry (stable across the scope)
  size_t slot_ = 0;            // index into sink_->spans_
  Clock::time_point start_{};
};

}  // namespace laws

#endif  // LAWSDB_COMMON_TRACE_H_
