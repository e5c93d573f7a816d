#include "common/trace.h"

#include <atomic>
#include <cstdio>

#include "common/env.h"
#include "common/metrics.h"

namespace laws {
namespace {

bool TraceEnabledFromEnv() { return EnvFlag("LAWS_TRACE", false); }

std::atomic<bool> g_trace_enabled{TraceEnabledFromEnv()};

}  // namespace

bool TraceEnabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void SetTraceEnabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

TraceSink::TraceSink() : prev_(current_) { current_ = this; }

TraceSink::~TraceSink() { current_ = prev_; }

void TraceSink::Credit(const Counter* counter, uint64_t n) {
  credits_[counter] += n;
}

uint64_t TraceSink::Credited(std::string_view counter) const {
  const auto it = credits_.find(MetricsRegistry::Global().GetCounter(counter));
  return it == credits_.end() ? 0 : it->second;
}

std::string TraceSink::Render() const {
  std::string out;
  char buf[160];
  for (const SpanRecord& s : spans_) {
    out.append(static_cast<size_t>(s.depth) * 2, ' ');
    out += s.name;
    if (!s.detail.empty()) {
      out += '(';
      out += s.detail;
      out += ')';
    }
    if (s.has_rows) {
      std::snprintf(buf, sizeof(buf), "  rows=%llu->%llu",
                    static_cast<unsigned long long>(s.rows_in),
                    static_cast<unsigned long long>(s.rows_out));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "  time=%.3f ms", s.micros / 1000.0);
    out += buf;
    out += '\n';
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  sink_ = TraceSink::current_;
  active_ = sink_ != nullptr || TraceEnabled();
  if (!active_) return;
  if (sink_ != nullptr) {
    slot_ = sink_->spans_.size();
    SpanRecord rec;
    rec.name = name_;
    rec.depth = sink_->depth_;
    rec.sequence = slot_;
    sink_->spans_.push_back(std::move(rec));
    ++sink_->depth_;
  }
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() { End(); }

void ScopedSpan::End() {
  if (!active_) return;
  active_ = false;
  const double micros =
      std::chrono::duration<double, std::micro>(Clock::now() - start_)
          .count();
  if (sink_ != nullptr) {
    sink_->spans_[slot_].micros = micros;
    --sink_->depth_;
  }
  if (TraceEnabled()) {
    // One histogram per span name; the static-per-call-site cache pattern
    // does not work here (name varies), but span ends are per-stage, not
    // per-row, so a registry lookup is acceptable.
    std::string metric = "span.";
    metric += name_;
    metric += ".micros";
    MetricsRegistry::Global().GetHistogram(metric)->Record(micros);
  }
}

void ScopedSpan::SetRows(uint64_t rows_in, uint64_t rows_out) {
  if (!active_ || sink_ == nullptr) return;
  SpanRecord& rec = sink_->spans_[slot_];
  rec.rows_in = rows_in;
  rec.rows_out = rows_out;
  rec.has_rows = true;
}

void ScopedSpan::SetDetail(std::string detail) {
  if (!active_ || sink_ == nullptr) return;
  sink_->spans_[slot_].detail = std::move(detail);
}

}  // namespace laws
