// End-to-end benchmark of the paper's Figure-2 loop at LOFAR scale.
//
//   lawsbench --workload capture|explore|archive --seed N --seconds S
//             --trace 0|1 [--out results.json] [--spans spans.jsonl]
//
// One process runs one workload (see README.md for why each exists):
//   capture  closed loop, 1 client: rounds of grouped power-law Fit,
//            SaveDatabaseToBytes, LoadDatabaseFromBytes.
//   explore  closed loop, 1 analyst: rounds of one read of each class
//            (model-served point and band, exact scan, group-by, top-k).
//   archive  the explore rounds from nproc-1 readers beside an open-loop
//            writer appending observation bursts, RefitStale after each
//            burst, and the learning loop running.
//
// The program is driven only through its public API. Every answer is
// checked against references computed here from the generated columns;
// a wrong answer or a failed operation makes the run fail (exit 1). The
// last stdout line is the result object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. A traced run makes the
// same calls as an untraced one, with a TraceSink installed around each,
// and then times isolated public calls on a pinned snapshot.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include <sys/mman.h>

#include "aqp/domain.h"
#include "aqp/hybrid.h"
#include "aqp/model_aqp.h"
#include "bench/alloc_counter.h"
#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "compress/block_store.h"
#include "compress/column_compressor.h"
#include "core/persistence.h"
#include "core/session.h"
#include "learn/learner.h"
#include "learn/loop.h"
#include "lofar/generator.h"
#include "model/grouped_fit.h"
#include "model/model.h"
#include "query/executor.h"
#include "query/parser.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace {

using namespace laws;
using Clock = std::chrono::steady_clock;

constexpr const char* kTable = "measurements";
constexpr int kSetupReps = 5;
/// Every workload completes at least this many rounds, however short
/// --seconds is, so each class median rests on enough samples.
constexpr size_t kMinRounds = 5;
constexpr size_t kBatchRows = 100;
constexpr size_t kTopK = 10;
/// A failed operation counts as missing every latency limit.
constexpr double kFailedMs = 1e6;
/// Share of model intervals that must cover the generator's truth.
constexpr double kCoverageFloor = 0.90;
constexpr double kAvgRelTolerance = 1e-9;

// Archive writer schedule: a burst of kBurstBatches batches every
// kCycleSeconds, kBurstSpacingMs apart, then RefitStale. The models are
// stale from the first batch of a burst until the refit commits, so the
// hybrid path falls back to exact scans for part of every cycle.
constexpr double kCycleSeconds = 5.0;
constexpr int kBurstBatches = 10;
constexpr double kBurstSpacingMs = 50.0;
/// The writer keeps its schedule until the last reader round ends; the
/// batches are generated up front for this much time past --seconds.
constexpr double kWriterSlackSeconds = 30.0;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return Seconds(a, b) * 1e3;
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "lawsbench: FATAL %s\n", what.c_str());
  std::_Exit(1);  // other threads may still be running; skip destructors
}

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Host speed. On a shared host, other tenants slow every class at once, by
// up to 1.5x, for minutes at a time (README.md, Steadiness). The round and
// latency metrics are divided by a host-speed index taken in the same run,
// so that two runs compare programs rather than hours.

/// A fixed piece of work that touches nothing of LawsDB: a pass over a
/// 32 MiB buffer, a chain of dependent reads at random places in it, and a
/// multiply-xorshift chain, i.e. the streaming, cache-missing and
/// arithmetic work the read and fit classes do. It runs only while the
/// system under test is idle, so it times the host, not the program.
class HostProbe {
 public:
  static constexpr size_t kWords = size_t{1} << 22;
  /// Median kernel time on a quiet 4-vCPU KVM guest; an index of 1 means
  /// the host ran at that speed.
  static constexpr double kReferenceMs = 15.0;

  HostProbe() : buf_(kWords) {
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint64_t& w : buf_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = x;
    }
  }

  /// Runs and times the kernel `reps` times.
  void Sample(int reps) {
    for (int i = 0; i < reps; ++i) {
      const Clock::time_point t0 = Clock::now();
      sink_ = sink_ ^ Kernel();
      ms_.push_back(Ms(t0, Clock::now()));
      parts_.push_back(Parts());
    }
  }

  std::vector<double> Parts() {
    std::vector<double> out;
    Clock::time_point t = Clock::now();
    auto lap = [&] {
      const Clock::time_point n = Clock::now();
      out.push_back(Ms(t, n));
      t = n;
    };
    uint64_t acc = 0;
    for (uint64_t w : buf_) acc += w;
    lap();
    uint64_t at = acc;
    for (uint64_t i = 0; i < 50000; ++i) at = buf_[at & (kWords - 1)] ^ i;
    lap();
    for (uint64_t i = 0; i < 200000; ++i) {
      at = buf_[at & ((kWords >> 2) - 1)] ^ i;
    }
    lap();
    uint64_t h = at;
    for (int i = 0; i < 3000000; ++i) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      h ^= h >> 29;
    }
    lap();
    {
      std::unordered_map<int64_t, std::pair<double, int64_t>> groups;
      for (size_t i = 0; i < 400000; ++i) {
        auto& g = groups[static_cast<int64_t>(buf_[i] % 35692)];
        g.first += static_cast<double>(buf_[i] & 1023);
        ++g.second;
      }
      acc += groups.size();
    }
    lap();
    {
      std::vector<uint32_t> idx(300000);
      for (size_t i = 0; i < idx.size(); ++i) {
        idx[i] = static_cast<uint32_t>(buf_[i] & ((kWords >> 2) - 1));
      }
      std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
        return buf_[a] > buf_[b];
      });
      acc += idx[0];
    }
    lap();
    {
      const size_t bytes = size_t{16} << 20;
      void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      char* c = static_cast<char*>(p);
      for (size_t i = 0; i < bytes; i += 4096) c[i] = static_cast<char>(i);
      acc += static_cast<uint64_t>(c[4096]);
      munmap(p, bytes);
    }
    lap();
    sink_ = sink_ ^ acc ^ h;
    return out;
  }
  std::vector<std::vector<double>> parts_;

  const std::vector<double>& samples_ms() const { return ms_; }

  /// Median kernel time of the run over the reference time.
  double Index() const { return Median(ms_) / kReferenceMs; }

  static double BufferMb() { return kWords * 8.0 / (1024.0 * 1024.0); }

 private:
  uint64_t Kernel() const {
    uint64_t sum = 0;
    for (uint64_t w : buf_) sum += w;
    uint64_t at = sum;
    for (uint64_t i = 0; i < 50000; ++i) at = buf_[at & (kWords - 1)] ^ i;
    uint64_t h = at;
    for (int i = 0; i < 3000000; ++i) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      h ^= h >> 29;
    }
    return sum ^ at ^ h;
  }

  std::vector<uint64_t> buf_;
  std::vector<double> ms_;
  volatile uint64_t sink_ = 0;
};

/// Kernel runs before every round of a closed-loop workload, and before
/// and after the measured window of every workload.
constexpr int kProbeRepsPerRound = 2;
constexpr int kProbeRepsIdle = 10;

std::string Fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return Fmt("%.17g", v);
}

// ---------------------------------------------------------------------------
// Tracing. A traced call installs a TraceSink on the calling thread around
// the same public call an untraced run makes, so the engine's own spans
// (HybridDecision, ModelPath, ExactScan, Query, the executor operators,
// FitGrouped and its phases, LoadImage, Harvest) are collected for that
// call; the call itself is the outer span. Spans the engine opens on pool
// workers do not reach the sink and count as the caller's self time.

/// One traced operation: its class, the layer the outer call belongs to,
/// its wall time and the engine spans recorded inside it.
struct OpTrace {
  std::string cls;
  const char* outer_layer;
  double total_us;
  std::vector<SpanRecord> spans;
};

class TraceLog {
 public:
  void Add(OpTrace op) {
    std::lock_guard<std::mutex> lock(mutex_);
    ops_.push_back(std::move(op));
  }
  std::vector<OpTrace> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(ops_);
  }

 private:
  std::mutex mutex_;
  std::vector<OpTrace> ops_;
};

/// The src/ module each engine span belongs to.
const char* LayerOf(const char* span) {
  static const std::map<std::string, const char*> layers = {
      {"HybridDecision", "aqp"}, {"ModelPath", "aqp"},
      {"Harvest", "learn"},      {"FitGrouped", "model"},
      {"GroupIndex", "model"},   {"FitLoop", "model"},
      {"MergeOutcomes", "model"}, {"SaveImage", "core"},
      {"LoadImage", "core"}};
  auto it = layers.find(span);
  return it == layers.end() ? "query" : it->second;  // executor operators
}

/// Self time (span minus its direct children) per layer of one operation.
/// Spans are in entry order with their nesting depth; depth-0 spans are
/// the outer call's children.
std::map<std::string, double> SelfTimes(const OpTrace& op) {
  std::map<std::string, double> self;
  double top = 0.0;
  const std::vector<SpanRecord>& s = op.spans;
  for (size_t i = 0; i < s.size(); ++i) {
    double children = 0.0;
    for (size_t j = i + 1; j < s.size() && s[j].depth > s[i].depth; ++j) {
      if (s[j].depth == s[i].depth + 1) children += s[j].micros;
    }
    self[LayerOf(s[i].name)] += s[i].micros - children;
    if (s[i].depth == 0) top += s[i].micros;
  }
  self[op.outer_layer] += op.total_us - top;
  return self;
}

/// Times `fn` (the call into the system) in ms. With a log, the call is
/// traced and logged as one operation of class `cls`.
template <typename Fn>
auto Timed(TraceLog* log, const char* cls, const char* outer_layer,
           double* ms, Fn&& fn) {
  std::optional<TraceSink> sink;
  if (log != nullptr) sink.emplace();
  const Clock::time_point t0 = Clock::now();
  auto out = fn();
  *ms = Ms(t0, Clock::now());
  if (log != nullptr) log->Add({cls, outer_layer, *ms * 1e3, sink->spans()});
  return out;
}

// ---------------------------------------------------------------------------
// Generated data and the references answers are checked against.

struct Reference {
  std::vector<LofarSourceTruth> truth;
  std::vector<double> bands;
  /// Initial rows followed by every pre-generated archive batch, in the
  /// order the writer appends them; a snapshot with n rows holds exactly
  /// the prefix [0, n).
  std::vector<int64_t> source;
  std::vector<double> wavelength;
  std::vector<double> intensity;
  size_t initial_rows = 0;

  double TrueIntensity(int64_t src, double band) const {
    const LofarSourceTruth& t = truth[static_cast<size_t>(src - 1)];
    return t.p * std::pow(t.anomalous ? 0.15 : band, t.alpha);
  }
};

LofarConfig MakeConfig(uint64_t seed) {
  LofarConfig cfg;  // the paper's cardinalities
  cfg.seed = seed;
  // Observations sit exactly on the four bands, so exact `wavelength =
  // band` predicates select rows and can be checked against the model.
  cfg.band_jitter = 0.0;
  return cfg;
}

/// New seeded observations drawn from the same per-source laws.
Table MakeBatch(const Reference& ref, std::mt19937_64* rng, size_t rows) {
  std::uniform_int_distribution<size_t> pick_source(0, ref.truth.size() - 1);
  std::uniform_int_distribution<size_t> pick_band(0, ref.bands.size() - 1);
  std::normal_distribution<double> noise(0.0, 0.03);
  std::vector<int64_t> src(rows);
  std::vector<double> wl(rows), in(rows);
  for (size_t i = 0; i < rows; ++i) {
    const LofarSourceTruth& t = ref.truth[pick_source(*rng)];
    src[i] = t.source;
    wl[i] = ref.bands[pick_band(*rng)];
    in[i] = ref.TrueIntensity(t.source, wl[i]) * std::exp(noise(*rng));
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64Vector(std::move(src)));
  cols.push_back(Column::FromDoubleVector(std::move(wl)));
  cols.push_back(Column::FromDoubleVector(std::move(in)));
  return Unwrap(Table::FromColumns(
                    Schema({Field{"source", DataType::kInt64, false},
                            Field{"wavelength", DataType::kDouble, false},
                            Field{"intensity", DataType::kDouble, false}}),
                    std::move(cols)),
                "batch");
}

void AppendToReference(const Table& t, Reference* ref) {
  const auto& s = t.column(0).int64_data();
  const auto& w = t.column(1).double_data();
  const auto& v = t.column(2).double_data();
  ref->source.insert(ref->source.end(), s.begin(), s.end());
  ref->wavelength.insert(ref->wavelength.end(), w.begin(), w.end());
  ref->intensity.insert(ref->intensity.end(), v.begin(), v.end());
}

bool ColumnsIdentical(const Column& a, const Column& b) {
  if (a.type() != b.type() || a.size() != b.size()) return false;
  switch (a.type()) {
    case DataType::kInt64:
      return std::memcmp(a.int64_data().data(), b.int64_data().data(),
                         a.size() * sizeof(int64_t)) == 0;
    case DataType::kDouble:
      return std::memcmp(a.double_data().data(), b.double_data().data(),
                         a.size() * sizeof(double)) == 0;
    default:
      for (size_t i = 0; i < a.size(); ++i) {
        if (a.GetValue(i).ToString() != b.GetValue(i).ToString()) return false;
      }
      return true;
  }
}

bool TablesIdentical(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.schema().field(c).name != b.schema().field(c).name ||
        !ColumnsIdentical(a.column(c), b.column(c))) {
      return false;
    }
  }
  return true;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

bool ModelsIdentical(const CapturedModel& a, const CapturedModel& b) {
  if (a.id != b.id || a.model_source != b.model_source ||
      a.table_name != b.table_name || a.group_column != b.group_column ||
      a.grouped != b.grouped || a.num_groups != b.num_groups ||
      !SameBits(a.median_r_squared, b.median_r_squared) ||
      !SameBits(a.median_residual_se, b.median_residual_se) ||
      a.parameters.size() != b.parameters.size()) {
    return false;
  }
  for (size_t i = 0; i < a.parameters.size(); ++i) {
    if (!SameBits(a.parameters[i], b.parameters[i])) return false;
  }
  return TablesIdentical(a.parameter_table, b.parameter_table);
}

bool CatalogsIdentical(const Catalog& ta, const ModelCatalog& ma,
                       const Catalog& tb, const ModelCatalog& mb) {
  if (ta.ListTables() != tb.ListTables() || ma.ListIds() != mb.ListIds()) {
    return false;
  }
  for (const std::string& name : ta.ListTables()) {
    if (!TablesIdentical(**ta.Get(name), **tb.Get(name))) return false;
  }
  // Loading rebases fitted_data_version on the loaded table's version;
  // what must survive is whether each model is fresh.
  auto stale = [](const Catalog& t, const CapturedModel& m) {
    auto table = t.Get(m.table_name);
    return !table.ok() || ModelCatalog::IsStale(m, (*table)->data_version());
  };
  for (uint64_t id : ma.ListIds()) {
    const CapturedModel& a = **ma.Get(id);
    const CapturedModel& b = **mb.Get(id);
    if (!ModelsIdentical(a, b) || stale(ta, a) != stale(tb, b)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The read classes and the round.

enum class Cls { kPoint, kBand, kScan, kGroupBy, kTopK };
/// One read round: one read of each class, in this order. Equal counts
/// per class give every class median the same number of samples; the
/// shares are what the metrics need, not a model of analyst traffic. Only
/// the query parameters are seeded: a read's latency depends on what ran
/// before it, so a seeded order would move the class medians from seed
/// to seed.
constexpr Cls kRound[] = {Cls::kPoint, Cls::kBand, Cls::kScan, Cls::kGroupBy,
                          Cls::kTopK};
constexpr size_t kRoundSize = sizeof(kRound) / sizeof(kRound[0]);

const char* ClsName(Cls c) {
  switch (c) {
    case Cls::kPoint: return "point";
    case Cls::kBand: return "band";
    case Cls::kScan: return "scan";
    case Cls::kGroupBy: return "groupby";
    case Cls::kTopK: return "topk";
  }
  return "?";
}

struct Query {
  Cls cls = Cls::kPoint;
  std::string sql;
  int64_t source = 0;
  double band = 0.0;
  double lo = 0.0, hi = 0.0;
  bool hybrid() const { return cls == Cls::kPoint || cls == Cls::kBand; }
};

Query MakeQuery(Cls cls, const Reference& ref, std::mt19937_64* rng) {
  Query q;
  q.cls = cls;
  std::uniform_int_distribution<size_t> pick_band(0, ref.bands.size() - 1);
  switch (cls) {
    case Cls::kPoint: {
      std::uniform_int_distribution<int64_t> pick(
          1, static_cast<int64_t>(ref.truth.size()));
      q.source = pick(*rng);
      q.band = ref.bands[pick_band(*rng)];
      q.sql = Fmt("SELECT AVG(intensity) FROM measurements WHERE source = "
                  "%lld AND wavelength = %g",
                  static_cast<long long>(q.source), q.band);
      break;
    }
    case Cls::kBand:
      q.band = ref.bands[pick_band(*rng)];
      q.sql = Fmt("SELECT AVG(intensity) FROM measurements WHERE "
                  "wavelength = %g",
                  q.band);
      break;
    case Cls::kScan: {
      // Two adjacent bands, so every scan selects about half the rows.
      std::uniform_int_distribution<size_t> pick_pair(0,
                                                      ref.bands.size() - 2);
      const size_t a = pick_pair(*rng);
      const std::string lo = Fmt("%.3f", ref.bands[a] - 0.005);
      const std::string hi = Fmt("%.3f", ref.bands[a + 1] + 0.005);
      q.lo = std::strtod(lo.c_str(), nullptr);
      q.hi = std::strtod(hi.c_str(), nullptr);
      q.sql = "SELECT COUNT(*), AVG(intensity) FROM measurements WHERE "
              "wavelength BETWEEN " + lo + " AND " + hi;
      break;
    }
    case Cls::kGroupBy:
      q.sql = "SELECT source, AVG(intensity) FROM measurements GROUP BY "
              "source";
      break;
    case Cls::kTopK:
      q.sql = "SELECT source, wavelength, intensity FROM measurements "
              "ORDER BY intensity DESC LIMIT 10";
      break;
  }
  return q;
}

/// Deals read rounds; `start` rotates the round, so concurrent readers
/// do not issue their heavy reads in step.
class Rounds {
 public:
  Rounds(uint64_t seed, size_t start) : rng_(seed), start_(start) {}
  std::vector<Query> Next(const Reference& ref) {
    std::vector<Query> round;
    for (size_t i = 0; i < kRoundSize; ++i) {
      round.push_back(
          MakeQuery(kRound[(start_ + i) % kRoundSize], ref, &rng_));
    }
    return round;
  }

 private:
  std::mt19937_64 rng_;
  size_t start_;
};

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= kAvgRelTolerance * std::fabs(b) + 1e-300;
}

/// True when `v` is the exact AVG over `n` rows with `sum`.
bool AvgMatches(const Value& v, double sum, size_t n) {
  if (n == 0) return v.is_null();
  return v.is_double() && NearlyEqual(v.dbl(), sum / static_cast<double>(n));
}

/// Checks an exact answer against the reference over the first `n` rows.
bool ExactMatches(const Query& q, const Table& t, const Reference& ref,
                  size_t n) {
  const auto& S = ref.source;
  const auto& W = ref.wavelength;
  const auto& I = ref.intensity;
  switch (q.cls) {
    case Cls::kPoint:
    case Cls::kBand: {
      double sum = 0.0;
      size_t cnt = 0;
      for (size_t i = 0; i < n; ++i) {
        if (W[i] == q.band && (q.cls == Cls::kBand || S[i] == q.source)) {
          sum += I[i];
          ++cnt;
        }
      }
      return t.num_rows() == 1 && AvgMatches(t.GetValue(0, 0), sum, cnt);
    }
    case Cls::kScan: {
      double sum = 0.0;
      size_t cnt = 0;
      for (size_t i = 0; i < n; ++i) {
        if (W[i] >= q.lo && W[i] <= q.hi) {
          sum += I[i];
          ++cnt;
        }
      }
      if (t.num_rows() != 1 || t.num_columns() != 2) return false;
      const Value c = t.GetValue(0, 0);
      return c.is_int64() && static_cast<size_t>(c.int64()) == cnt &&
             AvgMatches(t.GetValue(0, 1), sum, cnt);
    }
    case Cls::kGroupBy: {
      const size_t groups = ref.truth.size();
      std::vector<double> sum(groups + 1, 0.0);
      std::vector<size_t> cnt(groups + 1, 0);
      for (size_t i = 0; i < n; ++i) {
        sum[static_cast<size_t>(S[i])] += I[i];
        ++cnt[static_cast<size_t>(S[i])];
      }
      size_t nonempty = 0;
      for (size_t g = 1; g <= groups; ++g) nonempty += cnt[g] > 0;
      if (t.num_rows() != nonempty || t.num_columns() != 2) return false;
      std::vector<bool> seen(groups + 1, false);
      for (size_t r = 0; r < t.num_rows(); ++r) {
        const Value k = t.GetValue(r, 0);
        if (!k.is_int64() || k.int64() < 1 ||
            static_cast<size_t>(k.int64()) > groups) {
          return false;
        }
        const size_t g = static_cast<size_t>(k.int64());
        if (seen[g] || !AvgMatches(t.GetValue(r, 1), sum[g], cnt[g])) {
          return false;
        }
        seen[g] = true;
      }
      return true;
    }
    case Cls::kTopK: {
      // Intensity descending, ties in row order (ORDER BY is stable).
      std::vector<uint32_t> idx(n);
      for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
      const size_t k = std::min(kTopK, n);
      std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                        [&](uint32_t a, uint32_t b) {
                          if (I[a] != I[b]) return I[a] > I[b];
                          return a < b;
                        });
      if (t.num_rows() != k || t.num_columns() != 3) return false;
      for (size_t r = 0; r < k; ++r) {
        const Value s = t.GetValue(r, 0), w = t.GetValue(r, 1),
                    v = t.GetValue(r, 2);
        if (!s.is_int64() || s.int64() != S[idx[r]] || !w.is_double() ||
            !SameBits(w.dbl(), W[idx[r]]) || !v.is_double() ||
            !SameBits(v.dbl(), I[idx[r]])) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// The system under test.

struct World {
  std::unique_ptr<Learner> learner;
  std::unique_ptr<Server> server;
  std::shared_ptr<ClientSession> admin;

  /// Sessions go before the server, the server before the learner.
  void Reset() {
    admin.reset();
    server.reset();
    learner.reset();
  }

  size_t TableRows() const {
    return Unwrap(admin->PinSnapshot()->tables.Get(kTable), "pin")
        ->num_rows();
  }
};

FitRequest PowerLawRequest() {
  FitRequest r;
  r.table = kTable;
  r.model_source = "power_law";
  r.input_columns = {"wavelength"};
  r.output_column = "intensity";
  r.group_column = "source";
  return r;
}

struct ReadResult {
  Table table{Schema{}};
  bool from_model = false;
  double error_bound = 0.0;
};

/// One read through the session: ExecuteHybrid for point/band,
/// ExecuteSql otherwise.
Result<ReadResult> RunRead(ClientSession* session, const Query& q) {
  ReadResult out;
  if (q.hybrid()) {
    Result<HybridAnswer> a = session->ExecuteHybrid(q.sql);
    if (!a.ok()) return a.status();
    out.table = std::move(a->table);
    out.from_model = a->approximate;
    out.error_bound = a->error_bound;
    return out;
  }
  Result<Table> t = session->ExecuteSql(q.sql);
  if (!t.ok()) return t.status();
  out.table = std::move(*t);
  return out;
}

Status AppendBatch(Table* dst, const Table& rows) {
  std::vector<Value> row(rows.num_columns());
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    for (size_t c = 0; c < rows.num_columns(); ++c) {
      row[c] = rows.GetValue(i, c);
    }
    LAWS_RETURN_IF_ERROR(dst->AppendRow(row));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Run bookkeeping.

struct Tally {
  std::map<std::string, std::vector<double>> ms;  // latency per class
  std::vector<double> round_ms;
  size_t attempted = 0;
  size_t failed = 0;
  size_t wrong = 0;
  size_t hybrid = 0;
  size_t model_hits = 0;
  size_t covered = 0;
  size_t coverage_checked = 0;

  void Merge(const Tally& o) {
    for (const auto& [k, v] : o.ms) {
      ms[k].insert(ms[k].end(), v.begin(), v.end());
    }
    round_ms.insert(round_ms.end(), o.round_ms.begin(), o.round_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    hybrid += o.hybrid;
    model_hits += o.model_hits;
    covered += o.covered;
    coverage_checked += o.coverage_checked;
  }
};

void Fail(Tally* tally, const std::string& what, const Status& s) {
  ++tally->failed;
  std::fprintf(stderr, "lawsbench: FAILED %s: %s\n", what.c_str(),
               s.ToString().c_str());
}

void Wrong(Tally* tally, const std::string& what) {
  ++tally->wrong;
  std::fprintf(stderr, "lawsbench: WRONG %s\n", what.c_str());
}

/// Runs, times and checks one read; returns its latency in ms.
/// `must_use_model` holds where the table never changes, so point/band
/// must be served by the model.
double TimedRead(ClientSession* session, const World& world,
                 const Reference& ref, const Query& q, TraceLog* log,
                 bool must_use_model, Tally* tally) {
  const char* cls = ClsName(q.cls);
  const size_t rows_before = world.TableRows();
  ++tally->attempted;
  double ms = 0.0;
  Result<ReadResult> r =
      Timed(log, cls, "serve", &ms, [&] { return RunRead(session, q); });
  if (!r.ok()) {
    tally->ms[cls].push_back(kFailedMs);
    Fail(tally, q.sql, r.status());
    return kFailedMs;
  }
  tally->ms[cls].push_back(ms);
  const size_t rows_after = world.TableRows();
  if (q.hybrid()) ++tally->hybrid;
  if (r->from_model) {
    ++tally->model_hits;
    const Table& t = r->table;
    if (t.num_rows() != 1 || !t.GetValue(0, 0).is_double()) {
      Wrong(tally, "model answer shape: " + q.sql);
      return ms;
    }
    double truth = 0.0;
    if (q.cls == Cls::kPoint) {
      truth = ref.TrueIntensity(q.source, q.band);
    } else {
      for (const LofarSourceTruth& s : ref.truth) {
        truth += ref.TrueIntensity(s.source, q.band);
      }
      truth /= static_cast<double>(ref.truth.size());
    }
    ++tally->coverage_checked;
    if (std::fabs(t.GetValue(0, 0).dbl() - truth) <= r->error_bound) {
      ++tally->covered;
    }
    return ms;
  }
  if (must_use_model && q.hybrid()) {
    Wrong(tally, "not served by the model: " + q.sql);
    return ms;
  }
  // The answer reflects one snapshot committed while the read ran: the
  // table held rows_before rows plus some number of whole batches.
  for (size_t n = rows_before; n <= rows_after; n += kBatchRows) {
    if (ExactMatches(q, r->table, ref, n)) return ms;
  }
  Wrong(tally, "exact answer differs from reference: " + q.sql);
  return ms;
}

/// One read round; its time is recorded only when every read succeeded.
void TimedRound(ClientSession* session, const World& world,
                const Reference& ref, const std::vector<Query>& round,
                TraceLog* log, bool must_use_model, Tally* tally) {
  double round_ms = 0.0;
  const size_t failed0 = tally->failed;
  for (const Query& q : round) {
    round_ms += TimedRead(session, world, ref, q, log, must_use_model, tally);
  }
  if (tally->failed == failed0) tally->round_ms.push_back(round_ms);
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> list;
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : list) {
      if (m.first == name) {
        m.second = {value, unit};
        return;
      }
    }
    list.push_back({name, {value, unit}});
  }
};

std::string MetricsJson(const Metrics& m) {
  std::string s = "{";
  for (size_t i = 0; i < m.list.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + m.list[i].first + "\": {\"value\": " +
         JsonNumber(m.list[i].second.first) + ", \"unit\": \"" +
         m.list[i].second.second + "\"}";
  }
  return s + "}";
}

// ---------------------------------------------------------------------------
// Setup: generate, create, register, fit, warm up.

struct SetupSample {
  double total_s = 0.0;
  double generate_s = 0.0;
};

struct Options {
  std::string workload;
  uint64_t seed = 20150104;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;
  std::string spans_path;
};

/// Builds a fresh world. The reference is filled from the generated
/// columns outside the timed part.
World Setup(const Options& opt, Reference* ref, SetupSample* sample) {
  World w;
  const bool learning = opt.workload == "archive";
  const Clock::time_point t0 = Clock::now();
  LofarDataset data = Unwrap(GenerateLofar(MakeConfig(opt.seed)), "generate");
  const Clock::time_point t1 = Clock::now();
  if (ref != nullptr) {
    ref->truth = data.truth;
    ref->bands = data.config.bands;
    ref->source = data.observations.column(0).int64_data();
    ref->wavelength = data.observations.column(1).double_data();
    ref->intensity = data.observations.column(2).double_data();
    ref->initial_rows = data.observations.num_rows();
  }
  const Clock::time_point t2 = Clock::now();
  ServerOptions options = ServerOptions::FromEnv();
  if (learning) {
    LearnerOptions lopts = LearnerOptions::FromEnv();
    lopts.enabled = true;
    w.learner = std::make_unique<Learner>(lopts);
    options.hybrid.learner = w.learner.get();
  }
  w.server = std::make_unique<Server>(options);
  w.admin = Unwrap(w.server->Connect("admin"), "connect");
  CheckOk(w.admin->CreateTable(kTable, std::move(data.observations)),
          "create table");
  CheckOk(w.admin->RegisterDomain(kTable, "wavelength",
                                  ColumnDomain::Explicit(data.config.bands)),
          "register domain");
  (void)Unwrap(w.admin->Fit(PowerLawRequest()), "initial fit");
  if (opt.workload != "capture") {
    // Warm-up: the first scan builds the block index.
    (void)Unwrap(w.admin->ExecuteHybrid(
                     "SELECT AVG(intensity) FROM measurements WHERE "
                     "source = 1 AND wavelength = 0.15"),
                 "warm point");
    (void)Unwrap(w.admin->ExecuteSql("SELECT COUNT(*) FROM measurements "
                                     "WHERE wavelength > 0.15"),
                 "warm scan");
  }
  const Clock::time_point t3 = Clock::now();
  sample->generate_s = Seconds(t0, t1);
  sample->total_s = Seconds(t0, t1) + Seconds(t2, t3);
  return w;
}

// ---------------------------------------------------------------------------
// Workload loops.

struct RunState {
  Tally tally;
  double image_ratio = 0.0;
  std::vector<double> writer_lag_ms;
  std::vector<double> refit_s;
  size_t acked_batches = 0;
};

double RawColumnBytes(const Catalog& tables) {
  double bytes = 0.0;
  for (const std::string& name : tables.ListTables()) {
    const TablePtr t = *tables.Get(name);
    bytes += static_cast<double>(t->num_rows() * t->num_columns() * 8);
  }
  return bytes;
}

/// Rounds of Fit, Save and Load. Every round starts from the same state:
/// one table and one captured model.
void RunCapture(World* world, const Options& opt, TraceLog* log,
                HostProbe* probe, RunState* st) {
  Tally& tally = st->tally;
  const SnapshotPtr initial = world->admin->PinSnapshot();
  const Clock::time_point deadline = After(Clock::now(), opt.seconds);
  std::unique_ptr<Table> first_params;
  while (tally.round_ms.size() < kMinRounds || Clock::now() < deadline) {
    probe->Sample(kProbeRepsPerRound);
    double fit_ms = 0.0, save_ms = 0.0, load_ms = 0.0;
    const size_t failed0 = tally.failed;
    ++tally.attempted;
    Result<FitReport> fit = Timed(log, "fit", "serve", &fit_ms, [&] {
      return world->admin->Fit(PowerLawRequest());
    });
    if (!fit.ok()) {
      tally.ms["fit"].push_back(kFailedMs);
      Fail(&tally, "fit", fit.status());
    } else {
      tally.ms["fit"].push_back(fit_ms);
      const SnapshotPtr snap = world->admin->PinSnapshot();
      const CapturedModel* m = Unwrap(snap->models.Get(fit->model_id), "get");
      if (first_params == nullptr) {
        first_params = std::make_unique<Table>(m->parameter_table);
      } else if (!TablesIdentical(*first_params, m->parameter_table)) {
        Wrong(&tally, "parameter table differs between rounds");
      }
    }
    const SnapshotPtr snap = world->admin->PinSnapshot();
    ++tally.attempted;
    Result<std::vector<uint8_t>> image =
        Timed(log, "save", "core", &save_ms, [&] {
          return SaveDatabaseToBytes(snap->tables, snap->models);
        });
    if (!image.ok()) {
      tally.ms["save"].push_back(kFailedMs);
      Fail(&tally, "save", image.status());
    } else {
      tally.ms["save"].push_back(save_ms);
      st->image_ratio =
          static_cast<double>(image->size()) / RawColumnBytes(snap->tables);
      Catalog tables;
      ModelCatalog models;
      ++tally.attempted;
      const Status load = Timed(log, "load", "core", &load_ms, [&] {
        return LoadDatabaseFromBytes(*image, &tables, &models);
      });
      if (!load.ok()) {
        tally.ms["load"].push_back(kFailedMs);
        Fail(&tally, "load", load);
      } else {
        tally.ms["load"].push_back(load_ms);
        if (!CatalogsIdentical(snap->tables, snap->models, tables, models)) {
          Wrong(&tally, "save/load round trip is not bit-identical");
        }
      }
    }
    if (tally.failed == failed0) {
      tally.round_ms.push_back(fit_ms + save_ms + load_ms);
    }
    CheckOk(world->admin->ReplaceDatabase(initial->tables.Clone(),
                                          initial->models.Clone()),
            "reset");
  }
  // The parameter table must not depend on the lane count.
  if (first_params != nullptr) {
    ThreadPool::SetGlobalThreadCount(1);
    CapturedModel one_lane;
    CheckOk(ComputeCapturedFit(initial->tables, PowerLawRequest(), &one_lane,
                               nullptr),
            "1-lane fit");
    ThreadPool::SetGlobalThreadCount(0);
    if (!TablesIdentical(*first_params, one_lane.parameter_table)) {
      Wrong(&tally, "parameter table differs between 1 and N lanes");
    }
  }
}

/// Whole read rounds from one analyst session.
void RunExplore(World* world, const Reference& ref, const Options& opt,
                TraceLog* log, HostProbe* probe, RunState* st) {
  Rounds rounds(opt.seed, 0);
  const Clock::time_point deadline = After(Clock::now(), opt.seconds);
  auto analyst = Unwrap(world->server->Connect("analyst"), "connect");
  while (st->tally.round_ms.size() < kMinRounds || Clock::now() < deadline) {
    probe->Sample(kProbeRepsPerRound);
    TimedRound(analyst.get(), *world, ref, rounds.Next(ref), log, true,
               &st->tally);
  }
}

/// nproc-1 readers issue whole read rounds while an open-loop writer
/// appends bursts and refits; the learning loop runs throughout.
void RunArchive(World* world, Reference* ref, const Options& opt,
                TraceLog* log, RunState* st) {
  // Pre-generate every batch the writer may append, so the reference
  // holds them before any reader starts.
  const int cycles = static_cast<int>(
      std::ceil((opt.seconds + kWriterSlackSeconds) / kCycleSeconds));
  std::vector<Table> batches;
  {
    std::mt19937_64 rng(opt.seed ^ 0x5eedba7c4ULL);
    for (int i = 0; i < cycles * kBurstBatches; ++i) {
      batches.push_back(MakeBatch(*ref, &rng, kBatchRows));
      AppendToReference(batches.back(), ref);
    }
  }
  const size_t readers =
      std::max<size_t>(1, ThreadPool::DefaultThreadCount() - 1);
  LearningLoop loop(&world->server->snapshots(), world->learner.get());
  loop.Start();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = After(start, opt.seconds);
  std::atomic<size_t> readers_done{0};
  std::vector<Tally> tallies(readers);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto session =
          Unwrap(world->server->Connect("reader" + std::to_string(r)),
                 "connect reader");
      Rounds rounds(opt.seed * 1000003 + r, r * kRoundSize / readers);
      while (tallies[r].round_ms.size() < kMinRounds ||
             Clock::now() < deadline) {
        TimedRound(session.get(), *world, *ref, rounds.Next(*ref), log, false,
                   &tallies[r]);
      }
      readers_done.fetch_add(1);
    });
  }
  // Open-loop writer on this thread, until the last reader round ends.
  auto writer = Unwrap(world->server->Connect("writer"), "connect writer");
  Tally wtally;
  bool writing = true;
  for (int c = 0; c < cycles && writing; ++c) {
    for (int b = 0; b < kBurstBatches && writing; ++b) {
      const Clock::time_point due =
          After(start, c * kCycleSeconds + b * kBurstSpacingMs / 1e3);
      std::this_thread::sleep_until(due);
      if (readers_done.load() == readers) {
        writing = false;
        break;
      }
      st->writer_lag_ms.push_back(Ms(due, Clock::now()));
      ++wtally.attempted;
      double ms = 0.0;
      const Status s = Timed(log, "ingest", "serve", &ms, [&] {
        return writer->Ingest(kTable, batches[st->acked_batches]);
      });
      if (!s.ok()) {
        wtally.ms["ingest"].push_back(kFailedMs);
        Fail(&wtally, "ingest", s);
        writing = false;  // later batches would no longer match the reference
        break;
      }
      // Timed from the moment the batch was due.
      wtally.ms["ingest"].push_back(Ms(due, Clock::now()));
      ++st->acked_batches;
    }
    if (!writing) break;
    ++wtally.attempted;
    double ms = 0.0;
    Result<RefitReport> refit =
        Timed(log, "refit", "serve", &ms, [&] { return writer->RefitStale(); });
    if (!refit.ok()) {
      Fail(&wtally, "refit", refit.status());
    } else {
      st->refit_s.push_back(ms / 1e3);
    }
  }
  for (std::thread& t : threads) t.join();
  loop.Stop();
  for (const Tally& t : tallies) st->tally.Merge(t);
  st->tally.Merge(wtally);
  // Exactly the initial rows plus every acknowledged batch, in order.
  const size_t expect = ref->initial_rows + st->acked_batches * kBatchRows;
  const TablePtr final_table =
      Unwrap(world->admin->PinSnapshot()->tables.Get(kTable), "final");
  bool same = final_table->num_rows() == expect;
  for (size_t c = 0; same && c < 3; ++c) {
    const Column& col = final_table->column(c);
    same = c == 0 ? std::memcmp(col.int64_data().data(), ref->source.data(),
                                expect * 8) == 0
                  : std::memcmp(col.double_data().data(),
                                (c == 1 ? ref->wavelength : ref->intensity)
                                    .data(),
                                expect * 8) == 0;
  }
  if (!same) Wrong(&st->tally, "final table is not initial + acked rows");
}

/// The operation classes whose medians make up latency_geomean_ms_norm.
std::vector<std::string> WorkloadClasses(const std::string& workload) {
  if (workload == "capture") return {"fit", "save", "load"};
  std::vector<std::string> c;
  for (Cls k : kRound) c.push_back(ClsName(k));
  if (workload == "archive") c.push_back("ingest");
  return c;
}

// ---------------------------------------------------------------------------
// Per-layer probes: isolated public calls on one pinned snapshot.

/// Median seconds of `fn` over at least one and at most `max_reps` runs,
/// stopping once `budget_s` is spent.
double TimeMedian(const std::function<void()>& fn, int max_reps,
                  double budget_s = 1.0) {
  std::vector<double> s;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < max_reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.push_back(Seconds(t0, Clock::now()));
    if (Seconds(start, Clock::now()) > budget_s) break;
  }
  return Median(s);
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// Medians over `ops` of each layer's self time, in us, for class `cls`.
std::map<std::string, double> MedianSelfUs(const std::vector<OpTrace>& ops,
                                           const std::string& cls,
                                           size_t* count) {
  std::map<std::string, std::vector<double>> per_layer;
  std::vector<std::map<std::string, double>> rows;
  for (const OpTrace& op : ops) {
    if (op.cls == cls) rows.push_back(SelfTimes(op));
  }
  for (const auto& row : rows) {
    for (const auto& [layer, us] : row) per_layer[layer];
  }
  for (const auto& row : rows) {
    for (auto& [layer, v] : per_layer) {
      auto it = row.find(layer);
      v.push_back(it == row.end() ? 0.0 : it->second);
    }
  }
  std::map<std::string, double> out;
  for (auto& [layer, v] : per_layer) out[layer] = Median(std::move(v));
  *count = rows.size();
  return out;
}

/// The reference rows [from, from + kBatchRows) as a batch, generating
/// them first when the reference ends before them.
Table ReferenceBatch(Reference* ref, size_t from, uint64_t seed) {
  if (ref->source.size() < from + kBatchRows) {
    std::mt19937_64 rng(seed);
    AppendToReference(MakeBatch(*ref, &rng, kBatchRows), ref);
  }
  auto slice = [&](const auto& v) {
    return std::vector<typename std::decay_t<decltype(v)>::value_type>(
        v.begin() + from, v.begin() + from + kBatchRows);
  };
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64Vector(slice(ref->source)));
  cols.push_back(Column::FromDoubleVector(slice(ref->wavelength)));
  cols.push_back(Column::FromDoubleVector(slice(ref->intensity)));
  return Unwrap(Table::FromColumns(
                    Schema({Field{"source", DataType::kInt64, false},
                            Field{"wavelength", DataType::kDouble, false},
                            Field{"intensity", DataType::kDouble, false}}),
                    std::move(cols)),
                "reference batch");
}

void Probes(World* world, Reference* ref_rows, const Options& opt,
            Metrics* m) {
  const Reference& ref = *ref_rows;
  // A refit needs stale models: ingest one batch, then time RefitStale.
  // Afterwards every model is fresh for the model-path probes. The batch
  // is the reference's next rows, so later exact answers still check.
  {
    CheckOk(world->admin->Ingest(
                kTable, ReferenceBatch(ref_rows, world->TableRows(),
                                       opt.seed + 99)),
            "probe ingest");
    const Clock::time_point t0 = Clock::now();
    (void)Unwrap(world->admin->RefitStale(), "probe refit");
    m->Set("core.refit_s", Seconds(t0, Clock::now()), "s");
  }
  const SnapshotPtr snap = world->admin->PinSnapshot();
  const TablePtr table = Unwrap(snap->tables.Get(kTable), "probe table");
  const ModelPtr power_law = Unwrap(ModelFromSource("power_law"), "model");
  GroupedFitSpec spec;
  spec.group_column = "source";
  spec.input_columns = {"wavelength"};
  spec.output_column = "intensity";

  // model
  size_t groups = 0;
  m->Set("model.fit_grouped_s", TimeMedian([&] {
           groups = Unwrap(FitGrouped(*power_law, *table, spec), "fit")
                        .groups.size();
         }, 3, 2.0), "s");
  ThreadPool::SetGlobalThreadCount(1);
  m->Set("model.fit_grouped_1lane_s", TimeMedian([&] {
           (void)Unwrap(FitGrouped(*power_law, *table, spec), "fit");
         }, 3, 2.0), "s");
  ThreadPool::SetGlobalThreadCount(0);
  {
    const uint64_t a0 = bench::AllocCount();
    (void)Unwrap(FitGrouped(*power_law, *table, spec), "fit");
    m->Set("model.allocs_per_group",
           static_cast<double>(bench::AllocCount() - a0) /
               static_cast<double>(std::max<size_t>(groups, 1)),
           "count");
  }
  {
    // FitGrouped's phase spans, collected on this thread.
    TraceSink sink;
    (void)Unwrap(FitGrouped(*power_law, *table, spec), "fit");
    const std::pair<const char*, const char*> phases[] = {
        {"GroupIndex", "model.group_index_ms"},
        {"FitLoop", "model.fit_loop_ms"},
        {"MergeOutcomes", "model.merge_ms"}};
    for (const auto& [span, metric] : phases) {
      double us = 0.0;
      for (const SpanRecord& s : sink.spans()) {
        if (std::strcmp(s.name, span) == 0) us += s.micros;
      }
      m->Set(metric, us / 1e3, "ms");
    }
  }
  // core
  m->Set("core.capture_s", TimeMedian([&] {
           CapturedModel captured;
           CheckOk(ComputeCapturedFit(snap->tables, PowerLawRequest(),
                                      &captured, nullptr),
                   "capture");
         }, 3, 2.0), "s");
  std::vector<uint8_t> image;
  m->Set("core.save_s", TimeMedian([&] {
           image = Unwrap(SaveDatabaseToBytes(snap->tables, snap->models),
                          "save");
         }, 1), "s");
  m->Set("core.load_s", TimeMedian([&] {
           Catalog t;
           ModelCatalog mc;
           CheckOk(LoadDatabaseFromBytes(image, &t, &mc), "load");
         }, 3), "s");
  m->Set("core.image_ratio",
         static_cast<double>(image.size()) / RawColumnBytes(snap->tables),
         "ratio");
  // compress
  CompressedTable compressed;
  m->Set("compress.table_s", TimeMedian([&] {
           compressed = Unwrap(CompressTable(*table), "compress");
         }, 1), "s");
  m->Set("compress.untable_s", TimeMedian([&] {
           (void)Unwrap(DecompressTable(compressed), "decompress");
         }, 3), "s");
  m->Set("compress.block_index_build_ms", 1e3 * TimeMedian([&] {
           (void)BuildBlockIndex(*table);
         }, 5), "ms");
  // common: the image ends with the CRC32C of every preceding byte.
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(image[image.size() - 4 + i]) << (8 * i);
  }
  m->Set("common.crc_s", TimeMedian([&] {
           if (Crc32c(image.data(), image.size() - 4) != stored) {
             Die("image checksum mismatch");
           }
         }, 5), "s");
  // query
  std::mt19937_64 rng(opt.seed + 7);
  std::map<Cls, Query> q;
  std::map<Cls, SelectStatement> stmt;
  for (Cls c : kRound) {
    q[c] = MakeQuery(c, ref, &rng);
    stmt[c] = Unwrap(ParseSelect(q[c].sql), "parse");
    m->Set(std::string("query.parse_us.") + ClsName(c), 1e6 * TimeMedian([&] {
             (void)Unwrap(ParseSelect(q[c].sql), "parse");
           }, 200, 0.2), "us");
  }
  for (Cls c : {Cls::kScan, Cls::kGroupBy, Cls::kTopK}) {
    const uint64_t total0 = CounterValue("scan.blocks_total");
    const uint64_t pruned0 = CounterValue("scan.blocks_pruned");
    m->Set(std::string("query.exec_ms.") + ClsName(c), 1e3 * TimeMedian([&] {
             (void)Unwrap(ExecuteSelect(snap->tables, stmt[c]), "exec");
           }, 3), "ms");
    if (c == Cls::kScan) {
      const uint64_t total = CounterValue("scan.blocks_total") - total0;
      m->Set("compress.blocks_pruned_ratio",
             total == 0 ? 0.0
                        : static_cast<double>(
                              CounterValue("scan.blocks_pruned") - pruned0) /
                              static_cast<double>(total),
             "ratio");
    }
    ThreadPool::SetGlobalThreadCount(1);
    m->Set(std::string("query.exec_1lane_ms.") + ClsName(c),
           1e3 * TimeMedian([&] {
             (void)Unwrap(ExecuteSelect(snap->tables, stmt[c]), "exec");
           }, 3), "ms");
    ThreadPool::SetGlobalThreadCount(0);
  }
  // aqp: the model path alone, with the band domain registered.
  {
    ModelQueryEngine engine(&snap->tables, &snap->models, &snap->domains);
    m->Set("aqp.model_us.point", 1e6 * TimeMedian([&] {
             (void)Unwrap(engine.ExecuteStatement(stmt[Cls::kPoint]), "point");
           }, 200, 0.2), "us");
    size_t tuples = 0;
    m->Set("aqp.model_ms.band", 1e3 * TimeMedian([&] {
             tuples = Unwrap(engine.ExecuteStatement(stmt[Cls::kBand]), "band")
                          .tuples_reconstructed;
           }, 20, 0.5), "ms");
    m->Set("aqp.tuples_per_query.band", static_cast<double>(tuples), "count");
  }
  // Self time of each layer on each read class's path: one warm-up and
  // five traced reads of each class through the session.
  {
    TraceLog log;
    Tally scratch;
    for (Cls c : kRound) {
      for (int i = 0; i <= 5; ++i) {
        TimedRead(world->admin.get(), *world, ref, q[c],
                  i == 0 ? nullptr : &log, true, &scratch);
      }
    }
    if (scratch.failed != 0 || scratch.wrong != 0) Die("probe reads failed");
    const std::vector<OpTrace> ops = log.Take();
    for (Cls c : kRound) {
      size_t n = 0;
      const auto self = MedianSelfUs(ops, ClsName(c), &n);
      const bool hybrid = c == Cls::kPoint || c == Cls::kBand;
      for (const char* layer : {"serve", hybrid ? "aqp" : "query"}) {
        auto it = self.find(layer);
        m->Set(std::string(layer) + ".self_us." + ClsName(c),
               it == self.end() ? 0.0 : it->second, "us");
      }
    }
  }
  // serve
  m->Set("serve.read_overhead_us", 1e6 * TimeMedian([&] {
           (void)Unwrap(world->admin->ExecuteRead(
                            [](const DatabaseSnapshot&) -> Result<Table> {
                              return Table(Schema{});
                            }),
                        "empty read");
         }, 200, 0.2), "us");
  {
    // A commit whose mutator fails: the catalog copy, the table clone and
    // the append happen, nothing is published.
    std::mt19937_64 brng(opt.seed + 5);
    const Table batch = MakeBatch(ref, &brng, kBatchRows);
    std::vector<double> commit_ms, clone_ms, append_ms;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Status s = world->server->snapshots().Commit(
          [&](DatabaseSnapshot* db) -> Status {
            Clock::time_point c0 = Clock::now();
            TablePtr dst = Unwrap(
                SnapshotCatalog::MutableTableForWrite(db, kTable), "clone");
            Clock::time_point c1 = Clock::now();
            CheckOk(AppendBatch(dst.get(), batch), "append");
            clone_ms.push_back(Ms(c0, c1));
            append_ms.push_back(Ms(c1, Clock::now()));
            return Status::Aborted("discarded by the benchmark");
          });
      if (s.ok()) Die("discarded commit was published");
      commit_ms.push_back(Ms(t0, Clock::now()));
    }
    m->Set("serve.commit_ms", Median(commit_ms), "ms");
    m->Set("storage.table_clone_ms", Median(clone_ms), "ms");
    m->Set("storage.append_ms", Median(append_ms), "ms");
  }
  // learn: a probe-local learner, so the workload's own state is untouched.
  {
    LearnerOptions lopts = LearnerOptions::FromEnv();
    lopts.enabled = true;
    Learner learner(lopts);
    m->Set("learn.harvest_ms", 1e3 * TimeMedian([&] {
             learner.OnExactScan(stmt[Cls::kScan], snap->tables, snap->models);
           }, 5), "ms");
    LearningLoop loop(&world->server->snapshots(), &learner);
    m->Set("learn.tick_ms", 1e3 * TimeMedian([&] {
             (void)Unwrap(loop.TickNow(), "tick");
           }, 3), "ms");
  }
}

struct CounterDelta {
  const char* counter;
  const char* metric;
};
constexpr CounterDelta kCounters[] = {
    {"fit.dispatch.closed_form", "counts.fit_closed_form"},
    {"fit.dispatch.iterative", "counts.fit_iterative"},
    {"expr.compiled", "counts.expr_compiled"},
    {"scan.index_builds", "counts.scan_index_builds"},
    {"serve.commits", "counts.serve_commits"},
    {"learn.harvest.rows", "counts.learn_harvest_rows"},
};

/// Per-class medians of each layer's self time over the traced window,
/// as a JSON object for the results file.
std::string SelfTimeJson(const std::vector<OpTrace>& ops,
                         const std::vector<std::string>& classes) {
  std::string s = "{";
  for (size_t i = 0; i < classes.size(); ++i) {
    size_t n = 0;
    const auto self = MedianSelfUs(ops, classes[i], &n);
    s += Fmt("%s\"%s\": {\"ops\": %zu", i == 0 ? "" : ", ", classes[i].c_str(),
             n);
    for (const auto& [layer, us] : self) {
      s += Fmt(", \"%s_self_ms\": %s", layer.c_str(),
               JsonNumber(us / 1e3).c_str());
    }
    s += "}";
  }
  return s + "}";
}

void WriteSpans(const std::string& path, const std::vector<OpTrace>& ops) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  for (size_t op = 0; op < ops.size(); ++op) {
    // The outer call is span 0; an engine span's parent is the nearest
    // earlier span one level up.
    std::fprintf(f,
                 "{\"op\": %zu, \"class\": \"%s\", \"span\": 0, \"parent\": "
                 "null, \"name\": \"call\", \"layer\": \"%s\", \"us\": %.3f}\n",
                 op, ops[op].cls.c_str(), ops[op].outer_layer,
                 ops[op].total_us);
    const std::vector<SpanRecord>& s = ops[op].spans;
    std::vector<size_t> open = {0};
    for (size_t i = 0; i < s.size(); ++i) {
      open.resize(static_cast<size_t>(s[i].depth) + 1);
      std::fprintf(f,
                   "{\"op\": %zu, \"class\": \"%s\", \"span\": %zu, "
                   "\"parent\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                   "\"us\": %.3f}\n",
                   op, ops[op].cls.c_str(), i + 1, open.back(), s[i].name,
                   LayerOf(s[i].name), s[i].micros);
      open.push_back(i + 1);
    }
  }
  std::fclose(f);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--out") {
      o.out_path = v;
    } else if (k == "--spans") {
      o.spans_path = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (o.workload != "capture" && o.workload != "explore" &&
      o.workload != "archive") {
    Die("--workload must be capture, explore or archive");
  }
  if (!(o.seconds > 0.0)) Die("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);

  // Built first: filling its buffer is not set-up time.
  HostProbe probe;

  // Set up several times; the last world is the one measured.
  Reference ref;
  std::vector<double> setup_s, generate_s;
  World world;
  for (int i = 0; i < kSetupReps; ++i) {
    world.Reset();
    SetupSample sample;
    world = Setup(opt, i == 0 ? &ref : nullptr, &sample);
    setup_s.push_back(sample.total_s);
    generate_s.push_back(sample.generate_s);
  }

  std::map<std::string, uint64_t> counters0;
  for (const CounterDelta& c : kCounters) counters0[c.counter] = CounterValue(c.counter);
  MetricHistogram* queue_wait =
      MetricsRegistry::Global().GetHistogram("serve.queue_wait_micros");
  const double wait_sum0 = queue_wait->sum();
  const uint64_t wait_n0 = queue_wait->count();

  TraceLog trace_log;
  TraceLog* log = opt.trace ? &trace_log : nullptr;
  RunState st;
  probe.Sample(kProbeRepsIdle);
  if (opt.workload == "capture") {
    RunCapture(&world, opt, log, &probe, &st);
  } else if (opt.workload == "explore") {
    RunExplore(&world, ref, opt, log, &probe, &st);
  } else {
    RunArchive(&world, &ref, opt, log, &st);
  }
  probe.Sample(kProbeRepsIdle);
  const double host = probe.Index();

  const Tally& t = st.tally;
  const double coverage =
      t.coverage_checked == 0
          ? 1.0
          : static_cast<double>(t.covered) /
                static_cast<double>(t.coverage_checked);
  if (coverage < kCoverageFloor) {
    std::fprintf(stderr,
                 "lawsbench: WRONG model intervals cover the truth in %.3f "
                 "of %zu answers (floor %.2f)\n",
                 coverage, t.coverage_checked, kCoverageFloor);
  }
  const bool correct = t.wrong == 0 && t.failed == 0 && coverage >= kCoverageFloor;

  const std::vector<std::string> classes = WorkloadClasses(opt.workload);
  auto lat = [&](const std::string& cls) {
    auto it = t.ms.find(cls);
    return it == t.ms.end() ? std::vector<double>{} : it->second;
  };
  double log_sum = 0.0;
  for (const std::string& c : classes) log_sum += std::log(Median(lat(c)));
  const double geomean_ms =
      std::exp(log_sum / static_cast<double>(classes.size()));
  Metrics e2e;
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("round_s_norm", Median(t.round_ms) / 1e3 / host, "s");
  e2e.Set("latency_geomean_ms_norm", geomean_ms / host, "ms");
  e2e.Set("peak_rss_mb", PeakRssMb() - HostProbe::BufferMb(), "MB");

  Metrics layer;
  std::string self_time = "{}";
  if (opt.trace) {
    const std::vector<OpTrace> ops = trace_log.Take();
    self_time = SelfTimeJson(ops, classes);
    if (!opt.spans_path.empty()) WriteSpans(opt.spans_path, ops);
    layer.Set("lofar.generate_s", Median(generate_s), "s");
    for (const CounterDelta& c : kCounters) {
      layer.Set(c.metric,
                static_cast<double>(CounterValue(c.counter) - counters0[c.counter]),
                "count");
    }
    layer.Set("counts.model_hits", static_cast<double>(t.model_hits), "count");
    layer.Set("counts.model_fallbacks",
              static_cast<double>(t.hybrid - t.model_hits), "count");
    Probes(&world, &ref, opt, &layer);
  }

  // The full result: every class median, sample count and sample, the
  // answer checks and the archive's writer figures.
  std::string class_json = "{";
  for (const auto& [cls, v] : t.ms) {
    std::string samples;
    for (double ms : v) {
      samples += (samples.empty() ? "" : ", ") + JsonNumber(ms);
    }
    class_json += Fmt("%s\"%s\": {\"n\": %zu, \"p10_ms\": %s, \"p50_ms\": %s, "
                      "\"ms\": [",
                      class_json.size() == 1 ? "" : ", ", cls.c_str(),
                      v.size(), JsonNumber(Percentile(v, 0.10)).c_str(),
                      JsonNumber(Median(v)).c_str()) +
                  samples + "]}";
  }
  class_json += "}";
  auto json_list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      s += (i == 0 ? "" : ", ") + JsonNumber(v[i]);
    }
    return s + "]";
  };
  const uint64_t waits = queue_wait->count() - wait_n0;
  const std::string result = Fmt(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": ",
      correct ? "true" : "false", t.attempted, t.failed) +
      MetricsJson(opt.trace ? layer : e2e) + "}";
  if (!opt.out_path.empty()) {
    std::FILE* f = std::fopen(opt.out_path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + opt.out_path);
    std::fprintf(
        f,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"correct\": %s, \"attempted\": %zu, \"failed\": "
        "%zu, \"wrong\": %zu, \"failed_ratio\": %s, \"coverage\": %s, "
        "\"rounds\": %zu, \"classes\": %s, \"model_hit_ratio\": %s, "
        "\"image_ratio\": %s, \"acked_batches\": %zu, \"refits\": %zu, "
        "\"writer_lag_ms_p50\": %s, \"queue_wait_us_mean\": %s, "
        "\"round_s\": %s, \"latency_geomean_ms\": %s, \"host_index\": %s, "
        "\"host_probe_ms\": %s, \"round_ms\": %s, "
        "\"end_to_end\": %s, \"per_layer\": %s, \"self_time\": %s}\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.seconds, opt.trace ? 1 : 0, correct ? "true" : "false",
        t.attempted, t.failed, t.wrong,
        JsonNumber(t.attempted == 0 ? 0.0
                                    : static_cast<double>(t.failed) /
                                          static_cast<double>(t.attempted))
            .c_str(),
        JsonNumber(coverage).c_str(), t.round_ms.size(), class_json.c_str(),
        JsonNumber(t.hybrid == 0 ? 1.0
                                 : static_cast<double>(t.model_hits) /
                                       static_cast<double>(t.hybrid))
            .c_str(),
        JsonNumber(st.image_ratio).c_str(), st.acked_batches,
        st.refit_s.size(), JsonNumber(Median(st.writer_lag_ms)).c_str(),
        JsonNumber(waits == 0 ? 0.0
                              : (queue_wait->sum() - wait_sum0) /
                                    static_cast<double>(waits))
            .c_str(),
        JsonNumber(Median(t.round_ms) / 1e3).c_str(),
        JsonNumber(geomean_ms).c_str(), JsonNumber(host).c_str(),
        (json_list(probe.samples_ms()) + ", \"parts\": [" + [&] {
          std::string s;
          for (const auto& p : probe.parts_) s += (s.empty() ? "" : ", ") + json_list(p);
          return s;
        }() + "]").c_str(),
        json_list(t.round_ms).c_str(),
        MetricsJson(e2e).c_str(), MetricsJson(layer).c_str(),
        self_time.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
