// Resource-governor overhead benchmark: the cost of running every query
// under a QueryGovernor (DESIGN.md §15) when no limit is set.
//
// An idle governor is one TLS read plus a relaxed poll every few
// thousand rows, and a handful of charge/release pairs per pipeline
// stage. The PR's perf gate: across representative shapes (filter +
// project, group-aggregate, sort) the governed run must stay within 2%
// of the ungoverned run, best-of-reps. The bench also measures the other
// side of the contract — how quickly a mid-flight Cancel() is observed —
// and FATALs if cancellation takes longer than 50 ms to land.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/governor.h"
#include "common/timer.h"
#include "lofar/generator.h"
#include "model/grouped_fit.h"
#include "model/model.h"
#include "query/executor.h"
#include "query/query_context.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace {

using namespace laws;
using namespace laws::bench;

uint64_t Mix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double MixDouble(uint64_t& state) {
  return static_cast<double>(Mix(state) >> 11) * 0x1.0p-53;  // [0, 1)
}

Table MakeSaltedTable(size_t rows) {
  uint64_t seed = 0x60BE4404ull;
  Column da(DataType::kDouble, /*nullable=*/true);  // ~3% NULL
  Column db(DataType::kDouble, /*nullable=*/false);
  Column ia(DataType::kInt64, /*nullable=*/false);
  Column g(DataType::kInt64, /*nullable=*/false);
  std::vector<double> da_v(rows), db_v(rows);
  std::vector<uint8_t> da_null(rows);
  std::vector<int64_t> ia_v(rows), g_v(rows);
  for (size_t i = 0; i < rows; ++i) {
    da_null[i] = (Mix(seed) % 100 < 3) ? 1 : 0;
    da_v[i] = MixDouble(seed) * 200.0 - 100.0;
    db_v[i] = MixDouble(seed) * 50.0 + 1.0;
    ia_v[i] = static_cast<int64_t>(Mix(seed) % 10'000) - 5'000;
    g_v[i] = static_cast<int64_t>(Mix(seed) % 64);
  }
  da.AppendDoubleBatch(da_v.data(), da_null.data(), rows);
  db.AppendDoubleBatch(db_v.data(), nullptr, rows);
  ia.AppendInt64Batch(ia_v.data(), nullptr, rows);
  g.AppendInt64Batch(g_v.data(), nullptr, rows);
  Schema schema({Field{"da", DataType::kDouble, true},
                 Field{"db", DataType::kDouble, false},
                 Field{"ia", DataType::kInt64, false},
                 Field{"g", DataType::kInt64, false}});
  std::vector<Column> cols;
  cols.push_back(std::move(da));
  cols.push_back(std::move(db));
  cols.push_back(std::move(ia));
  cols.push_back(std::move(g));
  return Unwrap(Table::FromColumns(std::move(schema), std::move(cols)),
                "build table");
}

template <typename Fn>
double OnceSeconds(Fn&& fn) {
  Timer t;
  fn();
  return t.ElapsedSeconds();
}

// Best-of-reps for two variants of the same work, interleaved rep by rep
// (and alternating which goes first) so slow machine-wide drift — CPU
// throttling, a neighbor waking up on this shared box — lands on both
// sides instead of biasing whichever variant runs last.
template <typename FnA, typename FnB>
void BestInterleaved(int reps, FnA&& a, FnB&& b, double* best_a,
                     double* best_b) {
  *best_a = 1e300;
  *best_b = 1e300;
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      *best_a = std::min(*best_a, OnceSeconds(a));
      *best_b = std::min(*best_b, OnceSeconds(b));
    } else {
      *best_b = std::min(*best_b, OnceSeconds(b));
      *best_a = std::min(*best_a, OnceSeconds(a));
    }
  }
}

struct Shape {
  const char* name;
  const char* sql;
};

}  // namespace

int main(int argc, char** argv) {
  Banner("governor overhead: governed vs ungoverned query execution",
         "robustness rides along for free — deadlines, cancellation and "
         "memory budgets must not tax the un-limited fast path");
  JsonReport report(JsonPathFromArgs(argc, argv));

  const size_t rows = 1'000'000;
  Catalog catalog;
  catalog.RegisterOrReplace("t",
                            std::make_shared<Table>(MakeSaltedTable(rows)));

  const Shape shapes[] = {
      {"filter_project", "SELECT da + db FROM t WHERE db > 10.0"},
      {"group_aggregate",
       "SELECT g, COUNT(ia), SUM(db), AVG(da) FROM t GROUP BY g"},
      {"sort_limit", "SELECT ia, db FROM t ORDER BY ia LIMIT 100"},
  };
  const int reps = 9;

  double plain_total = 0.0;
  double governed_total = 0.0;
  // The headline gate is the geometric mean of the per-shape governed/
  // plain ratios: every shape counts equally, so the slowest shape's
  // run-to-run noise (the ~150 ms group-aggregate swings a few percent
  // on a shared 4-core box) does not drown out the faster ones.
  double log_ratio_sum = 0.0;
  int shape_count = 0;
  for (const Shape& shape : shapes) {
    // Warm both paths once (first touch faults pages, builds bytecode).
    (void)Unwrap(ExecuteQuery(catalog, shape.sql), shape.name);
    (void)Unwrap(ExecuteQueryGoverned(catalog, shape.sql, ResourceLimits{}),
                 shape.name);

    uint64_t polls = 0;
    double plain = 0.0, governed = 0.0;
    BestInterleaved(
        reps,
        [&] { (void)Unwrap(ExecuteQuery(catalog, shape.sql), shape.name); },
        [&] {
          QueryContext ctx{ResourceLimits{}};
          (void)Unwrap(
              ctx.Run([&] { return ExecuteQuery(catalog, shape.sql); }),
              shape.name);
          polls = ctx.governor().polls();
        },
        &plain, &governed);
    plain_total += plain;
    governed_total += governed;
    log_ratio_sum += std::log(governed / plain);
    ++shape_count;
    const double overhead_pct = (governed / plain - 1.0) * 100.0;
    std::printf("%-16s plain %8.3f ms   governed %8.3f ms   "
                "overhead %+6.2f%%   polls %" PRIu64 "\n",
                shape.name, plain * 1e3, governed * 1e3, overhead_pct, polls);
    report.Begin("governor_idle_overhead");
    report.Field("shape", shape.name);
    report.Field("rows", rows);
    report.Field("plain_ms", plain * 1e3);
    report.Field("governed_ms", governed * 1e3);
    report.Field("overhead_pct", overhead_pct);
    report.Field("polls", static_cast<size_t>(polls));
  }

  // The Table-1 workload itself: the grouped power-law fit over a LOFAR
  // table (scaled to keep best-of-reps tractable; the per-row poll cost
  // is scale-free). This is the acceptance shape — the governor must be
  // invisible on the paper's own pipeline, not just on query shapes.
  {
    LofarConfig cfg;
    cfg.num_sources = 4'000;
    cfg.num_rows = 160'000;
    LofarDataset lofar = Unwrap(GenerateLofar(cfg), "lofar gen");
    PowerLawModel power_law;
    GroupedFitSpec spec;
    spec.group_column = "source";
    spec.input_columns = {"wavelength"};
    spec.output_column = "intensity";
    (void)Unwrap(FitGrouped(power_law, lofar.observations, spec), "warm");

    uint64_t polls = 0;
    double plain = 0.0, governed = 0.0;
    BestInterleaved(
        reps,
        [&] {
          (void)Unwrap(FitGrouped(power_law, lofar.observations, spec),
                       "table1 fit");
        },
        [&] {
          QueryContext ctx{ResourceLimits{}};
          (void)Unwrap(ctx.Run([&] {
            return FitGrouped(power_law, lofar.observations, spec);
          }), "table1 fit");
          polls = ctx.governor().polls();
        },
        &plain, &governed);
    plain_total += plain;
    governed_total += governed;
    log_ratio_sum += std::log(governed / plain);
    ++shape_count;
    const double overhead_pct = (governed / plain - 1.0) * 100.0;
    std::printf("%-16s plain %8.3f ms   governed %8.3f ms   "
                "overhead %+6.2f%%   polls %" PRIu64 "\n",
                "table1_fit", plain * 1e3, governed * 1e3, overhead_pct,
                polls);
    report.Begin("governor_idle_overhead");
    report.Field("shape", "table1_fit");
    report.Field("rows", cfg.num_rows);
    report.Field("plain_ms", plain * 1e3);
    report.Field("governed_ms", governed * 1e3);
    report.Field("overhead_pct", overhead_pct);
    report.Field("polls", static_cast<size_t>(polls));
  }

  const double total_overhead_pct =
      (std::exp(log_ratio_sum / shape_count) - 1.0) * 100.0;
  std::printf("total            plain %8.3f ms   governed %8.3f ms   "
              "overhead %+6.2f%% (geomean across shapes)\n",
              plain_total * 1e3, governed_total * 1e3, total_overhead_pct);

  // Cancellation responsiveness: cancel a governed aggregate mid-flight
  // from another thread and measure how long the query takes to unwind.
  const char* cancel_sql =
      "SELECT g, SUM(db), AVG(da), COUNT(ia) FROM t GROUP BY g";
  double cancel_latency_micros = 0.0;
  bool canceled_cleanly = false;
  {
    QueryContext ctx{ResourceLimits{}};
    std::atomic<bool> fired{false};
    Timer since_cancel;
    std::thread canceler([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      since_cancel = Timer();
      fired.store(true, std::memory_order_release);
      ctx.Cancel();
    });
    auto result = ctx.Run([&] { return ExecuteQuery(catalog, cancel_sql); });
    const double elapsed = since_cancel.ElapsedSeconds();
    canceler.join();
    if (!result.ok() && result.status().code() == StatusCode::kCanceled &&
        fired.load(std::memory_order_acquire)) {
      canceled_cleanly = true;
      cancel_latency_micros = elapsed * 1e6;
      std::printf("cancel observed in %.1f us (typed error: %s)\n",
                  cancel_latency_micros,
                  result.status().ToString().c_str());
    } else {
      // The query finished before the cancel landed — report it, but the
      // latency gate below is then vacuous rather than failed.
      std::printf("cancel raced query completion (query %s)\n",
                  result.ok() ? "finished first" : "errored");
    }
  }
  report.Begin("governor_cancel_latency");
  report.Field("canceled_cleanly", canceled_cleanly);
  report.Field("cancel_latency_micros", cancel_latency_micros);
  report.Field("total_overhead_pct", total_overhead_pct);
  report.Flush();

  // The gates.
  if (total_overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "FATAL governor idle overhead %.2f%% exceeds the 2%% gate\n",
                 total_overhead_pct);
    return 1;
  }
  if (canceled_cleanly && cancel_latency_micros > 50'000.0) {
    std::fprintf(stderr,
                 "FATAL cancellation took %.1f us to land (gate: 50 ms)\n",
                 cancel_latency_micros);
    return 1;
  }
  std::printf("PASS: idle overhead %.2f%% (gate 2%%)\n", total_overhead_pct);
  return 0;
}
