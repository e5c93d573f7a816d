// Compressed-domain scan benchmark: block-partitioned columns with zone
// maps (DESIGN.md §14) vs the decode-then-bytecode baseline on a 1M-row
// table.
//
// Two shapes, each one claim of the compressed tier:
//   zonemap_filter  selective predicate on a clustered column -> whole
//                   blocks pruned by zone maps before any row is touched;
//                   the VM evaluates only the undecided blocks
//   encoded_agg     global SUM/COUNT/MIN/MAX/AVG: COUNT/MIN/MAX folded
//                   from zone maps, SUM/AVG summed block by block under
//                   the exactness proof
//
// The decode legs run on an unindexed copy of the table. Results must be
// bit-identical to the decode path (checked here); the compressed tier
// must then win by >= 3x on the zone-map filter and >= 2x on the encoded
// aggregate at the default row count — the perf gates, enforced as shape
// checks like every other bench FATAL.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "compress/block_store.h"
#include "query/compressed_scan.h"
#include "query/executor.h"
#include "query/expr_eval.h"
#include "query/parser.h"
#include "storage/table.h"

namespace {

using namespace laws;
using namespace laws::bench;

// Deterministic splitmix64 so the value column is salted: irregular
// magnitudes, no accidental patterns beyond the runs we plant on purpose.
uint64_t Mix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// A sensor-log shaped table (the paper's natural-data setting):
//   ts   int64, clustered (append order) -> tight disjoint zone ranges
//   v    int64, a reading in [0, 97) held for 512 rows -> exact-sum guard
//        holds
TablePtr MakeSensorTable(size_t rows) {
  uint64_t seed = 0x5CA1AB1Eull;
  std::vector<int64_t> ts(rows), v(rows);
  int64_t reading = 0;
  for (size_t i = 0; i < rows; ++i) {
    ts[i] = static_cast<int64_t>(i);
    if (i % 512 == 0) reading = static_cast<int64_t>(Mix(seed) % 97);
    v[i] = reading;
  }
  Column ts_c(DataType::kInt64, /*nullable=*/false);
  Column v_c(DataType::kInt64, /*nullable=*/false);
  ts_c.AppendInt64Batch(ts.data(), nullptr, rows);
  v_c.AppendInt64Batch(v.data(), nullptr, rows);
  Schema schema({Field{"ts", DataType::kInt64, false},
                 Field{"v", DataType::kInt64, false}});
  std::vector<Column> cols;
  cols.push_back(std::move(ts_c));
  cols.push_back(std::move(v_c));
  return std::make_shared<Table>(Unwrap(
      Table::FromColumns(std::move(schema), std::move(cols)), "build table"));
}

template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

bool SameDoubleBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  uint64_t ba, bb;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ba == bb;
}

bool TablesIdentical(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      const Value va = a.GetValue(r, c);
      const Value vb = b.GetValue(r, c);
      if (va.is_null() != vb.is_null()) return false;
      if (va.is_null()) continue;
      if (va.is_double() != vb.is_double()) return false;
      if (va.is_double()) {
        if (!SameDoubleBits(va.dbl(), vb.dbl())) return false;
      } else if (va.ToString() != vb.ToString()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Banner("Compressed-domain scans: zone-map pruning + encoded aggregation "
         "vs decode-then-bytecode",
         "operating on the encoded form should beat decoding: >= 3x on a "
         "selective clustered filter, >= 2x on a global aggregate");

  size_t rows = 1'000'000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0) {
      rows = static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  const int reps = 5;
  // Gates only apply at meaningful scale: tiny --rows runs (sanitizer
  // smoke) are dominated by setup overhead.
  const bool enforce_gate = rows >= 256 * 1024;

  std::printf("sensor table: %zu rows (ts: clustered int64, v: reading "
              "held for 512 rows), block=%zu rows\n\n",
              rows, kDefaultBlockRows);
  const TablePtr table = MakeSensorTable(rows);
  const Table unindexed = *table;  // the decode legs' copy
  ThreadPool::SetGlobalThreadCount(1);

  Timer build_timer;
  EnsureBlockIndex(table);
  const double build_s = build_timer.ElapsedSeconds();
  std::printf("block index build (one-time, amortized across queries): "
              "%.4f s\n\n", build_s);

  JsonReport json(JsonPathFromArgs(argc, argv));
  bool gate_failed = false;

  struct CaseRow {
    const char* name;
    double decode_s;
    double compressed_s;
    double min_speedup;  // 0 = informational
  };
  std::vector<CaseRow> table_rows;

  auto record = [&](const char* name, double dec, double comp,
                    double min_speedup) {
    table_rows.push_back({name, dec, comp, min_speedup});
    json.Begin(std::string("compressed_scan_") + name);
    json.Field("rows", rows);
    ThreadSweepFields(json, 1);
    json.Field("decode_seconds", dec);
    json.Field("compressed_seconds", comp);
    json.Field("speedup", comp > 0.0 ? dec / comp : 0.0);
    json.Field("min_speedup", min_speedup);
  };

  // --- zonemap_filter: selective predicate on the clustered column ------
  // Selects the last ~1% of rows; every other block's zone range excludes
  // the cutoff, so pruning must discard ~99% of blocks untouched. Decode
  // = the bytecode VM over every row; compressed = zone-map prune and take
  // with the VM over the undecided block. The selections must be
  // identical index-for-index.
  {
    char sql[128];
    std::snprintf(sql, sizeof(sql),
                  "SELECT ts FROM t WHERE ts >= %zu", rows - rows / 100 - 1);
    auto stmt = Unwrap(ParseSelect(sql), "parse filter");
    const Expr& pred = *stmt.where;
    std::vector<uint32_t> dec_sel, comp_sel;
    const double dec = BestSeconds(reps, [&] {
      dec_sel = Unwrap(FilterRows(pred, unindexed), "decode filter");
    });
    ScanStats stats;
    const double comp = BestSeconds(reps, [&] {
      auto sel = Unwrap(CompressedFilterRows(pred, *table, &stats),
                        "compressed filter");
      if (!sel.has_value()) {
        std::fprintf(stderr, "FATAL: compressed tier declined %s\n", sql);
        std::exit(1);
      }
      comp_sel = std::move(*sel);
    });
    if (dec_sel != comp_sel) {
      std::fprintf(stderr, "FATAL: zonemap_filter selection diverged "
                   "(decode %zu rows, compressed %zu rows)\n",
                   dec_sel.size(), comp_sel.size());
      return 1;
    }
    std::printf("%-14s %zu of %zu rows selected, identical on both paths "
                "(blocks=%zu pruned=%zu taken=%zu)\n",
                "zonemap_filter", comp_sel.size(), rows, stats.blocks_total,
                stats.blocks_pruned, stats.blocks_taken);
    record("zonemap_filter", dec, comp, 3.0);
    if (enforce_gate && stats.blocks_pruned * 10 < stats.blocks_total * 9) {
      std::fprintf(stderr, "FATAL: zone maps pruned only %zu of %zu blocks "
                   "on a 1%% selective clustered predicate\n",
                   stats.blocks_pruned, stats.blocks_total);
      return 1;
    }
  }

  // --- encoded_agg: global aggregate folded from zone maps --------------
  {
    auto stmt = Unwrap(ParseSelect(
        "SELECT SUM(v), COUNT(v), MIN(v), MAX(v), AVG(v) FROM t"),
        "parse aggregate");
    Table dec_out{Schema{}}, comp_out{Schema{}};
    const double dec = BestSeconds(reps, [&] {
      dec_out = Unwrap(ExecuteSelectOnTable(unindexed, stmt), "decode agg");
    });
    Counter* encoded = MetricsRegistry::Global().GetCounter("scan.encoded_agg");
    const uint64_t encoded_before = encoded->value();
    const double comp = BestSeconds(reps, [&] {
      comp_out = Unwrap(ExecuteSelectOnTable(*table, stmt), "compressed agg");
    });
    if (encoded->value() == encoded_before) {
      std::fprintf(stderr, "FATAL: encoded aggregation never engaged "
                   "(scan.encoded_agg unchanged) — measuring decode twice\n");
      return 1;
    }
    if (!TablesIdentical(dec_out, comp_out)) {
      std::fprintf(stderr, "FATAL: aggregate result diverged between decode "
                   "and encoded paths\n");
      return 1;
    }
    std::printf("%-14s SUM/COUNT/MIN/MAX/AVG bit-identical on both paths\n\n",
                "encoded_agg");
    record("encoded_agg", dec, comp, 2.0);
  }

  std::printf("%-14s %12s %14s %9s %8s\n", "case", "decode s",
              "compressed s", "speedup", "gate");
  for (const CaseRow& r : table_rows) {
    const double speedup =
        r.compressed_s > 0.0 ? r.decode_s / r.compressed_s : 0.0;
    const bool gated = r.min_speedup > 0.0;
    const bool pass = !gated || !enforce_gate || speedup >= r.min_speedup;
    std::printf("%-14s %12.4f %14.4f %8.2fx %8s\n", r.name, r.decode_s,
                r.compressed_s, speedup,
                gated ? (enforce_gate ? (pass ? "PASS" : "FAIL") : "skipped")
                      : "-");
    if (!pass) gate_failed = true;
  }

  MetricsFields(json);
  json.Flush();
  ThreadPool::SetGlobalThreadCount(0);

  if (gate_failed) {
    std::fprintf(stderr, "\nFATAL: compressed tier under its speedup floor "
                 "on a gated case — zone maps / encoded folds are not "
                 "earning their keep\n");
    return 1;
  }
  std::printf("\nSHAPE OK: compressed scans >= 3x on zone-map filter, "
              ">= 2x on encoded aggregate%s\n",
              enforce_gate ? "" : " (gates skipped at reduced --rows)");
  return 0;
}
