#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include <thread>

#include "common/fault_injection.h"
#include "common/governor.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "compress/block_store.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/query_context.h"
#include "testing/reference_oracle.h"
#include "testing/shrink.h"

namespace laws {
namespace testing {
namespace {

std::string RenderCell(const Value& v) {
  if (v.is_double()) {
    const double d = v.dbl();
    if (std::isnan(d)) return std::signbit(d) ? "-NaN" : "NaN";
    if (d == 0.0 && std::signbit(d)) return "-0.0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
  }
  if (v.is_string()) return "'" + v.str() + "'";
  return v.ToString();
}

std::string RenderRow(const Table& t, size_t row) {
  std::string out = "(";
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c > 0) out += ", ";
    out += RenderCell(t.GetValue(row, c));
  }
  return out + ")";
}

/// Bit-identity encoding of one row: every NaN folds to one class,
/// -0.0 keeps its sign bit (§11 output identity).
std::string EncodeRow(const Table& t, size_t row) {
  std::string key;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Value v = t.GetValue(row, c);
    if (v.is_null()) {
      key.push_back('N');
    } else if (v.is_int64()) {
      const int64_t x = v.int64();
      key.push_back('i');
      key.append(reinterpret_cast<const char*>(&x), sizeof(x));
    } else if (v.is_double()) {
      double x = v.dbl();
      if (std::isnan(x)) x = std::numeric_limits<double>::quiet_NaN();
      key.push_back('d');
      key.append(reinterpret_cast<const char*>(&x), sizeof(x));
    } else if (v.is_bool()) {
      key.push_back(v.boolean() ? 'T' : 'F');
    } else {
      const std::string& s = v.str();
      const uint32_t len = static_cast<uint32_t>(s.size());
      key.push_back('s');
      key.append(reinterpret_cast<const char*>(&len), sizeof(len));
      key.append(s);
    }
  }
  return key;
}

/// Runs `stmt` on the decode path: a joinless statement goes straight to
/// its table, which must carry no block index; a join's result is never
/// indexed.
Result<Table> ExecuteDecoded(const Catalog& catalog,
                             const SelectStatement& stmt) {
  if (!stmt.join_table.empty()) return ExecuteSelect(catalog, stmt);
  LAWS_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(stmt.from_table));
  return ExecuteSelectOnTable(*table, stmt);
}

/// Indexes every table of `catalog` at a deliberately tiny block size, so
/// the fuzzer's small tables span many blocks and the compressed tier's
/// prune/take machinery genuinely engages instead of degenerating to one
/// block. ExecuteSelect then finds these indexes installed and keeps them.
void IndexForCompressedLegs(const Catalog& catalog) {
  for (const std::string& name : catalog.ListTables()) {
    if (Result<TablePtr> t = catalog.Get(name); t.ok()) {
      EnsureBlockIndex(*t, 8);
    }
  }
}

}  // namespace

bool TablesEquivalent(const Table& a, const Table& b, bool order_sensitive,
                      std::string* why) {
  if (a.num_columns() != b.num_columns()) {
    *why = "column count " + std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_columns());
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Field& fa = a.schema().field(c);
    const Field& fb = b.schema().field(c);
    if (fa.name != fb.name || fa.type != fb.type) {
      *why = "schema differs at column " + std::to_string(c) + ": " +
             fa.name + " " + std::string(DataTypeToString(fa.type)) +
             " vs " + fb.name + " " +
             std::string(DataTypeToString(fb.type));
      return false;
    }
  }
  if (a.num_rows() != b.num_rows()) {
    *why = "row count " + std::to_string(a.num_rows()) + " vs " +
           std::to_string(b.num_rows());
    return false;
  }
  std::vector<std::pair<std::string, size_t>> ka, kb;
  ka.reserve(a.num_rows());
  kb.reserve(b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    ka.emplace_back(EncodeRow(a, r), r);
    kb.emplace_back(EncodeRow(b, r), r);
  }
  if (!order_sensitive) {
    std::stable_sort(ka.begin(), ka.end());
    std::stable_sort(kb.begin(), kb.end());
  }
  for (size_t i = 0; i < ka.size(); ++i) {
    if (ka[i].first != kb[i].first) {
      *why = std::string(order_sensitive ? "row " : "multiset row ") +
             std::to_string(i) + " differs: " + RenderRow(a, ka[i].second) +
             " vs " + RenderRow(b, kb[i].second);
      return false;
    }
  }
  return true;
}

CaseDiff DiffCase(const std::vector<GenTable>& tables,
                  const SelectStatement& stmt) {
  CaseDiff out;
  Result<Catalog> catalog = MaterializeCatalog(tables);
  if (!catalog.ok()) {
    out.reason = "harness: materialize failed: " + catalog.status().ToString();
    return out;
  }

  const OracleResult oracle = OracleExecuteSelect(*catalog, stmt);

  // Per-tier matrix: the executor at 1 thread on the decode path is the
  // reference the oracle is checked against. It must also match itself
  // bit-for-bit at the default pool width, and the compressed scan tier
  // (zone-map pruning and taking in front of the VM + encoded
  // aggregation) must match it at both widths. Every comparison is
  // against bytecode@1 so a single diverging tier is named directly. The
  // decode legs run while the fresh catalog's tables carry no index.
  ThreadPool::SetGlobalThreadCount(1);
  const Result<Table> exec1 = ExecuteDecoded(*catalog, stmt);
  ThreadPool::SetGlobalThreadCount(0);
  const Result<Table> byten = ExecuteDecoded(*catalog, stmt);
  IndexForCompressedLegs(*catalog);
  const Result<Table> comp_byten = ExecuteSelect(*catalog, stmt);
  ThreadPool::SetGlobalThreadCount(1);
  const Result<Table> comp_byte1 = ExecuteSelect(*catalog, stmt);
  ThreadPool::SetGlobalThreadCount(0);

  const auto tier_divergence =
      [&](const char* name, const Result<Table>& other) -> std::string {
    if (exec1.ok() != other.ok()) {
      return std::string("executor tier divergence (bytecode@1 vs ") + name +
             "): bytecode@1 " +
             (exec1.ok() ? std::string("OK") : exec1.status().ToString()) +
             " vs " +
             (other.ok() ? std::string("OK") : other.status().ToString());
    }
    if (exec1.ok()) {
      std::string why;
      if (!TablesEquivalent(*exec1, *other, /*order_sensitive=*/true, &why)) {
        return std::string("executor tier divergence (bytecode@1 vs ") +
               name + "): " + why;
      }
    }
    return std::string();
  };
  out.reason = tier_divergence("bytecode@N", byten);
  if (!out.reason.empty()) return out;
  out.reason = tier_divergence("compressed+bytecode@1", comp_byte1);
  if (!out.reason.empty()) return out;
  out.reason = tier_divergence("compressed+bytecode@N", comp_byten);
  if (!out.reason.empty()) return out;

  if (!oracle.status.ok() && !exec1.ok()) {
    // Error-ness agrees; messages may legitimately differ.
    out.agreed_error = true;
    return out;
  }
  if (oracle.status.ok() != exec1.ok()) {
    out.reason = "error-ness mismatch: oracle " +
                 (oracle.status.ok() ? std::string("OK")
                                     : oracle.status.ToString()) +
                 " vs executor " +
                 (exec1.ok() ? std::string("OK") : exec1.status().ToString());
    return out;
  }

  std::string why;
  if (!TablesEquivalent(oracle.table, *exec1, oracle.order_total, &why)) {
    out.reason = std::string("result mismatch (") +
                 (oracle.order_total ? "ordered" : "multiset") +
                 "): oracle vs executor: " + why;
    return out;
  }
  return out;
}

std::string DiffReport::Summary() const {
  std::string out = std::to_string(queries) + " queries: " +
                    std::to_string(agree_rows) + " agreed on rows, " +
                    std::to_string(agree_errors) + " agreed on errors, " +
                    std::to_string(parse_failures) + " parse failures, " +
                    std::to_string(mismatches.size()) + " mismatches";
  for (const DiffMismatch& m : mismatches) {
    out += "\n--- mismatch (replay with LAWS_FUZZ_SEED=" +
           std::to_string(m.case_seed) + " LAWS_FUZZ_QUERIES=1) ---\n";
    out += "sql:    " + m.sql + "\n";
    out += "reason: " + m.reason + "\n";
    if (!m.shrunk_sql.empty()) out += "shrunk: " + m.shrunk_sql + "\n";
    if (!m.shrunk_tables.empty()) out += m.shrunk_tables;
  }
  return out;
}

DiffReport RunDifferential(const DiffOptions& opts) {
  DiffReport report;
  for (size_t i = 0; i < opts.num_queries; ++i) {
    const uint64_t case_seed = opts.seed + i;
    GeneratedCase gc = GenerateCase(case_seed);
    ++report.queries;

    Result<SelectStatement> stmt = ParseSelect(gc.sql);
    if (!stmt.ok()) {
      ++report.parse_failures;
      DiffMismatch m;
      m.case_seed = case_seed;
      m.sql = gc.sql;
      m.reason = "generator emitted unparsable SQL: " +
                 stmt.status().ToString();
      report.mismatches.push_back(std::move(m));
      if (report.mismatches.size() >= opts.max_reported) break;
      continue;
    }

    CaseDiff diff = DiffCase(gc.tables, *stmt);
    if (diff.reason.empty()) {
      if (diff.agreed_error) {
        ++report.agree_errors;
      } else {
        ++report.agree_rows;
      }
      continue;
    }

    DiffMismatch m;
    m.case_seed = case_seed;
    m.sql = gc.sql;
    m.reason = diff.reason;

    std::vector<GenTable> shrunk_tables = gc.tables;
    SelectStatement shrunk_stmt = CloneStatement(*stmt);
    ShrinkCase(
        &shrunk_tables, &shrunk_stmt,
        [](const std::vector<GenTable>& t, const SelectStatement& s) {
          return !DiffCase(t, s).reason.empty();
        },
        opts.shrink_budget);
    m.shrunk_sql = shrunk_stmt.ToString();
    for (const GenTable& t : shrunk_tables) m.shrunk_tables += t.ToString();

    report.mismatches.push_back(std::move(m));
    if (report.mismatches.size() >= opts.max_reported) break;
  }
  // Leave the global pool at its default width for whatever runs next.
  ThreadPool::SetGlobalThreadCount(0);
  return report;
}

std::string ChaosReport::Summary() const {
  std::string out = std::to_string(queries) + " chaos cases: " +
                    std::to_string(completed_identical) +
                    " completed bit-identical, " +
                    std::to_string(governor_stopped) +
                    " stopped by the governor, " +
                    std::to_string(agreed_errors) + " agreed errors, " +
                    std::to_string(violations.size()) + " violations";
  for (const std::string& v : violations) out += "\n--- violation ---\n" + v;
  return out;
}

ChaosReport RunGovernorChaos(const ChaosOptions& opts) {
  ChaosReport report;

  for (size_t i = 0; i < opts.num_queries; ++i) {
    const uint64_t case_seed = opts.seed + i;
    // Salt the regime stream so it does not mirror the generator's.
    Rng rng(case_seed * 0x9E3779B97F4A7C15ull + 1);
    GeneratedCase gc = GenerateCase(case_seed);
    ++report.queries;

    const auto violation = [&](const std::string& what) {
      report.violations.push_back(
          "seed " + std::to_string(case_seed) +
          " (replay with LAWS_CHAOS_SEED=" + std::to_string(case_seed) +
          " LAWS_CHAOS_QUERIES=1)\nsql:    " + gc.sql + "\nreason: " + what);
    };

    Result<SelectStatement> stmt = ParseSelect(gc.sql);
    if (!stmt.ok()) {
      violation("generator emitted unparsable SQL: " +
                stmt.status().ToString());
      if (report.violations.size() >= opts.max_reported) break;
      continue;
    }
    Result<Catalog> catalog = MaterializeCatalog(gc.tables);
    if (!catalog.ok()) {
      violation("harness: materialize failed: " + catalog.status().ToString());
      if (report.violations.size() >= opts.max_reported) break;
      continue;
    }

    // Random execution tier, shared by the reference and the governed run
    // so bit-identity is compared apples-to-apples.
    const bool compressed = rng.UniformInt(0, 1) == 1;
    if (compressed) IndexForCompressedLegs(*catalog);
    const auto execute = [&] {
      return compressed ? ExecuteSelect(*catalog, *stmt)
                        : ExecuteDecoded(*catalog, *stmt);
    };
    ThreadPool::SetGlobalThreadCount(rng.UniformInt(0, 1) == 1 ? 1 : 0);

    const Result<Table> reference = execute();

    // Draw a governor regime.
    enum Regime {
      kPreCancel = 0,
      kAsyncCancel,
      kDeadline,
      kBudget,
      kPollFault,
      kAllocFault,
      kRegimeCount
    };
    const int regime = static_cast<int>(rng.UniformInt(0, kRegimeCount - 1));
    ResourceLimits limits;
    if (regime == kDeadline) {
      // Tiny deadlines trip on the first poll; generous ones let the
      // query complete — both sides of the invariant get exercised.
      static const int64_t kDeadlines[] = {1, 100, 5000, 1000000};
      limits.timeout_micros = kDeadlines[rng.UniformInt(0, 3)];
    } else if (regime == kBudget) {
      static const uint64_t kBudgets[] = {1, 512, 64ull << 10, 64ull << 20};
      limits.memory_budget_bytes = kBudgets[rng.UniformInt(0, 3)];
    } else if (regime == kPollFault || regime == kAllocFault) {
      FaultSpec spec;
      spec.kind = FaultSpec::Kind::kError;
      spec.skip_hits = static_cast<uint64_t>(rng.UniformInt(0, 40));
      spec.max_triggers = 1;
      FaultInjector::Instance().Arm(
          regime == kPollFault ? "governor/poll" : "governor/alloc", spec);
    }

    QueryContext ctx(limits);
    if (regime == kPreCancel) ctx.Cancel();
    std::thread canceler;
    if (regime == kAsyncCancel) {
      const int64_t delay_us = rng.UniformInt(0, 200);
      canceler = std::thread([&ctx, delay_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        ctx.Cancel();
      });
    }
    const Result<Table> governed = ctx.Run(execute);
    if (canceler.joinable()) canceler.join();
    FaultInjector::Instance().DisarmAll();

    // The invariant: a clean governor stop, a bit-identical completion,
    // or an error both runs agree on. Anything else is a bug.
    if (!governed.ok() && IsGovernorStatusCode(governed.status().code())) {
      ++report.governor_stopped;
    } else if (governed.ok() && reference.ok()) {
      std::string why;
      if (TablesEquivalent(*reference, *governed, /*order_sensitive=*/true,
                           &why)) {
        ++report.completed_identical;
      } else {
        violation("governed run diverged from ungoverned reference: " + why);
      }
    } else if (!governed.ok() && !reference.ok()) {
      ++report.agreed_errors;
    } else if (governed.ok()) {
      violation("governed run succeeded where the reference failed: " +
                reference.status().ToString());
    } else {
      violation("governed run failed with a non-governor error the "
                "reference did not raise: " +
                governed.status().ToString());
    }
    if (report.violations.size() >= opts.max_reported) break;
  }

  ThreadPool::SetGlobalThreadCount(0);
  return report;
}

}  // namespace testing
}  // namespace laws
