#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>

#include "aqp/hybrid.h"
#include "aqp/model_aqp.h"
#include "common/env.h"
#include "common/fault_injection.h"
#include "common/governor.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "query/executor.h"
#include "query/query_context.h"
#include "storage/catalog.h"

namespace laws {
namespace {

// --- Env knob parsing ---------------------------------------------------

TEST(EnvTest, ParseInt64StrictAcceptsOnlyCleanIntegers) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64Strict("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64Strict("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt64Strict("+5", &v));
  EXPECT_EQ(v, 5);

  v = 99;
  EXPECT_FALSE(ParseInt64Strict(nullptr, &v));
  EXPECT_FALSE(ParseInt64Strict("", &v));
  EXPECT_FALSE(ParseInt64Strict(" 42", &v));   // leading whitespace
  EXPECT_FALSE(ParseInt64Strict("42 ", &v));   // trailing whitespace
  EXPECT_FALSE(ParseInt64Strict("4096abc", &v));  // the old atol trap
  EXPECT_FALSE(ParseInt64Strict("0x10", &v));
  EXPECT_FALSE(ParseInt64Strict("1e3", &v));
  EXPECT_FALSE(ParseInt64Strict("99999999999999999999", &v));  // overflow
  EXPECT_EQ(v, 99) << "failed parse must not write the output";
}

TEST(EnvTest, ParseFlagValueSemantics) {
  EXPECT_FALSE(ParseFlagValue("0", true));
  EXPECT_FALSE(ParseFlagValue("false", true));
  EXPECT_FALSE(ParseFlagValue("FALSE", true));
  EXPECT_FALSE(ParseFlagValue("off", true));
  EXPECT_FALSE(ParseFlagValue("Off", true));
  EXPECT_TRUE(ParseFlagValue("1", false));
  EXPECT_TRUE(ParseFlagValue("yes", false));
  EXPECT_TRUE(ParseFlagValue("on", false));
  // Unset / empty keep the default.
  EXPECT_TRUE(ParseFlagValue(nullptr, true));
  EXPECT_FALSE(ParseFlagValue(nullptr, false));
  EXPECT_TRUE(ParseFlagValue("", true));
}

/// Every integer LAWS_* knob must survive a malformed value by falling
/// back to its default instead of silently misreading it.
TEST(EnvTest, MalformedIntegerKnobsFallBackToDefault) {
  const char* knobs[] = {"LAWS_THREADS", "LAWS_QUERY_TIMEOUT_MS",
                         "LAWS_QUERY_MEMBUDGET_MB"};
  const char* malformed[] = {"junk", "4096abc", " 8", "1e3", "0x10",
                             "99999999999999999999"};
  for (const char* knob : knobs) {
    for (const char* value : malformed) {
      ASSERT_EQ(setenv(knob, value, 1), 0);
      ResetEnvWarningsForTest();
      EXPECT_EQ(EnvInt64(knob, 1234, 0, int64_t{1} << 40), 1234)
          << knob << "=" << value;
    }
    ASSERT_EQ(setenv(knob, "8", 1), 0);
    EXPECT_EQ(EnvInt64(knob, 1234, 0, int64_t{1} << 40), 8) << knob;
    // Out of the caller's declared range is treated as malformed too.
    ASSERT_EQ(setenv(knob, "-3", 1), 0);
    ResetEnvWarningsForTest();
    EXPECT_EQ(EnvInt64(knob, 1234, 0, int64_t{1} << 40), 1234) << knob;
    ASSERT_EQ(unsetenv(knob), 0);
    EXPECT_EQ(EnvInt64(knob, 1234, 0, int64_t{1} << 40), 1234) << knob;
  }
}

/// Flag knobs: "0"/"false"/"off" disable, anything else non-empty
/// enables, unset keeps the default.
TEST(EnvTest, FlagKnobSemanticsPerKnob) {
  const char* knobs[] = {"LAWS_TRACE"};
  for (const char* knob : knobs) {
    ASSERT_EQ(setenv(knob, "0", 1), 0);
    EXPECT_FALSE(EnvFlag(knob, true)) << knob;
    ASSERT_EQ(setenv(knob, "off", 1), 0);
    EXPECT_FALSE(EnvFlag(knob, true)) << knob;
    ASSERT_EQ(setenv(knob, "1", 1), 0);
    EXPECT_TRUE(EnvFlag(knob, false)) << knob;
    ASSERT_EQ(unsetenv(knob), 0);
    EXPECT_TRUE(EnvFlag(knob, true)) << knob;
    EXPECT_FALSE(EnvFlag(knob, false)) << knob;
  }
}

TEST(EnvTest, LimitsFromEnvConvertsUnitsAndSurvivesGarbage) {
  ASSERT_EQ(setenv("LAWS_QUERY_TIMEOUT_MS", "250", 1), 0);
  ASSERT_EQ(setenv("LAWS_QUERY_MEMBUDGET_MB", "2", 1), 0);
  ResourceLimits limits = QueryContext::LimitsFromEnv();
  EXPECT_EQ(limits.timeout_micros, 250000);
  EXPECT_EQ(limits.memory_budget_bytes, 2ull * 1024 * 1024);

  ASSERT_EQ(setenv("LAWS_QUERY_TIMEOUT_MS", "250ms", 1), 0);
  ASSERT_EQ(setenv("LAWS_QUERY_MEMBUDGET_MB", "-1", 1), 0);
  ResetEnvWarningsForTest();
  limits = QueryContext::LimitsFromEnv();
  EXPECT_EQ(limits.timeout_micros, 0);
  EXPECT_EQ(limits.memory_budget_bytes, 0u);

  ASSERT_EQ(unsetenv("LAWS_QUERY_TIMEOUT_MS"), 0);
  ASSERT_EQ(unsetenv("LAWS_QUERY_MEMBUDGET_MB"), 0);
  limits = QueryContext::LimitsFromEnv();
  EXPECT_EQ(limits.timeout_micros, 0);
  EXPECT_EQ(limits.memory_budget_bytes, 0u);
}

// --- Governor core ------------------------------------------------------

TEST(GovernorTest, UnlimitedGovernorPollsOkAndCounts) {
  QueryGovernor gov;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(gov.Poll().ok());
  EXPECT_EQ(gov.polls(), 5u);
  EXPECT_FALSE(gov.canceled());
}

TEST(GovernorTest, CancelIsStickyIdempotentAndCounted) {
  Counter* canceled = MetricsRegistry::Global().GetCounter("governor.canceled");
  const uint64_t before = canceled->value();

  QueryGovernor gov;
  gov.Cancel();
  gov.Cancel();  // idempotent
  EXPECT_TRUE(gov.canceled());
  Status s = gov.Poll();
  EXPECT_EQ(s.code(), StatusCode::kCanceled);
  // Sticky: polls keep failing, but the observation is recorded once.
  EXPECT_EQ(gov.Poll().code(), StatusCode::kCanceled);
  EXPECT_EQ(canceled->value(), before + 1);
}

TEST(GovernorTest, DeadlineTripsAndIsSticky) {
  ResourceLimits limits;
  limits.timeout_micros = 1;
  QueryGovernor gov(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(gov.Poll().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gov.Poll().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(gov.canceled());
}

TEST(GovernorTest, GenerousDeadlinePollsOk) {
  ResourceLimits limits;
  limits.timeout_micros = 60 * 1000 * 1000;
  QueryGovernor gov(limits);
  EXPECT_TRUE(gov.Poll().ok());
}

TEST(GovernorTest, ChargeTracksPeakAndRollsBackOnOverflow) {
  ResourceLimits limits;
  limits.memory_budget_bytes = 1000;
  QueryGovernor gov(limits);

  EXPECT_TRUE(gov.Charge(600, "a").ok());
  EXPECT_EQ(gov.bytes_in_use(), 600u);
  Status s = gov.Charge(600, "b");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.ToString().find("query memory budget exceeded"),
            std::string::npos)
      << s.ToString();
  // The failed charge rolled back: accounting stays symmetric.
  EXPECT_EQ(gov.bytes_in_use(), 600u);
  EXPECT_TRUE(gov.Charge(400, "c").ok());
  EXPECT_EQ(gov.bytes_in_use(), 1000u);
  gov.Release(400);
  gov.Release(600);
  EXPECT_EQ(gov.bytes_in_use(), 0u);
  EXPECT_GE(gov.peak_bytes(), 1000u);
}

TEST(GovernorTest, ScopedChargeAccumulatesAndReleasesOnDestruction) {
  QueryGovernor gov;
  ScopedGovernor install(&gov);
  {
    ScopedCharge charge;
    EXPECT_TRUE(charge.Acquire(100, "x").ok());
    EXPECT_TRUE(charge.Acquire(50, "y").ok());
    EXPECT_EQ(charge.held_bytes(), 150u);
    EXPECT_EQ(gov.bytes_in_use(), 150u);
  }
  EXPECT_EQ(gov.bytes_in_use(), 0u);
  EXPECT_EQ(gov.peak_bytes(), 150u);
}

TEST(GovernorTest, ScopedChargeWithoutGovernorIsNoop) {
  ASSERT_EQ(QueryGovernor::Current(), nullptr);
  ScopedCharge charge;
  EXPECT_TRUE(charge.Acquire(1 << 20, "nothing").ok());
  EXPECT_EQ(charge.held_bytes(), 0u);
}

TEST(GovernorTest, ScopedGovernorNestsAndRestores) {
  EXPECT_EQ(QueryGovernor::Current(), nullptr);
  QueryGovernor outer, inner;
  {
    ScopedGovernor a(&outer);
    EXPECT_EQ(QueryGovernor::Current(), &outer);
    {
      ScopedGovernor b(&inner);
      EXPECT_EQ(QueryGovernor::Current(), &inner);
      {
        // nullptr is a shield: uninstalls for the scope.
        ScopedGovernor c(nullptr);
        EXPECT_EQ(QueryGovernor::Current(), nullptr);
      }
      EXPECT_EQ(QueryGovernor::Current(), &inner);
    }
    EXPECT_EQ(QueryGovernor::Current(), &outer);
  }
  EXPECT_EQ(QueryGovernor::Current(), nullptr);
}

Status PollThroughMacro() {
  LAWS_GOVERNOR_POLL();
  return Status::OK();
}

TEST(GovernorTest, PollMacroReturnsTypedErrorFromEnclosingFunction) {
  EXPECT_TRUE(PollThroughMacro().ok());  // no governor installed
  QueryGovernor gov;
  ScopedGovernor install(&gov);
  EXPECT_TRUE(PollThroughMacro().ok());
  gov.Cancel();
  EXPECT_EQ(PollThroughMacro().code(), StatusCode::kCanceled);
}

TEST(GovernorTest, DescribeLineRendersLimitsAndTrip) {
  ResourceLimits limits;
  limits.timeout_micros = 1500;
  limits.memory_budget_bytes = 4096;
  QueryGovernor gov(limits);
  std::string line = gov.DescribeLine();
  EXPECT_NE(line.find("governor: deadline=1.500ms budget=4096B"),
            std::string::npos)
      << line;
  gov.Cancel();
  (void)gov.Poll();
  EXPECT_NE(gov.DescribeLine().find("tripped=canceled"), std::string::npos);
}

// --- Governor across the thread pool ------------------------------------

TEST(GovernorParallelTest, WorkersSeeTheInstalledGovernor) {
  QueryGovernor gov;
  ScopedGovernor install(&gov);
  std::atomic<bool> all_saw{true};
  std::atomic<size_t> visited{0};
  ParallelForChunks(0, 100000, [&](size_t lo, size_t hi) {
    if (QueryGovernor::Current() != &gov) all_saw.store(false);
    visited.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_TRUE(all_saw.load());
  EXPECT_EQ(visited.load(), 100000u);
}

TEST(GovernorParallelTest, CanceledGovernorSkipsEveryChunk) {
  QueryGovernor gov;
  ScopedGovernor install(&gov);
  gov.Cancel();
  std::atomic<size_t> visited{0};
  ParallelForChunks(0, 100000, [&](size_t lo, size_t hi) {
    visited.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(visited.load(), 0u)
      << "chunks of a canceled query must not run";
  // The caller's re-poll after the barrier surfaces the sticky error.
  EXPECT_EQ(gov.Poll().code(), StatusCode::kCanceled);
}

TEST(GovernorParallelTest, NestedParallelForSkipsUnderCancellation) {
  QueryGovernor gov;
  ScopedGovernor install(&gov);
  gov.Cancel();
  std::atomic<size_t> inner_visited{0};
  ParallelForChunks(0, 1000, [&](size_t, size_t) {
    // Inner region runs inline on the worker; it must also be skipped.
    ParallelForChunks(0, 1000, [&](size_t lo, size_t hi) {
      inner_visited.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_visited.load(), 0u);
}

TEST(GovernorParallelTest, MidFlightCancelStopsRemainingWork) {
  QueryGovernor gov;
  ScopedGovernor install(&gov);
  std::atomic<size_t> polls_failed{0};
  std::thread canceler([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    gov.Cancel();
  });
  // Long cooperative loop: every chunk re-polls; once the cancel lands,
  // remaining iterations observe it.
  ParallelForChunks(0, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      if (QueryGovernor* g = QueryGovernor::Current()) {
        if (!g->Poll().ok()) {
          polls_failed.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    }
  });
  canceler.join();
  EXPECT_EQ(gov.Poll().code(), StatusCode::kCanceled);
  EXPECT_TRUE(gov.canceled());
}

// --- Governed query execution -------------------------------------------

Catalog MakeQueryCatalog(size_t rows = 512) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"id", DataType::kInt64, false},
              Field{"v", DataType::kDouble, false},
              Field{"tag", DataType::kString, false}}));
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t->AppendRow({Value::Int64(static_cast<int64_t>(i)),
                              Value::Double(static_cast<double>(i) * 0.5),
                              Value::String(i % 2 == 0 ? "even" : "odd")})
                    .ok());
  }
  cat.RegisterOrReplace("t", t);
  return cat;
}

const char kGovernedSql[] =
    "SELECT tag, COUNT(v), SUM(v) FROM t WHERE id >= 10 GROUP BY tag "
    "ORDER BY tag";

TEST(GovernedQueryTest, UnlimitedGovernorMatchesUngovernedRun) {
  Catalog cat = MakeQueryCatalog();
  auto plain = ExecuteQuery(cat, kGovernedSql);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto governed = ExecuteQueryGoverned(cat, kGovernedSql, ResourceLimits{});
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ(plain->ToString(64), governed->ToString(64));
}

TEST(GovernedQueryTest, PreCanceledContextReturnsCanceled) {
  Catalog cat = MakeQueryCatalog();
  QueryContext ctx{ResourceLimits{}};
  ctx.Cancel();
  auto result = ctx.Run([&] { return ExecuteQuery(cat, kGovernedSql); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCanceled);
}

TEST(GovernedQueryTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  Catalog cat = MakeQueryCatalog();
  ResourceLimits limits;
  limits.timeout_micros = 1;
  QueryContext ctx(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto result = ctx.Run([&] { return ExecuteQuery(cat, kGovernedSql); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernedQueryTest, TinyBudgetReturnsResourceExhausted) {
  Catalog cat = MakeQueryCatalog();
  ResourceLimits limits;
  limits.memory_budget_bytes = 1;
  auto result = ExecuteQueryGoverned(cat, kGovernedSql, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(GovernedQueryTest, GovernorErrorLeavesCatalogUsable) {
  Catalog cat = MakeQueryCatalog();
  ResourceLimits limits;
  limits.memory_budget_bytes = 1;
  ASSERT_FALSE(ExecuteQueryGoverned(cat, kGovernedSql, limits).ok());
  // The failed query left nothing torn: the same catalog answers the
  // same query correctly without a governor.
  auto plain = ExecuteQuery(cat, kGovernedSql);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->num_rows(), 2u);
}

TEST(GovernedQueryTest, SortAndDistinctHonorCancellation) {
  Catalog cat = MakeQueryCatalog(2048);
  QueryContext ctx{ResourceLimits{}};
  ctx.Cancel();
  auto sorted = ctx.Run([&] {
    return ExecuteQuery(cat, "SELECT id FROM t ORDER BY v DESC");
  });
  EXPECT_EQ(sorted.status().code(), StatusCode::kCanceled);
  auto distinct = ctx.Run([&] {
    return ExecuteQuery(cat, "SELECT DISTINCT tag FROM t");
  });
  EXPECT_EQ(distinct.status().code(), StatusCode::kCanceled);
}

// ORDER BY ... LIMIT over a million rows takes the top-k path, whose key
// normalization and selection loops poll the governor every stride.
TEST(GovernedQueryTest, TopKSortHonorsCancelAndDeadline) {
  constexpr size_t kRows = size_t{1} << 20;
  std::vector<int64_t> ids(kRows);
  std::vector<double> values(kRows);
  Rng rng(29);
  for (size_t i = 0; i < kRows; ++i) {
    ids[i] = static_cast<int64_t>(i);
    values[i] = rng.NextDouble();
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64Vector(std::move(ids)));
  cols.push_back(Column::FromDoubleVector(std::move(values)));
  auto table = Table::FromColumns(
      Schema({Field{"id", DataType::kInt64, false},
              Field{"v", DataType::kDouble, false}}),
      std::move(cols));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Catalog cat;
  cat.RegisterOrReplace("big", std::make_shared<Table>(std::move(*table)));
  const char* sql = "SELECT id, v FROM big ORDER BY v DESC LIMIT 10";
  auto plain = ExecuteQuery(cat, sql);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->num_rows(), 10u);

  QueryContext canceled{ResourceLimits{}};
  canceled.Cancel();
  auto stopped = canceled.Run([&] { return ExecuteQuery(cat, sql); });
  EXPECT_EQ(stopped.status().code(), StatusCode::kCanceled);
  EXPECT_GT(canceled.governor().polls(), 0u);

  ResourceLimits limits;
  limits.timeout_micros = 1000;
  QueryContext timed(limits);
  auto late = timed.Run([&] { return ExecuteQuery(cat, sql); });
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(timed.governor().polls(), 0u);
}

// GROUP BY over a million interleaved keys at 4 lanes: every grouping
// phase polls the governor, and the partition buffers are charged.
TEST(GovernedQueryTest, GroupByHonorsCancelDeadlineAndBudget) {
  constexpr size_t kRows = size_t{1} << 20;
  std::vector<int64_t> keys(kRows);
  std::vector<double> values(kRows);
  Rng rng(31);
  for (size_t i = 0; i < kRows; ++i) {
    keys[i] = static_cast<int64_t>((i * 7919) % 50000);
    values[i] = rng.NextDouble();
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64Vector(std::move(keys)));
  cols.push_back(Column::FromDoubleVector(std::move(values)));
  auto table = Table::FromColumns(
      Schema({Field{"g", DataType::kInt64, false},
              Field{"v", DataType::kDouble, false}}),
      std::move(cols));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Catalog cat;
  cat.RegisterOrReplace("big", std::make_shared<Table>(std::move(*table)));
  const char* sql = "SELECT g, AVG(v) FROM big GROUP BY g";
  ThreadPool::SetGlobalThreadCount(4);
  auto plain = ExecuteQuery(cat, sql);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->num_rows(), 50000u);

  QueryContext canceled{ResourceLimits{}};
  canceled.Cancel();
  auto stopped = canceled.Run([&] { return ExecuteQuery(cat, sql); });
  EXPECT_EQ(stopped.status().code(), StatusCode::kCanceled);
  EXPECT_GT(canceled.governor().polls(), 0u);

  ResourceLimits deadline;
  deadline.timeout_micros = 1000;
  QueryContext timed(deadline);
  auto late = timed.Run([&] { return ExecuteQuery(cat, sql); });
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(timed.governor().polls(), 0u);

  // The key and argument columns are read in place, so the first charge
  // is the partition buffers (8 MiB), which this budget cannot hold.
  ResourceLimits budget;
  budget.memory_budget_bytes = 4u << 20;
  QueryContext tight(budget);
  auto exhausted = tight.Run([&] { return ExecuteQuery(cat, sql); });
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(exhausted.status().message().find("grouping partitions"),
            std::string::npos)
      << exhausted.status().ToString();
  EXPECT_GT(tight.governor().polls(), 0u);
  EXPECT_EQ(tight.governor().bytes_in_use(), 0u);

  // The stopped queries left the catalog usable: the same answer again.
  auto again = ExecuteQuery(cat, sql);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->ToString(64), plain->ToString(64));
  ThreadPool::SetGlobalThreadCount(0);
}

TEST(GovernedQueryTest, ExplainAnalyzeRendersGovernorLineAndStopLine) {
  Catalog cat = MakeQueryCatalog();
  QueryContext ok_ctx{ResourceLimits{}};
  auto analyzed =
      ok_ctx.Run([&] { return ExplainAnalyzeQuery(cat, kGovernedSql); });
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("governor: deadline=none budget=none"),
            std::string::npos)
      << *analyzed;

  QueryContext canceled_ctx{ResourceLimits{}};
  canceled_ctx.Cancel();
  auto stopped = canceled_ctx.Run(
      [&] { return ExplainAnalyzeQuery(cat, kGovernedSql); });
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_NE(stopped->find("query stopped:"), std::string::npos) << *stopped;
  EXPECT_NE(stopped->find("tripped=canceled"), std::string::npos) << *stopped;
}

// --- Fault-injection sites ----------------------------------------------

class GovernorFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }
};

TEST_F(GovernorFaultTest, PollFaultForcesCancellation) {
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kError;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("governor/poll", spec);
  Catalog cat = MakeQueryCatalog();
  auto result = ExecuteQueryGoverned(cat, kGovernedSql, ResourceLimits{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCanceled);
  EXPECT_GT(FaultInjector::Instance().HitCount("governor/poll"), 0u);
}

TEST_F(GovernorFaultTest, AllocFaultForcesBudgetExhaustion) {
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kError;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("governor/alloc", spec);
  Catalog cat = MakeQueryCatalog();
  auto result = ExecuteQueryGoverned(cat, kGovernedSql, ResourceLimits{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("[injected]"), std::string::npos)
      << result.status().ToString();
}

// --- Fits under the governor --------------------------------------------

TEST(GovernedFitTest, CanceledFitRegistersNoModel) {
  Catalog data;
  ModelCatalog models;
  Rng rng(11);
  auto t = std::make_shared<Table>(
      Schema({Field{"g", DataType::kInt64, false},
              Field{"x", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
  for (int g = 1; g <= 8; ++g) {
    for (int i = 0; i < 32; ++i) {
      const double x = 0.1 + 0.05 * i;
      ASSERT_TRUE(t->AppendRow({Value::Int64(g), Value::Double(x),
                                Value::Double((0.5 + 0.1 * g) *
                                              std::pow(x, -0.7))})
                      .ok());
    }
  }
  data.RegisterOrReplace("obs", t);
  Session session(&data, &models);
  FitRequest request;
  request.table = "obs";
  request.model_source = "power_law";
  request.input_columns = {"x"};
  request.output_column = "y";
  request.group_column = "g";

  QueryContext ctx{ResourceLimits{}};
  ctx.Cancel();
  auto report = ctx.Run([&] { return session.Fit(request); });
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCanceled);
  EXPECT_EQ(models.size(), 0u) << "a canceled fit must not register a model";

  // Same session, no governor: the fit succeeds — nothing was torn.
  auto retry = session.Fit(request);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(models.size(), 1u);
}

// --- Overload-graceful degradation --------------------------------------

/// Grouped power-law fixture with a captured model and domains, mirroring
/// the AQP tests, so the hybrid engine has a model answer to degrade to.
struct DegradeFixture {
  Catalog data;
  ModelCatalog models;
  DomainRegistry domains;
  std::unique_ptr<Session> session;
  std::unique_ptr<ModelQueryEngine> engine;
  std::vector<double> bands = {0.12, 0.15, 0.16, 0.18};

  DegradeFixture() {
    Rng rng(5);
    auto t = std::make_shared<Table>(
        Schema({Field{"source", DataType::kInt64, false},
                Field{"wavelength", DataType::kDouble, false},
                Field{"intensity", DataType::kDouble, false}}));
    // Big enough that the exact path's filtered materialization dwarfs
    // the model path's ~20-row reconstructed grid, so a budget can sit
    // between them with a wide margin on both sides.
    for (int s = 1; s <= 20; ++s) {
      const double p = 0.5 + 0.05 * s;
      for (int i = 0; i < 400; ++i) {
        const double nu = bands[static_cast<size_t>(rng.UniformInt(0, 3))];
        EXPECT_TRUE(t->AppendRow({Value::Int64(s), Value::Double(nu),
                                  Value::Double(p * std::pow(nu, -0.7) *
                                                std::exp(rng.Normal(0, 0.01)))})
                        .ok());
      }
    }
    data.RegisterOrReplace("measurements", t);
    session = std::make_unique<Session>(&data, &models);
    FitRequest r;
    r.table = "measurements";
    r.model_source = "power_law";
    r.input_columns = {"wavelength"};
    r.output_column = "intensity";
    r.group_column = "source";
    EXPECT_TRUE(session->Fit(r).ok());
    domains.Register("measurements", "wavelength",
                     ColumnDomain::Explicit(bands));
    engine = std::make_unique<ModelQueryEngine>(&data, &models, &domains);
  }
};

/// Enumerates all 20 groups at a pinned wavelength: the model path
/// reconstructs ~20 tuples while the exact path materializes a ~2000-row
/// filtered table, so kDegradeBudget (16 KiB) lets the model answer
/// through and stops the exact scan.
const char kEnumSql[] =
    "SELECT AVG(intensity) FROM measurements WHERE wavelength = 0.12";
constexpr uint64_t kDegradeBudget = 16 * 1024;

TEST(DegradationTest, BudgetOverloadDegradesToModelAnswer) {
  DegradeFixture f;
  // An impossible quality bar forces the exact fallback; the budget then
  // stops the exact path, and the engine serves the (rejected) model
  // answer instead of failing.
  HybridOptions opts;
  opts.min_quality = 1.01;
  HybridQueryEngine hybrid(&f.data, f.engine.get(), opts);
  Counter* degraded =
      MetricsRegistry::Global().GetCounter("governor.degraded_to_aqp");
  const uint64_t before = degraded->value();

  ResourceLimits limits;
  limits.memory_budget_bytes = kDegradeBudget;
  QueryContext ctx(limits);
  auto answer = ctx.Run([&] { return hybrid.Execute(kEnumSql); });
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->degraded);
  EXPECT_TRUE(answer->approximate);
  EXPECT_EQ(answer->fallback_reason, "memory budget");
  EXPECT_EQ(answer->method.rfind("model", 0), 0u)
      << "degraded answer must come from the model path, got "
      << answer->method;
  EXPECT_EQ(answer->table.num_rows(), 1u);
  EXPECT_EQ(degraded->value(), before + 1);
}

TEST(DegradationTest, CancellationNeverDegrades) {
  DegradeFixture f;
  HybridOptions opts;
  opts.min_quality = 1.01;
  HybridQueryEngine hybrid(&f.data, f.engine.get(), opts);

  QueryContext ctx{ResourceLimits{}};
  ctx.Cancel();
  auto answer = ctx.Run([&] { return hybrid.Execute(kEnumSql); });
  ASSERT_FALSE(answer.ok())
      << "a canceled query must not return an answer at all";
  EXPECT_EQ(answer.status().code(), StatusCode::kCanceled);
}

TEST(DegradationTest, NoModelAnswerMeansNoDegradation) {
  DegradeFixture f;
  // No domains and an unpinned wavelength: the model path cannot answer,
  // so overload propagates as the typed governor error instead of
  // degrading.
  DomainRegistry empty;
  ModelQueryEngine no_domains(&f.data, &f.models, &empty);
  HybridQueryEngine hybrid(&f.data, &no_domains);

  ResourceLimits limits;
  limits.memory_budget_bytes = kDegradeBudget;
  QueryContext ctx(limits);
  auto answer = ctx.Run(
      [&] { return hybrid.Execute("SELECT AVG(intensity) FROM measurements"); });
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace laws
