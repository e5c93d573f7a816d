#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/governor.h"
#include "common/metrics.h"
#include "compress/block_store.h"
#include "query/executor.h"
#include "query/parser.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace laws {
namespace {

// --- helpers ------------------------------------------------------------

/// A two-column table (g INT64, x DOUBLE) with `rows` deterministic rows.
Table MakeNumericTable(size_t rows, int64_t group_mod = 8) {
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false}}));
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value::Int64(static_cast<int64_t>(i) % group_mod),
                             Value::Double(static_cast<double>(i) * 0.5)})
                    .ok());
  }
  return t;
}

/// Cell-for-cell equality (schema + every value) — the bit-identical
/// check the serving smoke test uses against a serial replay.
bool TablesEqual(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) return false;
  if (a.num_rows() != b.num_rows()) return false;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!(a.GetValue(r, c) == b.GetValue(r, c))) return false;
    }
  }
  return true;
}

ServerOptions QuietOptions() {
  ServerOptions options;
  options.max_inflight_queries = 64;
  options.queue_timeout_micros = 10'000'000;
  return options;
}

// --- SnapshotCatalog ----------------------------------------------------

TEST(SnapshotCatalogTest, CommitPublishesMonotoneEpochs) {
  SnapshotCatalog sc;
  EXPECT_EQ(sc.epoch(), 0u);
  EXPECT_TRUE(sc.Commit([](DatabaseSnapshot* db) {
                  db->tables.RegisterOrReplace(
                      "t", std::make_shared<Table>(MakeNumericTable(16)));
                  return Status::OK();
                })
                  .ok());
  EXPECT_EQ(sc.epoch(), 1u);
  SnapshotPtr snap = sc.Pin();
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_EQ((*snap->tables.Get("t"))->num_rows(), 16u);
}

TEST(SnapshotCatalogTest, FailedCommitIsInvisible) {
  SnapshotCatalog sc;
  ASSERT_TRUE(sc.Commit([](DatabaseSnapshot* db) {
                  db->tables.RegisterOrReplace(
                      "t", std::make_shared<Table>(MakeNumericTable(4)));
                  return Status::OK();
                })
                  .ok());
  const uint64_t epoch_before = sc.epoch();
  Status failed = sc.Commit([](DatabaseSnapshot* db) {
    db->tables.RegisterOrReplace(
        "junk", std::make_shared<Table>(MakeNumericTable(1)));
    return Status::Internal("injected commit failure");
  });
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  EXPECT_EQ(sc.epoch(), epoch_before);
  EXPECT_FALSE(sc.Pin()->tables.Contains("junk"));
}

TEST(SnapshotCatalogTest, PinnedSnapshotIsFrozenWhileCommitsAdvance) {
  SnapshotCatalog sc;
  ASSERT_TRUE(sc.Commit([](DatabaseSnapshot* db) {
                  db->tables.RegisterOrReplace(
                      "t", std::make_shared<Table>(MakeNumericTable(8)));
                  return Status::OK();
                })
                  .ok());
  SnapshotPtr pinned = sc.Pin();
  const TablePtr pinned_table = *pinned->tables.Get("t");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sc.Commit([&](DatabaseSnapshot* db) {
                    LAWS_ASSIGN_OR_RETURN(
                        TablePtr t,
                        SnapshotCatalog::MutableTableForWrite(db, "t"));
                    return t->AppendRow(
                        {Value::Int64(0), Value::Double(1.0)});
                  })
                    .ok());
  }
  // The pinned epoch still sees exactly the original payload; the
  // copy-on-write commits never touched it.
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(pinned_table->num_rows(), 8u);
  EXPECT_EQ((*pinned->tables.Get("t"))->num_rows(), 8u);
  EXPECT_EQ((*sc.Pin()->tables.Get("t"))->num_rows(), 18u);
}

/// Where a column keeps its rows and its validity bitmap.
std::vector<const void*> ColumnBuffers(const Table& t) {
  std::vector<const void*> buffers;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    switch (col.type()) {
      case DataType::kInt64:
        buffers.push_back(col.int64_data().data());
        break;
      case DataType::kDouble:
        buffers.push_back(col.double_data().data());
        break;
      case DataType::kString:
        buffers.push_back(col.string_codes().data());
        break;
      case DataType::kBool:
        buffers.push_back(col.bool_data().data());
        break;
    }
    buffers.push_back(col.validity().data());
  }
  return buffers;
}

TEST(SnapshotCatalogTest, WriterCloneHasRoomForTheRowsItAppends) {
  Table base(Schema({Field{"g", DataType::kInt64, true},
                     Field{"x", DataType::kDouble, false},
                     Field{"tag", DataType::kString, true},
                     Field{"flag", DataType::kBool, true}}));
  const auto row = [](size_t i) -> std::vector<Value> {
    const bool null = i % 7 == 0;
    return {null ? Value::Null() : Value::Int64(static_cast<int64_t>(i)),
            Value::Double(static_cast<double>(i) * 0.25),
            null ? Value::Null() : Value::String(i % 2 ? "odd" : "even"),
            null ? Value::Null() : Value::Bool(i % 3 == 0)};
  };
  for (size_t i = 0; i < 1000; ++i) ASSERT_TRUE(base.AppendRow(row(i)).ok());
  const Table original = base;
  SnapshotCatalog sc;
  ASSERT_TRUE(sc.Commit([&](DatabaseSnapshot* db) {
                  db->tables.RegisterOrReplace(
                      "t", std::make_shared<Table>(std::move(base)));
                  return Status::OK();
                })
                  .ok());
  const SnapshotPtr pinned = sc.Pin();
  const size_t k = 100;
  ASSERT_TRUE(sc.Commit([&](DatabaseSnapshot* db) -> Status {
                  LAWS_ASSIGN_OR_RETURN(
                      TablePtr clone,
                      SnapshotCatalog::MutableTableForWrite(db, "t", k));
                  EXPECT_TRUE(TablesEqual(*clone, original));
                  const std::vector<const void*> before = ColumnBuffers(*clone);
                  for (size_t i = 1000; i < 1000 + k; ++i) {
                    LAWS_RETURN_IF_ERROR(clone->AppendRow(row(i)));
                  }
                  EXPECT_EQ(ColumnBuffers(*clone), before);
                  return Status::OK();
                })
                  .ok());
  EXPECT_TRUE(TablesEqual(**pinned->tables.Get("t"), original));
  const TablePtr now = *sc.Pin()->tables.Get("t");
  ASSERT_EQ(now->num_rows(), 1000 + k);
  for (size_t i = 0; i < 1000 + k; ++i) {
    const std::vector<Value> want = row(i);
    for (size_t c = 0; c < want.size(); ++c) {
      ASSERT_EQ(now->GetValue(i, c), want[c]) << i << " " << c;
    }
  }
}

/// The snapshot-isolation invariant under concurrency: every pinned
/// snapshot is internally consistent — here, two tables committed in
/// lockstep never diverge, and epochs only move forward — while a writer
/// commits continuously beside the readers.
TEST(SnapshotCatalogTest, ReadersSeeConsistentViewDuringConcurrentCommits) {
  SnapshotCatalog sc;
  ASSERT_TRUE(sc.Commit([](DatabaseSnapshot* db) {
                  db->tables.RegisterOrReplace(
                      "a", std::make_shared<Table>(MakeNumericTable(0)));
                  db->tables.RegisterOrReplace(
                      "b", std::make_shared<Table>(MakeNumericTable(0)));
                  return Status::OK();
                })
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      const Status committed = sc.Commit([&](DatabaseSnapshot* db) {
        for (const char* name : {"a", "b"}) {
          LAWS_ASSIGN_OR_RETURN(
              TablePtr t, SnapshotCatalog::MutableTableForWrite(db, name));
          LAWS_RETURN_IF_ERROR(
              t->AppendRow({Value::Int64(i), Value::Double(0.0)}));
        }
        return Status::OK();
      });
      if (!committed.ok()) violation.store(true);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!stop.load()) {
        SnapshotPtr snap = sc.Pin();
        if (snap->epoch < last_epoch) violation.store(true);
        last_epoch = snap->epoch;
        const size_t a = (*snap->tables.Get("a"))->num_rows();
        const size_t b = (*snap->tables.Get("b"))->num_rows();
        if (a != b) violation.store(true);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(violation.load())
      << "a reader observed a torn snapshot (tables out of lockstep or a "
         "non-monotone epoch)";
}

// --- Server / ClientSession ---------------------------------------------

TEST(ServerTest, SessionLifecycleAndPerSessionMetrics) {
  Server server(QuietOptions());
  auto session = *server.Connect("alpha");
  EXPECT_EQ(server.open_sessions(), 1u);
  ASSERT_TRUE(session->CreateTable("t", MakeNumericTable(32)).ok());

  Counter* queries =
      MetricsRegistry::Global().GetCounter("session.alpha.queries");
  const uint64_t before = queries->value();
  auto result = session->ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->GetValue(0, 0), Value::Int64(32));
  EXPECT_GT(queries->value(), before);

  session->Close();
  EXPECT_EQ(server.open_sessions(), 0u);
  auto closed = session->ExecuteSql("SELECT COUNT(*) FROM t");
  EXPECT_EQ(closed.status().code(), StatusCode::kAborted);
}

/// Unlabelled sessions share `session.anonymous.*`, so connect/close
/// churn leaves the metrics registry the size it had after the first
/// cycle instead of registering three counters and a histogram per
/// connection.
TEST(ServerTest, AnonymousSessionsDoNotGrowTheMetricsRegistry) {
  Server server(QuietOptions());
  auto admin = *server.Connect("admin");
  ASSERT_TRUE(admin->CreateTable("t", MakeNumericTable(16)).ok());
  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto registry_size = [&] {
    return registry.CounterSamples().size() +
           registry.HistogramSamples().size();
  };
  Counter* queries = registry.GetCounter("session.anonymous.queries");
  const uint64_t queries_before = queries->value();
  constexpr int kCycles = 10000;
  size_t after_first = 0;
  for (int i = 0; i < kCycles; ++i) {
    auto session = *server.Connect();
    ASSERT_EQ(session->name(), "s" + std::to_string(session->id()));
    ASSERT_TRUE(session->ExecuteSql("SELECT COUNT(*) FROM t").ok());
    session->Close();
    if (i == 0) after_first = registry_size();
  }
  EXPECT_EQ(registry_size(), after_first);
  EXPECT_EQ(queries->value() - queries_before, uint64_t{kCycles});
}

TEST(ServerTest, SessionCapIsExact) {
  ServerOptions options = QuietOptions();
  options.max_sessions = 2;
  Server server(options);
  auto s1 = server.Connect();
  auto s2 = server.Connect();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  auto s3 = server.Connect();
  EXPECT_EQ(s3.status().code(), StatusCode::kResourceExhausted);
  (*s1)->Close();
  EXPECT_TRUE(server.Connect().ok());
}

TEST(ServerTest, AdmissionControlRejectsSaturatedQueue) {
  ServerOptions options;
  options.max_inflight_queries = 1;
  options.queue_timeout_micros = 50'000;  // 50 ms: the test's wait bound
  Server server(options);
  auto holder = *server.Connect("holder");
  auto waiter = *server.Connect("waiter");
  ASSERT_TRUE(holder->CreateTable("t", MakeNumericTable(4)).ok());

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::thread blocker([&] {
    auto r = holder->ExecuteRead(
        [&](const DatabaseSnapshot&) -> Result<Table> {
          entered.set_value();
          release_future.wait();
          return MakeNumericTable(0);
        });
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  entered.get_future().wait();  // the only slot is now held

  auto rejected = waiter->ExecuteSql("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  EXPECT_GT(MetricsRegistry::Global()
                .GetCounter("serve.rejected_queue_timeout")
                ->value(),
            0u);

  release.set_value();
  blocker.join();
  // With the slot free again the same query is admitted.
  auto ok = waiter->ExecuteSql("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(ServerTest, QueuedQueryIsAdmittedWhenSlotFrees) {
  ServerOptions options;
  options.max_inflight_queries = 1;
  options.queue_timeout_micros = 10'000'000;
  Server server(options);
  auto holder = *server.Connect();
  auto waiter = *server.Connect();
  ASSERT_TRUE(holder->CreateTable("t", MakeNumericTable(4)).ok());

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::thread blocker([&] {
    auto r = holder->ExecuteRead(
        [&](const DatabaseSnapshot&) -> Result<Table> {
          entered.set_value();
          release_future.wait();
          return MakeNumericTable(0);
        });
    EXPECT_TRUE(r.ok());
  });
  entered.get_future().wait();

  std::thread queued([&] {
    auto r = waiter->ExecuteSql("SELECT COUNT(*) FROM t");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  // Give the queued query time to reach the condvar, then free the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();
  blocker.join();
  queued.join();
}

TEST(ServerTest, CancelTargetsOnlyItsOwnSession) {
  Server server(QuietOptions());
  auto victim = *server.Connect("victim");
  auto bystander = *server.Connect("bystander");
  ASSERT_TRUE(victim->CreateTable("t", MakeNumericTable(64)).ok());

  std::promise<void> started;
  std::thread running([&] {
    auto r = victim->ExecuteRead(
        [&](const DatabaseSnapshot&) -> Result<Table> {
          started.set_value();
          // Spin at the governor's cancellation point until the
          // session interrupt lands (bounded by the test timeout).
          while (true) {
            if (QueryGovernor* gov = QueryGovernor::Current()) {
              LAWS_RETURN_IF_ERROR(gov->Poll());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        });
    EXPECT_EQ(r.status().code(), StatusCode::kCanceled)
        << r.status().ToString();
  });
  started.get_future().wait();
  victim->CancelCurrent();
  // The bystander's queries are untouched by the victim's interrupt.
  auto ok = bystander->ExecuteSql("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  running.join();

  // An unconsumed interrupt stays armed for the session's next query
  // (the shell's scripted `cancel` contract)...
  victim->CancelCurrent();
  auto armed = victim->ExecuteSql("SELECT COUNT(*) FROM t");
  EXPECT_EQ(armed.status().code(), StatusCode::kCanceled);
  // ...and is consumed by it: the query after runs normally.
  auto after = victim->ExecuteSql("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

/// The `expr:` and `scan:` lines of an EXPLAIN ANALYZE text.
std::string CounterLines(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("expr: ", 0) == 0 || line.rfind("scan: ", 0) == 0) {
      out += line + "\n";
    }
  }
  return out;
}

// EXPLAIN ANALYZE counts only its own query: two sessions run it at the
// same time — one compiles a computed predicate over many batches, the
// other prunes blocks — and every run prints that session's solo lines.
TEST(ServerTest, ConcurrentExplainAnalyzeCountsOnlyItsOwnQuery) {
  Server server(QuietOptions());
  auto computed = *server.Connect("computed");
  auto pruned = *server.Connect("pruned");
  ASSERT_TRUE(computed->CreateTable("wide", MakeNumericTable(100000)).ok());
  // x ascends, so zone maps prune every 4096-row block but the first.
  ASSERT_TRUE(pruned->CreateTable("sorted", MakeNumericTable(40960)).ok());
  const std::string kComputed =
      "SELECT COUNT(*) FROM wide WHERE x * 2.0 > 10.0";
  const std::string kPruned = "SELECT COUNT(*) FROM sorted WHERE x < 100.0";

  auto solo_computed = computed->ExplainAnalyze(kComputed);
  ASSERT_TRUE(solo_computed.ok()) << solo_computed.status().ToString();
  auto solo_pruned = pruned->ExplainAnalyze(kPruned);
  ASSERT_TRUE(solo_pruned.ok()) << solo_pruned.status().ToString();
  const std::string computed_lines = CounterLines(*solo_computed);
  const std::string pruned_lines = CounterLines(*solo_pruned);
  EXPECT_NE(computed_lines.find("scan: blocks=0 "), std::string::npos)
      << computed_lines;
  EXPECT_NE(pruned_lines.find("scan: blocks=10 pruned=9 "),
            std::string::npos)
      << pruned_lines;

  std::atomic<int> ready{0};
  auto run = [&](ClientSession* session, const std::string& sql,
                 const std::string& solo) {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < 50; ++i) {
      auto text = session->ExplainAnalyze(sql);
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      EXPECT_EQ(CounterLines(*text), solo) << "iteration " << i;
    }
  };
  std::thread a(run, computed.get(), kComputed, computed_lines);
  std::thread b(run, pruned.get(), kPruned, pruned_lines);
  a.join();
  b.join();
}

// A stopped query still explains itself: after CancelCurrent(), the
// session's next EXPLAIN ANALYZE renders the partial tree, the governor
// line and the stop instead of returning the error.
TEST(ServerTest, ExplainAnalyzeRendersACanceledQuery) {
  Server server(QuietOptions());
  auto session = *server.Connect("explained");
  ASSERT_TRUE(session->CreateTable("t", MakeNumericTable(64)).ok());
  session->CancelCurrent();
  auto text = session->ExplainAnalyze("SELECT COUNT(*) FROM t WHERE x > 1.0");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("HybridDecision(exact: "), std::string::npos) << *text;
  EXPECT_NE(text->find("  ExactScan"), std::string::npos) << *text;
  EXPECT_NE(text->find("tripped=canceled"), std::string::npos) << *text;
  EXPECT_NE(text->find("query stopped: "), std::string::npos) << *text;
  EXPECT_EQ(text->find("answered by:"), std::string::npos) << *text;
  // The stop consumed the interrupt: the next query runs.
  auto after = session->ExplainAnalyze("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->find("1 row in "), std::string::npos) << *after;
}

TEST(ServerTest, IngestIsTypeCheckedAndAtomic) {
  Server server(QuietOptions());
  auto session = *server.Connect();
  ASSERT_TRUE(session->CreateTable("t", MakeNumericTable(8)).ok());
  const uint64_t epoch_before = server.snapshots().epoch();

  // Wrong arity.
  Table narrow(Schema({Field{"g", DataType::kInt64, false}}));
  ASSERT_TRUE(narrow.AppendRow({Value::Int64(1)}).ok());
  EXPECT_EQ(session->Ingest("t", narrow).code(),
            StatusCode::kInvalidArgument);

  // Wrong column type.
  Table wrong(Schema({Field{"g", DataType::kDouble, false},
                      Field{"x", DataType::kDouble, false}}));
  ASSERT_TRUE(wrong.AppendRow({Value::Double(1.0), Value::Double(2.0)}).ok());
  EXPECT_EQ(session->Ingest("t", wrong).code(), StatusCode::kTypeMismatch);

  // Missing table.
  EXPECT_EQ(session->Ingest("absent", MakeNumericTable(1)).code(),
            StatusCode::kNotFound);

  // None of the failures published an epoch or touched the table.
  EXPECT_EQ(server.snapshots().epoch(), epoch_before);
  EXPECT_EQ((*session->PinSnapshot()->tables.Get("t"))->num_rows(), 8u);

  // A valid batch lands whole.
  ASSERT_TRUE(session->Ingest("t", MakeNumericTable(5)).ok());
  EXPECT_EQ((*session->PinSnapshot()->tables.Get("t"))->num_rows(), 13u);
}

TEST(ServerTest, CowIngestLeavesPinnedReadersOnTheirEpoch) {
  Server server(QuietOptions());
  auto writer = *server.Connect();
  auto reader = *server.Connect();
  ASSERT_TRUE(writer->CreateTable("t", MakeNumericTable(10)).ok());

  SnapshotPtr pinned = reader->PinSnapshot();
  ASSERT_TRUE(writer->Ingest("t", MakeNumericTable(6)).ok());

  EXPECT_EQ((*pinned->tables.Get("t"))->num_rows(), 10u);
  EXPECT_EQ((*reader->PinSnapshot()->tables.Get("t"))->num_rows(), 16u);
}

TEST(ServerTest, DropTableRemovesItsModels) {
  Server server(QuietOptions());
  auto session = *server.Connect();
  ASSERT_TRUE(session->CreateTable("t", MakeNumericTable(256)).ok());

  FitRequest request;
  request.table = "t";
  request.model_source = "poly(1)";
  request.input_columns = {"g"};
  request.output_column = "x";
  auto fit = session->Fit(request);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(session->PinSnapshot()->models.size(), 1u);

  ASSERT_TRUE(session->DropTable("t").ok());
  SnapshotPtr snap = session->PinSnapshot();
  EXPECT_FALSE(snap->tables.Contains("t"));
  EXPECT_EQ(snap->models.size(), 0u)
      << "dropping a table must drop the models fitted over it";
}

TEST(ServerTest, SubmitSqlRunsOnThePool) {
  Server server(QuietOptions());
  auto session = *server.Connect();
  ASSERT_TRUE(session->CreateTable("t", MakeNumericTable(128)).ok());
  std::vector<std::future<Result<Table>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(session->SubmitSql("SELECT COUNT(*) FROM t"));
  }
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->GetValue(0, 0), Value::Int64(128));
  }
}

/// The serving smoke test from the issue: N concurrent sessions running
/// mixed exact queries, ingest, fits and drops. Queries against the
/// immutable table must be bit-identical to a serial replay; queries
/// against the hot (concurrently ingested) table must always see a
/// committed batch boundary, never a torn append.
TEST(ServerTest, ConcurrentSessionsMatchSerialReplay) {
  Server server(QuietOptions());
  auto admin = *server.Connect("admin");
  ASSERT_TRUE(admin->CreateTable("fixed", MakeNumericTable(512)).ok());
  constexpr size_t kHotBase = 64;
  constexpr size_t kBatch = 16;
  constexpr int kBatches = 12;
  ASSERT_TRUE(admin->CreateTable("hot", MakeNumericTable(kHotBase)).ok());

  const std::vector<std::string> queries = {
      "SELECT COUNT(*) FROM fixed",
      "SELECT g, AVG(x) FROM fixed GROUP BY g ORDER BY g",
      "SELECT SUM(x) FROM fixed WHERE g < 4",
  };
  std::vector<Table> serial;
  for (const auto& q : queries) {
    auto r = admin->ExecuteSql(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial.push_back(std::move(*r));
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> mismatch{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (int s = 0; s < 4; ++s) {
    threads.emplace_back([&, s] {
      auto session = *server.Connect("smoke" + std::to_string(s));
      size_t i = 0;
      while (!stop.load()) {
        const auto& q = queries[i % queries.size()];
        auto r = session->ExecuteSql(q);
        if (!r.ok() || !TablesEqual(*r, serial[i % queries.size()])) {
          mismatch.store(true);
        }
        auto hot = session->ExecuteSql("SELECT COUNT(*) FROM hot");
        if (!hot.ok()) {
          torn.store(true);
        } else {
          const int64_t n = hot->GetValue(0, 0).int64();
          // Every committed size is base + k*batch for some whole k.
          if (n < static_cast<int64_t>(kHotBase) ||
              (n - static_cast<int64_t>(kHotBase)) %
                      static_cast<int64_t>(kBatch) !=
                  0) {
            torn.store(true);
          }
        }
        ++i;
      }
    });
  }
  // The writer interleaves ingest with fit/drop churn on a scratch table.
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(admin->Ingest("hot", MakeNumericTable(kBatch)).ok());
    ASSERT_TRUE(admin->CreateTable("scratch", MakeNumericTable(32)).ok());
    FitRequest request;
    request.table = "scratch";
    request.model_source = "poly(1)";
    request.input_columns = {"g"};
    request.output_column = "x";
    ASSERT_TRUE(admin->Fit(request).ok());
    ASSERT_TRUE(admin->DropTable("scratch").ok());
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(mismatch.load())
      << "a fixed-table query diverged from its serial replay";
  EXPECT_FALSE(torn.load())
      << "a hot-table read saw a row count off a commit boundary";
  EXPECT_EQ((*admin->PinSnapshot()->tables.Get("hot"))->num_rows(),
            kHotBase + kBatches * kBatch);
}

// --- the table's block index: ownership + races (run under TSan by
// tools/check_serving.sh and tools/check_tsan.sh) ------------------------

/// True when `index` describes `table`'s rows at one of the block sizes
/// the callers below ask for, with every column's zones matching.
bool GeometryConsistent(const Table& table, const BlockIndex& index) {
  if (index.block_rows != 64 && index.block_rows != 128 &&
      index.block_rows != kDefaultBlockRows) {
    return false;
  }
  if (index.num_rows != table.num_rows() ||
      index.num_blocks !=
          (index.num_rows + index.block_rows - 1) / index.block_rows ||
      index.columns.size() != table.num_columns()) {
    return false;
  }
  for (const ColumnBlockIndex& column : index.columns) {
    if (column.usable && column.zones.size() != index.num_blocks) return false;
  }
  return true;
}

TEST(TableBlockIndexTest, IndexDiesWithTheLastTablePtr) {
  auto table = std::make_shared<Table>(MakeNumericTable(128));
  std::weak_ptr<const BlockIndex> index = EnsureBlockIndex(table, 32);
  ASSERT_FALSE(index.expired());
  EXPECT_EQ(table->block_index(), index.lock());
  table.reset();
  EXPECT_TRUE(index.expired());

  // Through the serving layer: a query indexes the table; dropping it
  // in a commit leaves the index to the snapshot still pinned, and
  // releasing that pin frees it.
  SnapshotCatalog sc;
  ASSERT_TRUE(sc.Commit([](DatabaseSnapshot* db) {
                  db->tables.RegisterOrReplace(
                      "t", std::make_shared<Table>(MakeNumericTable(128)));
                  return Status::OK();
                })
                  .ok());
  SnapshotPtr pinned = sc.Pin();
  ASSERT_TRUE(ExecuteQuery(pinned->tables, "SELECT COUNT(*) FROM t WHERE x < 9")
                  .ok());
  index = (*pinned->tables.Get("t"))->block_index();
  ASSERT_FALSE(index.expired());
  ASSERT_TRUE(sc.Commit([](DatabaseSnapshot* db) {
                  return db->tables.Drop("t");
                })
                  .ok());
  EXPECT_FALSE(index.expired());
  pinned.reset();
  EXPECT_TRUE(index.expired());
}

/// Rounds of one fresh catalog table that two builders (64- and 128-row
/// blocks) and a query thread race to index, while another thread keeps
/// creating, indexing and dropping tables of its own. Each racer must
/// see one installed index for the round, the table's, with consistent
/// geometry. Run under TSan for the memory model half of the claim.
TEST(TableBlockIndexTest, RacingBuildersAndQueriesShareOneInstalledIndex) {
  constexpr int kRounds = 40;
  constexpr int kRacers = 3;
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t WHERE x < 100");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::atomic<bool> stop_churn{false};
  std::atomic<bool> violation{false};

  std::thread churn([&] {
    while (!stop_churn.load()) {
      Catalog scratch;
      auto t = std::make_shared<Table>(MakeNumericTable(300));
      if (!scratch.Register("s", t).ok()) violation.store(true);
      const auto index = EnsureBlockIndex(t, 64);
      if (index == nullptr || !GeometryConsistent(*t, *index)) {
        violation.store(true);
      }
      if (!scratch.Drop("s").ok()) violation.store(true);
    }
  });

  for (int round = 0; round < kRounds; ++round) {
    Catalog catalog;
    auto table = std::make_shared<Table>(MakeNumericTable(1000));
    ASSERT_TRUE(catalog.Register("t", table).ok());
    std::atomic<int> ready{0};
    std::vector<const BlockIndex*> seen(kRacers, nullptr);
    auto note = [&](int racer, const std::shared_ptr<const BlockIndex>& idx) {
      if (idx == nullptr || !GeometryConsistent(*table, *idx)) {
        violation.store(true);
      } else if (seen[racer] == nullptr) {
        seen[racer] = idx.get();
      } else if (seen[racer] != idx.get()) {
        violation.store(true);
      }
    };
    std::vector<std::thread> racers;
    for (int racer = 0; racer < kRacers; ++racer) {
      racers.emplace_back([&, racer] {
        ready.fetch_add(1);
        while (ready.load() < kRacers) {
        }
        for (int i = 0; i < 5; ++i) {
          if (racer < 2) {
            note(racer, EnsureBlockIndex(table, racer == 0 ? 64 : 128));
            continue;
          }
          auto result = ExecuteSelect(catalog, *stmt);
          if (!result.ok() || result->GetValue(0, 0) != Value::Int64(200)) {
            violation.store(true);
          }
          note(racer, table->block_index());
        }
      });
    }
    for (auto& t : racers) t.join();
    const auto installed = table->block_index();
    ASSERT_NE(installed, nullptr);
    for (const BlockIndex* s : seen) EXPECT_EQ(s, installed.get());
  }
  stop_churn.store(true);
  churn.join();
  EXPECT_FALSE(violation.load())
      << "a racer saw no index, a second index or torn geometry";
}

/// Eight threads reach one fresh million-row table's empty slot at once.
/// One builds; the rest wait for that build and take its index, so the
/// table is swept once. Run under TSan for the lock half of the claim.
TEST(TableBlockIndexTest, RacingCallersShareOneBuild) {
  constexpr size_t kRows = 1000000;
  constexpr int kThreads = 8;
  std::vector<int64_t> g(kRows);
  std::vector<double> x(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    g[i] = static_cast<int64_t>(i % 8);
    x[i] = static_cast<double>(i) * 0.5;
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64Vector(std::move(g)));
  cols.push_back(Column::FromDoubleVector(std::move(x)));
  auto built = Table::FromColumns(
      Schema({Field{"g", DataType::kInt64, false},
              Field{"x", DataType::kDouble, false}}),
      std::move(cols));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto table = std::make_shared<Table>(std::move(*built));

  Counter* builds = MetricsRegistry::Global().GetCounter("scan.index_builds");
  const uint64_t before = builds->value();
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<const BlockIndex>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[i] = EnsureBlockIndex(table);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds->value() - before, 1u);
  ASSERT_NE(got[0], nullptr);
  for (const auto& index : got) EXPECT_EQ(index, got[0]);
  EXPECT_EQ(table->block_index(), got[0]);
}

/// The index describes one object's rows: copies, copy-on-write clones
/// and moves start without one, and every mutation drops it.
TEST(TableBlockIndexTest, CopiesClonesAndMutationsHaveNoIndex) {
  auto table = std::make_shared<Table>(MakeNumericTable(100));
  ASSERT_NE(EnsureBlockIndex(table, 16), nullptr);
  const Table copy = *table;
  EXPECT_EQ(copy.block_index(), nullptr);
  Table assigned = MakeNumericTable(1);
  assigned = *table;
  EXPECT_EQ(assigned.block_index(), nullptr);
  EXPECT_NE(table->block_index(), nullptr);

  SnapshotCatalog sc;
  ASSERT_TRUE(sc.Commit([&](DatabaseSnapshot* db) {
                  db->tables.RegisterOrReplace("t", table);
                  return Status::OK();
                })
                  .ok());
  ASSERT_TRUE(sc.Commit([&](DatabaseSnapshot* db) {
                  LAWS_ASSIGN_OR_RETURN(
                      TablePtr clone,
                      SnapshotCatalog::MutableTableForWrite(db, "t"));
                  EXPECT_NE(clone, table);
                  EXPECT_EQ(clone->block_index(), nullptr);
                  return Status::OK();
                })
                  .ok());
  // The pinned original keeps its index for the readers still on it.
  EXPECT_NE(table->block_index(), nullptr);

  auto moved_from = std::make_shared<Table>(MakeNumericTable(100));
  ASSERT_NE(EnsureBlockIndex(moved_from, 16), nullptr);
  const Table moved = std::move(*moved_from);
  EXPECT_EQ(moved.block_index(), nullptr);
  EXPECT_EQ(moved_from->block_index(), nullptr);

  ASSERT_TRUE(table->AppendRow({Value::Int64(1), Value::Double(2.0)}).ok());
  EXPECT_EQ(table->block_index(), nullptr);
  // A rejected append leaves the table, and its index, as they were.
  const auto rebuilt = EnsureBlockIndex(table, 16);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilt->num_rows, 101u);
  EXPECT_FALSE(table->AppendRow({Value::Int64(1)}).ok());
  EXPECT_EQ(table->block_index(), rebuilt);
  (void)table->mutable_column(1);
  EXPECT_EQ(table->block_index(), nullptr);
  ASSERT_NE(EnsureBlockIndex(table, 16), nullptr);
  ASSERT_TRUE(table->SyncRowCount().ok());
  EXPECT_EQ(table->block_index(), nullptr);
}

}  // namespace
}  // namespace laws
