#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/governor.h"
#include "common/metrics.h"
#include "compress/block_store.h"
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

// --- block-index cache: eviction + races (run under TSan by
// tools/check_serving.sh and tools/check_tsan.sh) ------------------------

TEST(BlockIndexCacheTest, DroppedTablesAreEvictedAndCounted) {
  Counter* evictions =
      MetricsRegistry::Global().GetCounter("scan.index_evictions");
  auto keep = std::make_shared<Table>(MakeNumericTable(128));
  auto dead = std::make_shared<Table>(MakeNumericTable(128));
  ASSERT_NE(EnsureBlockIndex(keep, 32), nullptr);
  ASSERT_NE(EnsureBlockIndex(dead, 32), nullptr);
  const size_t size_before = BlockIndexCacheSize();
  ASSERT_GE(size_before, 2u);
  const uint64_t evicted_before = evictions->value();

  dead.reset();  // the owner dies; the cache entry is now expired
  PurgeExpiredBlockIndexes();
  EXPECT_EQ(BlockIndexCacheSize(), size_before - 1);
  EXPECT_GT(evictions->value(), evicted_before);

  // The survivor is still served from cache.
  EXPECT_NE(FindBlockIndex(*keep), nullptr);
}

TEST(BlockIndexCacheTest, LookupsEvictExpiredEntriesEagerly) {
  auto dead = std::make_shared<Table>(MakeNumericTable(64));
  ASSERT_NE(EnsureBlockIndex(dead, 32), nullptr);
  dead.reset();
  // Any subsequent lookup purges expired entries as a side effect, so a
  // long-lived server that dropped a table cannot pin its index.
  auto live = std::make_shared<Table>(MakeNumericTable(64));
  ASSERT_NE(EnsureBlockIndex(live, 32), nullptr);
  EXPECT_EQ(BlockIndexCacheSize(), 1u);
}

/// Concurrent builders asking for different block sizes, table churn
/// and purges: every index EnsureBlockIndex or FindBlockIndex returns has
/// internally consistent geometry, and drops never leave a dangling
/// entry. Run under TSan for the memory model half of the claim.
TEST(BlockIndexCacheTest, ConcurrentEnsureResizeDropPurgeStaysConsistent) {
  auto stable = std::make_shared<Table>(MakeNumericTable(1000));
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};

  auto check_geometry = [&](const std::shared_ptr<const BlockIndex>& idx) {
    if (idx == nullptr) return;
    if (idx->block_rows != 64 && idx->block_rows != 128) {
      violation.store(true);
      return;
    }
    const size_t expect_blocks =
        (idx->num_rows + idx->block_rows - 1) / idx->block_rows;
    if (idx->num_blocks != expect_blocks) violation.store(true);
  };

  std::vector<std::thread> threads;
  // Builders/lookups on the shared table, each asking for its own block
  // size; whichever builds first serves both.
  for (size_t block_rows : {64, 128}) {
    threads.emplace_back([&, block_rows] {
      while (!stop.load()) {
        check_geometry(EnsureBlockIndex(stable, block_rows));
        check_geometry(FindBlockIndex(*stable));
      }
    });
  }
  // Table churn: create, index, destroy — racing the purger below.
  threads.emplace_back([&] {
    while (!stop.load()) {
      auto t = std::make_shared<Table>(MakeNumericTable(300));
      check_geometry(EnsureBlockIndex(t, 64));
      t.reset();
    }
  });
  threads.emplace_back([&] {
    while (!stop.load()) {
      PurgeExpiredBlockIndexes();
      (void)BlockIndexCacheSize();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load())
      << "an index with torn geometry escaped EnsureBlockIndex";
}

}  // namespace
}  // namespace laws
