#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/thread_pool.h"
#include "query/executor.h"

namespace laws {
namespace {

/// Server-wide accounting (cached pointers; see metrics.h).
struct ServeMetrics {
  Counter* sessions_opened;
  Counter* sessions_closed;
  Counter* sessions_rejected;
  Counter* admitted;
  Counter* rejected_queue_timeout;
  MetricHistogram* queue_wait_micros;

  static ServeMetrics& Get() {
    static ServeMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return ServeMetrics{
          reg.GetCounter("serve.sessions_opened"),
          reg.GetCounter("serve.sessions_closed"),
          reg.GetCounter("serve.sessions_rejected"),
          reg.GetCounter("serve.queries_admitted"),
          reg.GetCounter("serve.rejected_queue_timeout"),
          reg.GetHistogram("serve.queue_wait_micros")};
    }();
    return m;
  }
};

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Result-cardinality attribution for the per-session rows_out counter.
size_t RowsOf(const Table& t) { return t.num_rows(); }
size_t RowsOf(const HybridAnswer& a) { return a.table.num_rows(); }
size_t RowsOf(const ApproxAnswer& a) { return a.table.num_rows(); }
size_t RowsOf(const std::string&) { return 0; }

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions options;
  options.max_inflight_queries = static_cast<size_t>(
      EnvInt64("LAWS_SERVE_MAX_INFLIGHT", 0, 0, int64_t{1} << 20));
  options.queue_timeout_micros =
      EnvInt64("LAWS_SERVE_QUEUE_TIMEOUT_MS", 10'000, 0,
               std::numeric_limits<int64_t>::max() / 1000) *
      1000;
  options.max_sessions = static_cast<size_t>(
      EnvInt64("LAWS_SERVE_MAX_SESSIONS", 0, 0, int64_t{1} << 20));
  options.default_limits = QueryContext::LimitsFromEnv();
  return options;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      max_inflight_(options_.max_inflight_queries > 0
                        ? options_.max_inflight_queries
                        : std::max<size_t>(
                              4, 2 * std::thread::hardware_concurrency())) {}

Server::~Server() = default;

Result<std::shared_ptr<ClientSession>> Server::Connect(std::string label) {
  // fetch_add-then-check keeps the cap exact under concurrent Connects.
  const size_t open = open_sessions_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (options_.max_sessions > 0 && open > options_.max_sessions) {
    open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
    ServeMetrics::Get().sessions_rejected->Add();
    return Status::ResourceExhausted(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        " open sessions)");
  }
  const uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  const std::string metrics_label = label.empty() ? "anonymous" : label;
  if (label.empty()) label = "s" + std::to_string(id);
  ServeMetrics::Get().sessions_opened->Add();
  return std::shared_ptr<ClientSession>(
      new ClientSession(this, id, std::move(label), metrics_label));
}

size_t Server::inflight_queries() const {
  std::lock_guard<std::mutex> lock(admit_mutex_);
  return inflight_;
}

void Server::AdmissionSlot::Release() {
  if (server_ != nullptr) {
    server_->ReleaseSlot();
    server_ = nullptr;
  }
}

Result<Server::AdmissionSlot> Server::Admit() {
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(admit_mutex_);
  if (inflight_ >= max_inflight_) {
    const bool admitted =
        options_.queue_timeout_micros > 0 &&
        slot_free_.wait_for(
            lock, std::chrono::microseconds(options_.queue_timeout_micros),
            [&] { return inflight_ < max_inflight_; });
    if (!admitted) {
      ServeMetrics::Get().rejected_queue_timeout->Add();
      return Status::ResourceExhausted(
          "admission queue timeout: " + std::to_string(max_inflight_) +
          " queries already in flight and no slot freed within " +
          std::to_string(options_.queue_timeout_micros / 1000) + " ms");
    }
  }
  ++inflight_;
  lock.unlock();
  ServeMetrics& m = ServeMetrics::Get();
  m.admitted->Add();
  m.queue_wait_micros->Record(static_cast<double>(MicrosSince(start)));
  return AdmissionSlot(this);
}

void Server::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> lock(admit_mutex_);
    --inflight_;
  }
  slot_free_.notify_one();
}

void Server::SessionClosed() {
  open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
  ServeMetrics::Get().sessions_closed->Add();
}

ClientSession::ClientSession(Server* server, uint64_t id, std::string name,
                             const std::string& metrics_label)
    : server_(server),
      id_(id),
      name_(std::move(name)),
      limits_(server->options().default_limits) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string prefix = "session." + metrics_label + ".";
  queries_counter_ = reg.GetCounter(prefix + "queries");
  errors_counter_ = reg.GetCounter(prefix + "errors");
  rows_out_counter_ = reg.GetCounter(prefix + "rows_out");
  query_micros_ = reg.GetHistogram(prefix + "query_micros");
}

ClientSession::~ClientSession() { Close(); }

void ClientSession::Close() {
  if (!closed_.exchange(true, std::memory_order_acq_rel)) {
    server_->SessionClosed();
  }
}

Status ClientSession::CheckOpen() const {
  if (closed()) {
    return Status::Aborted("session " + name_ + " is closed");
  }
  return Status::OK();
}

void ClientSession::RecordOutcome(const Status& status, int64_t micros) {
  queries_counter_->Add();
  if (!status.ok()) errors_counter_->Add();
  query_micros_->Record(static_cast<double>(micros));
}

ResourceLimits ClientSession::limits() const {
  std::lock_guard<std::mutex> lock(limits_mutex_);
  return limits_;
}

void ClientSession::set_limits(const ResourceLimits& limits) {
  std::lock_guard<std::mutex> lock(limits_mutex_);
  limits_ = limits;
}

SnapshotPtr ClientSession::PinSnapshot() const {
  return server_->snapshots().Pin();
}

template <typename T, typename Fn>
Result<T> ClientSession::RunRead(Fn&& body) {
  LAWS_RETURN_IF_ERROR(CheckOpen());
  LAWS_ASSIGN_OR_RETURN(Server::AdmissionSlot slot, server_->Admit());
  // Pin after admission: a query that waited in the queue reads the
  // freshest committed epoch, not the one from arrival time.
  SnapshotPtr snap = server_->snapshots().Pin();
  QueryContext ctx(limits());
  ctx.BindExternalCancel(&interrupt_);
  const auto start = std::chrono::steady_clock::now();
  Result<T> out = ctx.Run([&] { return body(*snap); });
  RecordOutcome(out.ok() ? Status::OK() : out.status(), MicrosSince(start));
  if (out.ok()) rows_out_counter_->Add(RowsOf(*out));
  return out;
}

template <typename T, typename Fn>
Result<T> ClientSession::RunWrite(Fn&& body) {
  LAWS_RETURN_IF_ERROR(CheckOpen());
  LAWS_ASSIGN_OR_RETURN(Server::AdmissionSlot slot, server_->Admit());
  QueryContext ctx(limits());
  ctx.BindExternalCancel(&interrupt_);
  const auto start = std::chrono::steady_clock::now();
  std::optional<Result<T>> out;
  const Status commit = ctx.Run([&] {
    return server_->snapshots().Commit([&](DatabaseSnapshot* db) {
      Result<T> r = body(db);
      const Status status = r.ok() ? Status::OK() : r.status();
      out.emplace(std::move(r));
      return status;
    });
  });
  RecordOutcome(commit, MicrosSince(start));
  if (!commit.ok()) return commit;
  return std::move(*out);
}

Result<Table> ClientSession::ExecuteSql(const std::string& sql) {
  return RunRead<Table>([&](const DatabaseSnapshot& db) {
    return ExecuteQuery(db.tables, sql);
  });
}

Result<HybridAnswer> ClientSession::ExecuteHybrid(const std::string& sql) {
  return RunRead<HybridAnswer>([&](const DatabaseSnapshot& db) {
    ModelQueryEngine aqp(&db.tables, &db.models, &db.domains);
    HybridQueryEngine hybrid(&db.tables, &aqp, server_->options().hybrid);
    return hybrid.Execute(sql);
  });
}

Result<ApproxAnswer> ClientSession::ExecuteApprox(const std::string& sql) {
  return RunRead<ApproxAnswer>([&](const DatabaseSnapshot& db) {
    ModelQueryEngine aqp(&db.tables, &db.models, &db.domains);
    return aqp.Execute(sql);
  });
}

Result<std::string> ClientSession::ExplainAnalyze(const std::string& sql) {
  return RunRead<std::string>([&](const DatabaseSnapshot& db) {
    ModelQueryEngine aqp(&db.tables, &db.models, &db.domains);
    HybridQueryEngine hybrid(&db.tables, &aqp, server_->options().hybrid);
    return hybrid.ExplainAnalyze(sql);
  });
}

Result<Table> ClientSession::ExecuteRead(
    const std::function<Result<Table>(const DatabaseSnapshot&)>& body) {
  return RunRead<Table>(body);
}

std::future<Result<Table>> ClientSession::SubmitSql(const std::string& sql) {
  auto self = shared_from_this();
  auto promise = std::make_shared<std::promise<Result<Table>>>();
  std::future<Result<Table>> future = promise->get_future();
  // GlobalShared pins the pool across the submission, so a concurrent
  // SetGlobalThreadCount cannot tear it down under the task.
  std::shared_ptr<ThreadPool> pool = ThreadPool::GlobalShared();
  pool->Submit([self, promise, sql, pool] {
    promise->set_value(self->ExecuteSql(sql));
  });
  return future;
}

Status ClientSession::CreateTable(const std::string& name, Table table) {
  auto shared = std::make_shared<Table>(std::move(table));
  auto r = RunWrite<bool>([&](DatabaseSnapshot* db) -> Result<bool> {
    db->tables.RegisterOrReplace(name, shared);
    return true;
  });
  return r.ok() ? Status::OK() : r.status();
}

Status ClientSession::Ingest(const std::string& name, const Table& rows) {
  auto r = RunWrite<bool>([&](DatabaseSnapshot* db) -> Result<bool> {
    LAWS_ASSIGN_OR_RETURN(
        TablePtr dst,
        SnapshotCatalog::MutableTableForWrite(db, name, rows.num_rows()));
    if (dst->num_columns() != rows.num_columns()) {
      return Status::InvalidArgument(
          "ingest batch has " + std::to_string(rows.num_columns()) +
          " columns; table '" + name + "' has " +
          std::to_string(dst->num_columns()));
    }
    for (size_t c = 0; c < dst->num_columns(); ++c) {
      if (dst->column(c).type() != rows.column(c).type()) {
        return Status::TypeMismatch(
            "ingest batch column " + std::to_string(c) +
            " type does not match table '" + name + "'");
      }
    }
    std::vector<Value> row(rows.num_columns());
    for (size_t i = 0; i < rows.num_rows(); ++i) {
      if ((i & 1023u) == 0u) LAWS_GOVERNOR_POLL();
      for (size_t c = 0; c < rows.num_columns(); ++c) {
        row[c] = rows.GetValue(i, c);
      }
      LAWS_RETURN_IF_ERROR(dst->AppendRow(row));
    }
    return true;
  });
  return r.ok() ? Status::OK() : r.status();
}

Status ClientSession::DropTable(const std::string& name) {
  auto r = RunWrite<bool>([&](DatabaseSnapshot* db) -> Result<bool> {
    LAWS_RETURN_IF_ERROR(db->tables.Drop(name));
    db->models.RemoveForTable(name);
    return true;
  });
  return r.ok() ? Status::OK() : r.status();
}

Status ClientSession::RegisterDomain(const std::string& table,
                                     const std::string& column,
                                     ColumnDomain domain) {
  auto r = RunWrite<bool>([&](DatabaseSnapshot* db) -> Result<bool> {
    db->domains.Register(table, column, std::move(domain));
    return true;
  });
  return r.ok() ? Status::OK() : r.status();
}

Result<FitReport> ClientSession::Fit(const FitRequest& request) {
  return RunWrite<FitReport>([&](DatabaseSnapshot* db) {
    Session session(&db->tables, &db->models);
    return session.Fit(request);
  });
}

Result<RefitReport> ClientSession::RefitStale() {
  return RunWrite<RefitReport>([&](DatabaseSnapshot* db) {
    Session session(&db->tables, &db->models);
    return session.RefitStale();
  });
}

Result<size_t> ClientSession::MaterializeView(uint64_t model_id,
                                              const std::string& view_name) {
  return RunWrite<size_t>([&](DatabaseSnapshot* db) {
    ModelQueryEngine aqp(&db->tables, &db->models, &db->domains);
    return aqp.MaterializeView(model_id, view_name, &db->tables);
  });
}

Status ClientSession::ReplaceDatabase(Catalog tables, ModelCatalog models) {
  auto r = RunWrite<bool>([&](DatabaseSnapshot* db) -> Result<bool> {
    db->tables = std::move(tables);
    db->models = std::move(models);
    return true;
  });
  return r.ok() ? Status::OK() : r.status();
}

}  // namespace laws
