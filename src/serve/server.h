#ifndef LAWSDB_SERVE_SERVER_H_
#define LAWSDB_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "aqp/hybrid.h"
#include "aqp/model_aqp.h"
#include "common/governor.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/session.h"
#include "query/query_context.h"
#include "serve/snapshot.h"

namespace laws {

class ClientSession;

/// Serving-layer configuration. Defaults come from the environment via
/// FromEnv(); everything can be overridden programmatically (tests and
/// benches pin exact values).
struct ServerOptions {
  /// Upper bound on queries executing at once across all sessions —
  /// the enforcement half of admission control that the per-query
  /// governor does not provide. 0 = 2 × hardware_concurrency (min 4).
  /// LAWS_SERVE_MAX_INFLIGHT overrides.
  size_t max_inflight_queries = 0;

  /// How long an arriving query may wait in the admission queue for a
  /// slot before being rejected with kResourceExhausted. <= 0 rejects
  /// immediately when saturated. LAWS_SERVE_QUEUE_TIMEOUT_MS overrides.
  int64_t queue_timeout_micros = 10'000'000;

  /// Maximum concurrently open sessions; Connect beyond it fails with
  /// kResourceExhausted. 0 = unlimited. LAWS_SERVE_MAX_SESSIONS
  /// overrides.
  size_t max_sessions = 0;

  /// Per-query limits handed to every session at Connect (sessions may
  /// adjust their own afterwards). Defaults to QueryContext's env knobs.
  ResourceLimits default_limits;

  /// Model-vs-exact arbitration options for the hybrid path.
  HybridOptions hybrid;

  /// Options with every field resolved from LAWS_SERVE_* / governor env
  /// knobs (unset ⇒ the defaults above).
  static ServerOptions FromEnv();
};

/// The always-on serving face of the engine (DESIGN.md §16): one Server
/// owns the snapshot-isolated catalog and the admission gate; N
/// concurrent ClientSessions multiplex queries over the process-wide
/// ThreadPool. Reads pin a snapshot and run governed; writes (ingest,
/// fit, drop, refit) are serialized copy-and-swap commits that readers
/// never wait on.
///
/// Lifetime: the Server must outlive every session it vends. Sessions
/// are handed out as shared_ptr; Close() (or destruction) releases the
/// session slot.
class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions::FromEnv());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a session. `label` names the session and its per-session
  /// metrics (`session.<label>.*`). An empty label names the session
  /// `s<id>` and shares `session.anonymous.*` with every other unlabelled
  /// session, so connections do not grow the metrics registry. Fails
  /// with kResourceExhausted at the session cap.
  Result<std::shared_ptr<ClientSession>> Connect(std::string label = "");

  SnapshotCatalog& snapshots() { return snapshots_; }
  const ServerOptions& options() const { return options_; }

  size_t open_sessions() const {
    return open_sessions_.load(std::memory_order_relaxed);
  }
  size_t inflight_queries() const;

 private:
  friend class ClientSession;

  /// RAII admission slot: releasing wakes one queued query.
  class AdmissionSlot {
   public:
    AdmissionSlot() = default;
    explicit AdmissionSlot(Server* server) : server_(server) {}
    AdmissionSlot(AdmissionSlot&& other) noexcept
        : server_(std::exchange(other.server_, nullptr)) {}
    AdmissionSlot& operator=(AdmissionSlot&& other) noexcept {
      Release();
      server_ = std::exchange(other.server_, nullptr);
      return *this;
    }
    ~AdmissionSlot() { Release(); }
    void Release();

   private:
    Server* server_ = nullptr;
  };

  /// Blocks up to the queue timeout for an in-flight slot; typed
  /// kResourceExhausted on timeout (never an exception, never a crash).
  Result<AdmissionSlot> Admit();
  void ReleaseSlot();
  void SessionClosed();

  const ServerOptions options_;
  const size_t max_inflight_;  // resolved (never 0)
  SnapshotCatalog snapshots_;

  mutable std::mutex admit_mutex_;
  std::condition_variable slot_free_;
  size_t inflight_ = 0;

  std::atomic<size_t> open_sessions_{0};
  std::atomic<uint64_t> next_session_id_{1};
};

/// One client's handle onto the Server. All query methods are safe to
/// call from any thread; the session-level interrupt flag makes
/// cancellation per-session — CancelCurrent() (or a SIGINT handler
/// writing interrupt_flag()) stops this session's in-flight query and
/// never another session's. A session used by several threads at once is
/// allowed; the interrupt then cancels whichever of its queries observes
/// the flag first.
class ClientSession : public std::enable_shared_from_this<ClientSession> {
 public:
  ~ClientSession();

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  // ---- Reads: admission-controlled, snapshot-pinned, governed. ----

  /// Exact SQL through the executor.
  Result<Table> ExecuteSql(const std::string& sql);
  /// Model-vs-exact arbitration (the Figure-2 transparent face).
  Result<HybridAnswer> ExecuteHybrid(const std::string& sql);
  /// Model-only answer (fails when no fresh covering model exists).
  Result<ApproxAnswer> ExecuteApprox(const std::string& sql);
  /// EXPLAIN ANALYZE through the hybrid engine.
  Result<std::string> ExplainAnalyze(const std::string& sql);
  /// Generic governed read over a pinned snapshot — the building block
  /// the methods above share, exposed for custom drivers and tests.
  Result<Table> ExecuteRead(
      const std::function<Result<Table>(const DatabaseSnapshot&)>& body);

  /// Asynchronous ExecuteSql multiplexed onto the process ThreadPool;
  /// admission control applies inside the task (queue wait is measured
  /// from task start). Keeps the session alive until completion.
  std::future<Result<Table>> SubmitSql(const std::string& sql);

  // ---- Writes: serialized snapshot commits (readers never blocked). --

  /// Registers (or replaces) `table` under `name`.
  Status CreateTable(const std::string& name, Table table);
  /// Appends `rows` (same arity and column types) copy-on-write: pinned
  /// readers keep seeing the pre-ingest table.
  Status Ingest(const std::string& name, const Table& rows);
  /// Drops the table and every model fitted over it.
  Status DropTable(const std::string& name);
  /// Registers an enumerable domain for (table, column).
  Status RegisterDomain(const std::string& table, const std::string& column,
                        ColumnDomain domain);
  /// Fits and captures a model (Figure 2 steps 1–3) as one commit.
  Result<FitReport> Fit(const FitRequest& request);
  /// Refits every model whose table moved on; one commit for the sweep.
  Result<RefitReport> RefitStale();
  /// Materializes a model grid as a table (MauveDB-style view).
  Result<size_t> MaterializeView(uint64_t model_id,
                                 const std::string& view_name);
  /// Wholesale replacement of tables+models (the shell `load` path).
  /// Domains are preserved.
  Status ReplaceDatabase(Catalog tables, ModelCatalog models);

  // ---- Session state. ----

  /// Pins the current snapshot for ungoverned reads (listings, exports).
  SnapshotPtr PinSnapshot() const;

  void set_limits(const ResourceLimits& limits);
  ResourceLimits limits() const;

  /// The session-lifetime interrupt flag. Writing true is async-signal-
  /// safe and cancels this session's current query at its next governor
  /// poll (or arms the next query when idle). The pointer stays valid
  /// for the session's lifetime — this is the safe alternative to
  /// publishing a per-query governor pointer to a signal handler.
  std::atomic<bool>* interrupt_flag() { return &interrupt_; }

  /// Cancels this session's in-flight query (cooperative, typed
  /// kCanceled). Never affects other sessions.
  void CancelCurrent() { interrupt_.store(true, std::memory_order_release); }

  /// Releases the session slot; further operations fail with kAborted.
  /// Idempotent; also called by the destructor.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  friend class Server;
  ClientSession(Server* server, uint64_t id, std::string name,
                const std::string& metrics_label);

  /// Admission + snapshot pin + governed execution + metrics, shared by
  /// every read path.
  template <typename T, typename Fn>
  Result<T> RunRead(Fn&& body);
  /// Admission + governed serialized commit + metrics, shared by every
  /// write path. `out_status` style: the commit's result.
  template <typename T, typename Fn>
  Result<T> RunWrite(Fn&& body);
  /// Guards against use-after-Close.
  Status CheckOpen() const;
  void RecordOutcome(const Status& status, int64_t micros);

  Server* const server_;
  const uint64_t id_;
  const std::string name_;

  mutable std::mutex limits_mutex_;
  ResourceLimits limits_;

  std::atomic<bool> interrupt_{false};
  std::atomic<bool> closed_{false};

  // Per-session attribution (PR-4 registry; stable pointers).
  Counter* queries_counter_;
  Counter* errors_counter_;
  Counter* rows_out_counter_;
  MetricHistogram* query_micros_;
};

}  // namespace laws

#endif  // LAWSDB_SERVE_SERVER_H_
