#ifndef LAWSDB_SERVE_SNAPSHOT_H_
#define LAWSDB_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "aqp/domain.h"
#include "common/result.h"
#include "core/model_catalog.h"
#include "storage/catalog.h"

namespace laws {

/// One immutable, epoch-stamped view of the whole database: table
/// bindings, captured models, and enumerable domains. Readers treat a
/// snapshot as frozen — nothing reachable from it is ever mutated after
/// publication, so a long analytical query can hold one for seconds
/// while ingest, refits, and drops commit new epochs beside it.
///
/// Table payloads are shared across epochs by shared_ptr; writers follow
/// copy-on-write discipline (clone the Table, append to the clone,
/// rebind the name), so the bindings differ between epochs but untouched
/// tables are never duplicated.
struct DatabaseSnapshot {
  /// Monotone commit counter; epoch 0 is the empty database.
  uint64_t epoch = 0;
  Catalog tables;
  ModelCatalog models;
  DomainRegistry domains;
};

using SnapshotPtr = std::shared_ptr<const DatabaseSnapshot>;

/// The snapshot-isolated catalog at the heart of the serving layer
/// (DESIGN.md §16): readers pin the current snapshot with one brief
/// mutex acquisition and then run lock-free against immutable state;
/// writers serialize on a commit mutex, mutate a private copy of the
/// catalogs (copy-and-swap), and publish it as epoch N+1. Readers never
/// block writers and writers never block readers — the only shared
/// critical section is the pointer swap.
class SnapshotCatalog {
 public:
  SnapshotCatalog();

  SnapshotCatalog(const SnapshotCatalog&) = delete;
  SnapshotCatalog& operator=(const SnapshotCatalog&) = delete;

  /// Pins the current snapshot. O(1): one mutex + one shared_ptr copy.
  /// The snapshot stays valid (and its tables alive) for as long as the
  /// caller holds the pointer, regardless of subsequent commits.
  SnapshotPtr Pin() const;

  /// Epoch of the current snapshot.
  uint64_t epoch() const { return Pin()->epoch; }

  /// Runs `mutate` on a writable copy of the current snapshot and, iff
  /// it returns OK, publishes the copy as the next epoch. On error
  /// nothing is published — a failed commit is invisible to readers.
  /// Writers are serialized: the copy is always taken from the latest
  /// epoch, so commits never lose updates. The mutator must honor
  /// copy-on-write for table payloads (see MutableTableForWrite).
  Status Commit(const std::function<Status(DatabaseSnapshot*)>& mutate);

  /// Copy-on-write helper for mutators: returns a freshly cloned Table
  /// bound to `name` inside `db`, safe to mutate (the shared payload the
  /// binding previously pointed at is left untouched for readers). The
  /// clone is allocated once, with room for `extra_rows` appended rows, so
  /// a writer that appends that many copies the table only here.
  /// NotFound when the table does not exist.
  static Result<TablePtr> MutableTableForWrite(DatabaseSnapshot* db,
                                               const std::string& name,
                                               size_t extra_rows = 0);

 private:
  /// Serializes writers (held across clone + mutate + publish).
  std::mutex commit_mutex_;
  /// Guards only the `current_` pointer swap/copy.
  mutable std::mutex publish_mutex_;
  SnapshotPtr current_;
};

}  // namespace laws

#endif  // LAWSDB_SERVE_SNAPSHOT_H_
