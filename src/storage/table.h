#ifndef LAWSDB_STORAGE_TABLE_H_
#define LAWSDB_STORAGE_TABLE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace laws {

struct BlockIndex;  // compress/block_store.h

/// An in-memory columnar table. Mutations bump a data version counter that
/// the model-capture layer (laws::core) uses to detect stale fits — the
/// paper's "Data or model changes" challenge.
///
/// The table also owns the block index built over its rows (DESIGN.md
/// §14). Every mutation empties that slot, and a copy or move of a table
/// starts without an index.
class Table {
 public:
  explicit Table(Schema schema);

  /// Builds a table from pre-populated columns; all columns must match the
  /// schema types and have equal length.
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns);

  /// The same with the row count given, so that a table without columns
  /// (SELECT * over one, say) keeps its rows; every column must have
  /// `num_rows` rows.
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns,
                                   size_t num_rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Direct mutable access for bulk loaders; call SyncRowCount() afterwards
  /// to re-validate lengths and publish the new row count.
  Column* mutable_column(size_t i) {
    block_index_.index.reset();
    return &columns_[i];
  }

  /// Column lookup by (case-insensitive) name.
  Result<const Column*> ColumnByName(std::string_view name) const;

  /// Appends one row; `values.size()` must equal the column count.
  Status AppendRow(const std::vector<Value>& values);

  /// Re-checks that all columns have equal length after bulk loading via
  /// mutable_column(), then publishes that length as the row count.
  Status SyncRowCount();

  /// Boxed cell access (slow path).
  Value GetValue(size_t row, size_t col) const {
    return columns_[col].GetValue(row);
  }

  /// New table with the rows at `indices`, in order (Column::Gather per
  /// column). Fails only with the governor's error.
  Result<Table> GatherRows(const std::vector<uint32_t>& indices) const;

  /// The same for only the columns at schema positions `columns`, in that
  /// order: a table of indices.size() rows, even with no column.
  Result<Table> GatherRows(const std::vector<uint32_t>& indices,
                           const std::vector<size_t>& columns) const;

  /// A copy whose columns have room for `extra_rows` more rows, so that
  /// appending that many moves no column's data. Like every copy, it
  /// starts without a block index.
  Table CopyWithRoom(size_t extra_rows) const;

  /// Monotonic counter incremented by every mutation.
  uint64_t data_version() const { return data_version_; }

  /// The block index over the current rows, or nullptr when none has been
  /// installed since the last mutation. Safe on any thread.
  std::shared_ptr<const BlockIndex> block_index() const;

  /// Returns the installed block index; when there is none, runs `build`
  /// over the current rows and installs its index. One build runs per
  /// table at a time: a caller that finds the slot empty while another
  /// builds waits for that build and takes its index. `build` runs on the
  /// calling thread and must not wait on pool tasks, since a waiter may
  /// be a pool worker. Safe on any thread; mutations are not.
  std::shared_ptr<const BlockIndex> BlockIndexOrBuild(
      const std::function<std::shared_ptr<const BlockIndex>()>& build) const;

  /// Total columnar heap footprint in bytes.
  size_t MemoryBytes() const;

  /// Pretty-prints up to `max_rows` rows with a header (for examples/CLIs).
  std::string ToString(size_t max_rows = 10) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  uint64_t data_version_ = 0;

  /// Describes the rows of this object only, so it copies and moves as
  /// empty (a moved-from table loses it with its rows), and with a build
  /// lock of its own. Readers and the builder go through std::atomic_load
  /// / atomic_store; mutations, which need exclusive access anyway, reset
  /// it directly.
  struct IndexSlot {
    std::shared_ptr<const BlockIndex> index;
    std::mutex build_mutex;  // held by the one build in flight

    IndexSlot() = default;
    IndexSlot(const IndexSlot&) {}
    IndexSlot(IndexSlot&& other) noexcept { other.index.reset(); }
    IndexSlot& operator=(const IndexSlot&) {
      index.reset();
      return *this;
    }
    IndexSlot& operator=(IndexSlot&& other) noexcept {
      index.reset();
      other.index.reset();
      return *this;
    }
  };
  mutable IndexSlot block_index_;
};

using TablePtr = std::shared_ptr<Table>;

/// The rows [begin, end) of a table.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
};

}  // namespace laws

#endif  // LAWSDB_STORAGE_TABLE_H_
