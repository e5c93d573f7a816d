#ifndef LAWSDB_STORAGE_TABLE_H_
#define LAWSDB_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace laws {

/// An in-memory columnar table. Mutations bump a data version counter that
/// the model-capture layer (laws::core) uses to detect stale fits — the
/// paper's "Data or model changes" challenge.
class Table {
 public:
  explicit Table(Schema schema);

  /// Builds a table from pre-populated columns; all columns must match the
  /// schema types and have equal length.
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Direct mutable access for bulk loaders; call SyncRowCount() afterwards
  /// to re-validate lengths and publish the new row count.
  Column* mutable_column(size_t i) { return &columns_[i]; }

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

  /// New table with the rows at `indices`, in order.
  Table GatherRows(const std::vector<uint32_t>& indices) const;

  /// Monotonic counter incremented by every mutation.
  uint64_t data_version() const { return data_version_; }

  /// Total columnar heap footprint in bytes.
  size_t MemoryBytes() const;

  /// Pretty-prints up to `max_rows` rows with a header (for examples/CLIs).
  std::string ToString(size_t max_rows = 10) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  uint64_t data_version_ = 0;
};

using TablePtr = std::shared_ptr<Table>;

/// The rows [begin, end) of a table.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
};

}  // namespace laws

#endif  // LAWSDB_STORAGE_TABLE_H_
