#include "storage/table.h"

#include <algorithm>
#include <numeric>

namespace laws {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.emplace_back(f.type, f.nullable);
  }
}

Result<Table> Table::FromColumns(Schema schema, std::vector<Column> columns) {
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  return FromColumns(std::move(schema), std::move(columns), rows);
}

Result<Table> Table::FromColumns(Schema schema, std::vector<Column> columns,
                                 size_t rows) {
  if (schema.num_fields() != columns.size()) {
    return Status::InvalidArgument("schema/column count mismatch");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.field(i).type) {
      return Status::TypeMismatch("column type does not match schema field '" +
                                  schema.field(i).name + "'");
    }
    if (columns[i].size() != rows) {
      return Status::InvalidArgument("ragged columns");
    }
  }
  Table t(std::move(schema));
  t.columns_ = std::move(columns);
  t.num_rows_ = rows;
  t.data_version_ = 1;
  return t;
}

Table Table::CopyWithRoom(size_t extra_rows) const {
  Table copy(schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    copy.columns_[c] = columns_[c].CopyWithRoom(extra_rows);
  }
  copy.num_rows_ = num_rows_;
  copy.data_version_ = data_version_;
  return copy;
}

Result<const Column*> Table::ColumnByName(std::string_view name) const {
  LAWS_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(name));
  return &columns_[idx];
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("row arity does not match table");
  }
  // Validate before mutating so a failed append leaves the table unchanged.
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) {
      if (!schema_.field(i).nullable) {
        return Status::InvalidArgument("NULL for non-nullable field '" +
                                       schema_.field(i).name + "'");
      }
      continue;
    }
    const DataType t = schema_.field(i).type;
    const Value& v = values[i];
    const bool ok = (t == DataType::kInt64 && v.is_int64()) ||
                    (t == DataType::kDouble &&
                     (v.is_double() || v.is_int64())) ||
                    (t == DataType::kString && v.is_string()) ||
                    (t == DataType::kBool && v.is_bool());
    if (!ok) {
      return Status::TypeMismatch("value type mismatch for field '" +
                                  schema_.field(i).name + "'");
    }
  }
  block_index_.index.reset();
  for (size_t i = 0; i < values.size(); ++i) {
    LAWS_RETURN_IF_ERROR(columns_[i].AppendValue(values[i]));
  }
  ++num_rows_;
  ++data_version_;
  return Status::OK();
}

Status Table::SyncRowCount() {
  size_t rows = columns_.empty() ? 0 : columns_[0].size();
  for (const Column& c : columns_) {
    if (c.size() != rows) {
      return Status::Internal("ragged columns after bulk load");
    }
  }
  block_index_.index.reset();
  num_rows_ = rows;
  ++data_version_;
  return Status::OK();
}

std::shared_ptr<const BlockIndex> Table::block_index() const {
  return std::atomic_load(&block_index_.index);
}

std::shared_ptr<const BlockIndex> Table::BlockIndexOrBuild(
    const std::function<std::shared_ptr<const BlockIndex>()>& build) const {
  if (auto index = block_index()) return index;
  std::lock_guard<std::mutex> lock(block_index_.build_mutex);
  // A build that finished while this caller waited installed its index.
  if (auto index = block_index()) return index;
  std::shared_ptr<const BlockIndex> index = build();
  // The free functions, not std::atomic<std::shared_ptr>: libstdc++ 12's
  // atomic<shared_ptr>::load releases its lock bit with a relaxed store,
  // which ThreadSanitizer reports as a race with a concurrent store.
  std::atomic_store(&block_index_.index, index);
  return index;
}

Result<Table> Table::GatherRows(const std::vector<uint32_t>& indices) const {
  std::vector<size_t> all(columns_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  return GatherRows(indices, all);
}

Result<Table> Table::GatherRows(const std::vector<uint32_t>& indices,
                                const std::vector<size_t>& columns) const {
  std::vector<Field> fields;
  for (const size_t c : columns) fields.push_back(schema_.field(c));
  Table out{Schema(std::move(fields))};
  for (size_t k = 0; k < columns.size(); ++k) {
    LAWS_ASSIGN_OR_RETURN(out.columns_[k], columns_[columns[k]].Gather(indices));
  }
  out.num_rows_ = indices.size();
  out.data_version_ = 1;
  return out;
}

size_t Table::MemoryBytes() const {
  size_t bytes = 0;
  for (const Column& c : columns_) bytes += c.MemoryBytes();
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString();
  out += "\n";
  const size_t shown = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += " | ";
      out += columns_[c].GetValue(r).ToString();
    }
    out += "\n";
  }
  if (shown < num_rows_) {
    out += "[" + std::to_string(num_rows_ - shown) + " more rows]\n";
  }
  return out;
}

}  // namespace laws
