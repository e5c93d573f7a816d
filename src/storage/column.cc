#include "storage/column.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/governor.h"
#include "common/thread_pool.h"

namespace laws {

Column::Column(DataType type, bool nullable)
    : type_(type), nullable_(nullable) {}

void Column::PushValidity(bool valid) {
  if (!nullable_) {
    assert(valid);
    return;
  }
  const size_t i = size_;
  if ((i >> 3) >= validity_.size()) validity_.push_back(0xFF);
  if (valid) {
    validity_[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
  } else {
    validity_[i >> 3] &= static_cast<uint8_t>(~(1u << (i & 7)));
    ++null_count_;
  }
}

uint32_t Column::InternString(std::string_view s) {
  auto it = dictionary_index_.find(std::string(s));
  if (it != dictionary_index_.end()) return it->second;
  const auto code = static_cast<uint32_t>(dictionary_.size());
  dictionary_.emplace_back(s);
  dictionary_index_.emplace(dictionary_.back(), code);
  return code;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) return AppendNull();
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64()) return Status::TypeMismatch("expected INT64 value");
      AppendInt64(v.int64());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.dbl());
      } else if (v.is_int64()) {
        AppendDouble(static_cast<double>(v.int64()));
      } else {
        return Status::TypeMismatch("expected DOUBLE value");
      }
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) return Status::TypeMismatch("expected STRING value");
      AppendString(v.str());
      return Status::OK();
    case DataType::kBool:
      if (!v.is_bool()) return Status::TypeMismatch("expected BOOL value");
      AppendBool(v.boolean());
      return Status::OK();
  }
  return Status::Internal("corrupt column type");
}

void Column::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64);
  PushValidity(true);
  int64_data_.push_back(v);
  ++size_;
}

void Column::AppendDouble(double v) {
  assert(type_ == DataType::kDouble);
  PushValidity(true);
  double_data_.push_back(v);
  ++size_;
}

void Column::AppendString(std::string_view v) {
  assert(type_ == DataType::kString);
  PushValidity(true);
  string_codes_.push_back(InternString(v));
  ++size_;
}

void Column::AppendBool(bool v) {
  assert(type_ == DataType::kBool);
  PushValidity(true);
  bool_data_.push_back(v ? 1 : 0);
  ++size_;
}

Status Column::AppendNull() {
  if (!nullable_) {
    return Status::InvalidArgument("NULL appended to non-nullable column");
  }
  PushValidity(false);
  switch (type_) {
    case DataType::kInt64:
      int64_data_.push_back(0);
      break;
    case DataType::kDouble:
      double_data_.push_back(0.0);
      break;
    case DataType::kString:
      string_codes_.push_back(InternString(""));
      break;
    case DataType::kBool:
      bool_data_.push_back(0);
      break;
  }
  ++size_;
  return Status::OK();
}

void Column::AppendInt64Batch(const int64_t* values, const uint8_t* null8,
                              size_t n) {
  assert(type_ == DataType::kInt64);
  // No reserve(size+n) here: an exact-size reserve on every batch defeats
  // the vector's geometric growth and turns repeated appends quadratic.
  if (null8 == nullptr) {
    int64_data_.insert(int64_data_.end(), values, values + n);
    for (size_t i = 0; i < n; ++i) {
      PushValidity(true);
      ++size_;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const bool valid = null8[i] == 0;
    assert(nullable_ || valid);
    PushValidity(valid);
    int64_data_.push_back(valid ? values[i] : 0);
    ++size_;
  }
}

void Column::AppendDoubleBatch(const double* values, const uint8_t* null8,
                               size_t n) {
  assert(type_ == DataType::kDouble);
  if (null8 == nullptr) {
    double_data_.insert(double_data_.end(), values, values + n);
    for (size_t i = 0; i < n; ++i) {
      PushValidity(true);
      ++size_;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const bool valid = null8[i] == 0;
    assert(nullable_ || valid);
    PushValidity(valid);
    double_data_.push_back(valid ? values[i] : 0.0);
    ++size_;
  }
}

void Column::AppendBoolBatch(const uint8_t* values, const uint8_t* null8,
                             size_t n) {
  assert(type_ == DataType::kBool);
  if (null8 == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      PushValidity(true);
      bool_data_.push_back(values[i] != 0 ? 1 : 0);
      ++size_;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const bool valid = null8[i] == 0;
    assert(nullable_ || valid);
    PushValidity(valid);
    bool_data_.push_back(valid && values[i] != 0 ? 1 : 0);
    ++size_;
  }
}

Value Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(Int64At(i));
    case DataType::kDouble:
      return Value::Double(DoubleAt(i));
    case DataType::kString:
      return Value::String(std::string(StringAt(i)));
    case DataType::kBool:
      return Value::Bool(BoolAt(i));
  }
  return Value::Null();
}

Result<double> Column::NumericAt(size_t i) const {
  if (IsNull(i)) return Status::TypeMismatch("NULL has no numeric value");
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(Int64At(i));
    case DataType::kDouble:
      return DoubleAt(i);
    case DataType::kBool:
      return BoolAt(i) ? 1.0 : 0.0;
    case DataType::kString:
      return Status::TypeMismatch("string column is not numeric");
  }
  return Status::Internal("corrupt column type");
}

Result<std::vector<double>> Column::ToDoubleVector() const {
  if (type_ == DataType::kString) {
    return Status::TypeMismatch("string column is not numeric");
  }
  std::vector<double> out;
  out.reserve(size_ - null_count_);
  for (size_t i = 0; i < size_; ++i) {
    if (IsNull(i)) continue;
    switch (type_) {
      case DataType::kInt64:
        out.push_back(static_cast<double>(int64_data_[i]));
        break;
      case DataType::kDouble:
        out.push_back(double_data_[i]);
        break;
      case DataType::kBool:
        out.push_back(bool_data_[i] ? 1.0 : 0.0);
        break;
      case DataType::kString:
        break;  // unreachable
    }
  }
  return out;
}

Status Column::GatherNumeric(const uint32_t* rows, size_t n,
                             double* out) const {
  switch (type_) {
    case DataType::kInt64: {
      const int64_t* data = int64_data_.data();
      for (size_t i = 0; i < n; ++i) {
        out[i] = static_cast<double>(data[rows[i]]);
      }
      return Status::OK();
    }
    case DataType::kDouble: {
      const double* data = double_data_.data();
      for (size_t i = 0; i < n; ++i) out[i] = data[rows[i]];
      return Status::OK();
    }
    case DataType::kBool: {
      const uint8_t* data = bool_data_.data();
      for (size_t i = 0; i < n; ++i) out[i] = data[rows[i]] ? 1.0 : 0.0;
      return Status::OK();
    }
    case DataType::kString:
      return Status::TypeMismatch("string column is not numeric");
  }
  return Status::Internal("corrupt column type");
}

Status Column::GatherNumericTransformed(const uint32_t* rows, size_t n,
                                        double* out,
                                        NumericTransform transform) const {
  if (transform == NumericTransform::kIdentity) {
    return GatherNumeric(rows, n, out);
  }
  // kLog, fused with the type dispatch so each value is touched once.
  switch (type_) {
    case DataType::kInt64: {
      const int64_t* data = int64_data_.data();
      for (size_t i = 0; i < n; ++i) {
        out[i] = std::log(static_cast<double>(data[rows[i]]));
      }
      return Status::OK();
    }
    case DataType::kDouble: {
      const double* data = double_data_.data();
      for (size_t i = 0; i < n; ++i) out[i] = std::log(data[rows[i]]);
      return Status::OK();
    }
    case DataType::kBool: {
      const uint8_t* data = bool_data_.data();
      for (size_t i = 0; i < n; ++i) {
        out[i] = data[rows[i]] ? 0.0
                               : -std::numeric_limits<double>::infinity();
      }
      return Status::OK();
    }
    case DataType::kString:
      return Status::TypeMismatch("string column is not numeric");
  }
  return Status::Internal("corrupt column type");
}

Result<size_t> Column::GatherNumericMasked(const uint32_t* rows, size_t n,
                                           double* out,
                                           uint8_t* null_mask) const {
  LAWS_RETURN_IF_ERROR(GatherNumeric(rows, n, out));
  if (!nullable_ || validity_.empty()) {
    if (null_mask != nullptr) {
      for (size_t i = 0; i < n; ++i) null_mask[i] = 0;
    }
    return n;
  }
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  size_t non_null = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool valid = ValidAt(rows[i]);
    if (valid) {
      ++non_null;
    } else {
      out[i] = kNan;
    }
    if (null_mask != nullptr) null_mask[i] = valid ? 0 : 1;
  }
  return non_null;
}

Column Column::FromInt64Vector(std::vector<int64_t> values) {
  Column out(DataType::kInt64, /*nullable=*/false);
  out.size_ = values.size();
  out.int64_data_ = std::move(values);
  return out;
}

Column Column::FromDoubleVector(std::vector<double> values) {
  Column out(DataType::kDouble, /*nullable=*/false);
  out.size_ = values.size();
  out.double_data_ = std::move(values);
  return out;
}

Column Column::FromBoolVector(std::vector<uint8_t> values) {
  Column out(DataType::kBool, /*nullable=*/false);
  out.size_ = values.size();
  out.bool_data_ = std::move(values);
  return out;
}

void Column::SetValidity(std::vector<uint8_t> validity) {
  assert(type_ != DataType::kString);
  const size_t bytes = (size_ + 7) / 8;
  assert(validity.empty() || validity.size() == bytes);
  nullable_ = true;
  validity_ = std::move(validity);
  if (validity_.empty()) validity_.assign(bytes, 0xFF);
  if (size_ % 8 != 0) {
    validity_.back() |= static_cast<uint8_t>(0xFF << (size_ % 8));
  }
  null_count_ = 0;
  for (size_t b = 0; b < bytes; ++b) {
    if (validity_[b] == 0xFF) continue;
    for (size_t i = b * 8; i < std::min(size_, b * 8 + 8); ++i) {
      if (ValidAt(i)) continue;
      ++null_count_;
      switch (type_) {
        case DataType::kInt64:
          int64_data_[i] = 0;
          break;
        case DataType::kDouble:
          double_data_[i] = 0.0;
          break;
        case DataType::kBool:
          bool_data_[i] = 0;
          break;
        case DataType::kString:
          break;
      }
    }
  }
}

namespace {

/// Gather rows per chunk at least: inputs under 128K rows run on the
/// calling thread.
constexpr size_t kGatherGrainRows = 65536;

}  // namespace

Result<Column> Column::Gather(const std::vector<uint32_t>& indices) const {
  const size_t n = indices.size();
  if (type_ == DataType::kString) {
    // Per row, so the dictionary is re-interned in first-seen order.
    Column out(type_, nullable_);
    for (size_t k = 0; k < n; ++k) {
      if (k % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
      const uint32_t i = indices[k];
      if (IsNull(i)) {
        (void)out.AppendNull();
      } else {
        out.AppendString(StringAt(i));
      }
    }
    return out;
  }

  // The caller sizes every buffer (DESIGN.md §6); lanes fill eight rows
  // per validity byte, so no two lanes share a byte.
  const size_t bytes = (n + 7) / 8;
  const bool masked = nullable_ && !validity_.empty();
  std::vector<uint8_t> validity(masked ? bytes : 0);
  std::vector<int64_t> i64(type_ == DataType::kInt64 ? n : 0);
  std::vector<double> f64(type_ == DataType::kDouble ? n : 0);
  std::vector<uint8_t> b8(type_ == DataType::kBool ? n : 0);
  ParallelForChunks(
      0, bytes,
      [&](size_t lo, size_t hi) {
        const size_t begin = lo * 8;
        const size_t end = std::min(n, hi * 8);
        const uint32_t* idx = indices.data();
        switch (type_) {
          case DataType::kInt64:
            for (size_t k = begin; k < end; ++k) {
              i64[k] = int64_data_[idx[k]];
            }
            break;
          case DataType::kDouble:
            for (size_t k = begin; k < end; ++k) {
              f64[k] = double_data_[idx[k]];
            }
            break;
          case DataType::kBool:
            for (size_t k = begin; k < end; ++k) {
              b8[k] = static_cast<uint8_t>(bool_data_[idx[k]] != 0);
            }
            break;
          case DataType::kString:
            break;
        }
        if (!masked) return;
        for (size_t k = begin; k < end; ++k) {
          validity[k >> 3] |= static_cast<uint8_t>(
              static_cast<unsigned>(ValidAt(idx[k])) << (k & 7));
        }
      },
      {.grain = kGatherGrainRows / 8});
  // A tripped governor skips chunk bodies, leaving rows unwritten.
  LAWS_GOVERNOR_POLL();

  Column out(type_);
  switch (type_) {
    case DataType::kInt64:
      out = FromInt64Vector(std::move(i64));
      break;
    case DataType::kDouble:
      out = FromDoubleVector(std::move(f64));
      break;
    case DataType::kBool:
      out = FromBoolVector(std::move(b8));
      break;
    case DataType::kString:
      break;
  }
  // SetValidity zeroes NULL rows, sets the padding bits and counts the
  // NULLs, so the column equals one built by per-row appends.
  if (nullable_) out.SetValidity(std::move(validity));
  return out;
}

namespace {

/// A copy of `v` with capacity for `capacity` elements.
template <typename T>
std::vector<T> CopyWithCapacity(const std::vector<T>& v, size_t capacity) {
  std::vector<T> copy;
  copy.reserve(std::max(capacity, v.size()));
  copy.insert(copy.end(), v.begin(), v.end());
  return copy;
}

}  // namespace

Column Column::CopyWithRoom(size_t extra_rows) const {
  const size_t rows = size_ + extra_rows;
  Column copy(type_, nullable_);
  copy.size_ = size_;
  copy.null_count_ = null_count_;
  switch (type_) {
    case DataType::kInt64:
      copy.int64_data_ = CopyWithCapacity(int64_data_, rows);
      break;
    case DataType::kDouble:
      copy.double_data_ = CopyWithCapacity(double_data_, rows);
      break;
    case DataType::kString:
      copy.string_codes_ = CopyWithCapacity(string_codes_, rows);
      copy.dictionary_ = dictionary_;
      copy.dictionary_index_ = dictionary_index_;
      break;
    case DataType::kBool:
      copy.bool_data_ = CopyWithCapacity(bool_data_, rows);
      break;
  }
  copy.validity_ = CopyWithCapacity(validity_, nullable_ ? (rows + 7) / 8 : 0);
  return copy;
}

size_t Column::MemoryBytes() const {
  size_t bytes = validity_.size();
  switch (type_) {
    case DataType::kInt64:
      bytes += int64_data_.size() * sizeof(int64_t);
      break;
    case DataType::kDouble:
      bytes += double_data_.size() * sizeof(double);
      break;
    case DataType::kString:
      bytes += string_codes_.size() * sizeof(uint32_t);
      for (const auto& s : dictionary_) bytes += s.size();
      break;
    case DataType::kBool:
      bytes += bool_data_.size();
      break;
  }
  return bytes;
}

Result<uint32_t> Column::DictionaryCode(std::string_view s) const {
  auto it = dictionary_index_.find(std::string(s));
  if (it == dictionary_index_.end()) {
    return Status::NotFound("string not in dictionary: " + std::string(s));
  }
  return it->second;
}

}  // namespace laws
