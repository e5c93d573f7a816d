#ifndef LAWSDB_STORAGE_COLUMN_H_
#define LAWSDB_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/numeric_transform.h"
#include "common/result.h"
#include "storage/types.h"

namespace laws {

/// A single in-memory column. Storage is columnar and fully typed:
///   - INT64  -> std::vector<int64_t>
///   - DOUBLE -> std::vector<double>
///   - STRING -> dictionary encoding (unique strings + uint32 codes)
///   - BOOL   -> std::vector<uint8_t>
/// Nulls are tracked in a packed validity bitmap (1 = valid). Hot paths use
/// the typed accessors / raw data views; Value-based access exists for
/// convenience at the edges (parsing, printing, row assembly).
class Column {
 public:
  explicit Column(DataType type, bool nullable = true);

  DataType type() const { return type_; }
  bool nullable() const { return nullable_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }

  // --- Appends -----------------------------------------------------------

  /// Appends a Value; checks type compatibility (int64 accepted into double
  /// columns) and nullability.
  Status AppendValue(const Value& v);

  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendBool(bool v);

  /// Appends NULL; returns InvalidArgument for non-nullable columns.
  Status AppendNull();

  /// Batch appends: the bulk materialization path for the vectorized
  /// expression evaluator. `null8` is one byte per lane (1 = NULL, the
  /// GatherNumericMasked convention) or nullptr when no lane is NULL;
  /// NULL lanes append a zeroed backing slot exactly like AppendNull, so
  /// the resulting column is byte-identical to per-element appends. The
  /// column must be nullable when `null8` contains a set bit.
  void AppendInt64Batch(const int64_t* values, const uint8_t* null8, size_t n);
  void AppendDoubleBatch(const double* values, const uint8_t* null8, size_t n);
  void AppendBoolBatch(const uint8_t* values, const uint8_t* null8, size_t n);

  // --- Element access ----------------------------------------------------

  bool IsNull(size_t i) const { return !ValidAt(i); }

  int64_t Int64At(size_t i) const { return int64_data_[i]; }
  double DoubleAt(size_t i) const { return double_data_[i]; }
  std::string_view StringAt(size_t i) const {
    return dictionary_[string_codes_[i]];
  }
  bool BoolAt(size_t i) const { return bool_data_[i] != 0; }

  /// Boxed access (NULL-aware); slow path.
  Value GetValue(size_t i) const;

  /// Numeric coercion of element i (int64/double/bool -> double). Error on
  /// NULL or string.
  Result<double> NumericAt(size_t i) const;

  // --- Bulk views --------------------------------------------------------

  const std::vector<int64_t>& int64_data() const { return int64_data_; }
  const std::vector<double>& double_data() const { return double_data_; }
  const std::vector<uint32_t>& string_codes() const { return string_codes_; }
  const std::vector<std::string>& dictionary() const { return dictionary_; }
  const std::vector<uint8_t>& bool_data() const { return bool_data_; }
  const std::vector<uint8_t>& validity() const { return validity_; }

  /// All non-null values coerced to double (order preserved); error for
  /// string columns. The workhorse extraction for model fitting.
  Result<std::vector<double>> ToDoubleVector() const;

  /// Bulk numeric gather: coerces the elements at `rows[0..n)` to double
  /// into `out` (int64/double/bool -> double), one type dispatch for the
  /// whole batch instead of a Result-wrapped virtual call per cell — the
  /// fast path for grouped-fit matrix assembly. Rows must be in range and
  /// non-NULL (a NULL row silently gathers its zeroed backing slot); use
  /// GatherNumericMasked when rows may contain NULLs. Error for string
  /// columns.
  Status GatherNumeric(const uint32_t* rows, size_t n, double* out) const;

  /// Fused gather-transform: like GatherNumeric but applies `transform`
  /// to each value in the same pass, so callers that fit in transformed
  /// space (log-log OLS for power laws) materialize log(x) directly
  /// instead of gather-then-transform. Out-of-domain values (log of zero
  /// or a negative) land as -inf/NaN for the caller's domain check; rows
  /// must be in range and non-NULL, as for GatherNumeric. Error for
  /// string columns.
  Status GatherNumericTransformed(const uint32_t* rows, size_t n, double* out,
                                  NumericTransform transform) const;

  /// Null-mask-aware variant: NULL rows gather as quiet NaN and set
  /// null_mask[i] = 1 (valid rows set 0). `null_mask` may be nullptr when
  /// only the NaN sentinel is wanted. Returns the number of non-NULL rows
  /// gathered.
  Result<size_t> GatherNumericMasked(const uint32_t* rows, size_t n,
                                     double* out, uint8_t* null_mask) const;

  /// Builds a non-nullable INT64 column by moving `values` into place (no
  /// per-element append) — the bulk-construction path for generators.
  static Column FromInt64Vector(std::vector<int64_t> values);

  /// Builds a non-nullable DOUBLE column by moving `values` into place.
  static Column FromDoubleVector(std::vector<double> values);

  /// Builds a non-nullable BOOL column by moving `values` (each 0 or 1)
  /// into place.
  static Column FromBoolVector(std::vector<uint8_t> values);

  /// Makes the column nullable with the packed `validity` bitmap (1 =
  /// valid, (size() + 7) / 8 bytes, or empty for "no row is NULL"). NULL
  /// rows' backing slots are zeroed and the padding bits set, so a column
  /// built by From*Vector plus this equals one built by per-row appends —
  /// the bulk path for decoders. Not for STRING columns.
  void SetValidity(std::vector<uint8_t> validity);

  /// New column containing rows at `indices` (in that order), equal byte
  /// for byte to one built by appending those rows one by one. INT64,
  /// DOUBLE and BOOL fill by index on the pool's lanes (at least 64K
  /// rows per chunk); STRING appends per row, re-interning the
  /// dictionary in first-seen order. Fails only with the governor's
  /// error when the query it runs under is canceled or out of time.
  Result<Column> Gather(const std::vector<uint32_t>& indices) const;

  /// A copy with capacity for `extra_rows` more rows: appending that many
  /// moves neither the values nor the validity bitmap.
  Column CopyWithRoom(size_t extra_rows) const;

  /// Approximate heap footprint in bytes, the basis of all storage-size
  /// accounting in the experiments.
  size_t MemoryBytes() const;

  /// Dictionary code for `s` if it appears in this column's dictionary.
  Result<uint32_t> DictionaryCode(std::string_view s) const;

 private:
  bool ValidAt(size_t i) const {
    if (!nullable_ || validity_.empty()) return true;
    return (validity_[i >> 3] >> (i & 7)) & 1;
  }
  void PushValidity(bool valid);
  uint32_t InternString(std::string_view s);

  DataType type_;
  bool nullable_;
  size_t size_ = 0;
  size_t null_count_ = 0;

  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;
  std::vector<uint32_t> string_codes_;
  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, uint32_t> dictionary_index_;
  std::vector<uint8_t> bool_data_;
  std::vector<uint8_t> validity_;  // packed, 1 = valid; empty = all valid
};

}  // namespace laws

#endif  // LAWSDB_STORAGE_COLUMN_H_
