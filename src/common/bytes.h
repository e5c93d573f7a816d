#ifndef LAWSDB_COMMON_BYTES_H_
#define LAWSDB_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace laws {

/// Bytes ByteWriter::PutVarint takes for `v`.
inline size_t VarintSize(uint64_t v) {
  size_t bytes = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++bytes;
  }
  return bytes;
}

/// Append-only little-endian byte sink used by storage serialization and the
/// compression encoders.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends to `buf`, keeping its contents and capacity (so a buffer the
  /// caller reserved is written without reallocating).
  explicit ByteWriter(std::vector<uint8_t> buf) : buf_(std::move(buf)) {}

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  /// LEB128 unsigned varint.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Zigzag-encoded signed varint.
  void PutSignedVarint(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  /// Length-prefixed string.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutRaw(s.data(), s.size());
  }

  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> TakeData() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential little-endian reader over a byte span; every accessor is
/// bounds-checked and returns a Status/Result rather than reading past the
/// end.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Truncated("u8");
    return data_[pos_++];
  }
  Result<uint32_t> GetU32() { return GetRawAs<uint32_t>("u32"); }
  Result<uint64_t> GetU64() { return GetRawAs<uint64_t>("u64"); }
  Result<int64_t> GetI64() { return GetRawAs<int64_t>("i64"); }
  Result<double> GetDouble() { return GetRawAs<double>("double"); }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_) return Truncated("varint");
      const uint8_t b = data_[pos_++];
      if (shift >= 64) return Status::ParseError("varint too long");
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
  }

  Result<int64_t> GetSignedVarint() {
    LAWS_ASSIGN_OR_RETURN(uint64_t z, GetVarint());
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  Result<std::string> GetString() {
    LAWS_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
    // `n > remaining()` rather than `pos_ + n > size_`: a corrupt varint
    // near UINT64_MAX would wrap the addition and pass the check.
    if (n > remaining()) return Truncated("string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }

  Status GetRaw(void* out, size_t n) {
    if (n > remaining()) return Truncated("raw");
    if (n == 0) return Status::OK();  // out may be null (empty vector .data())
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Returns the next `n` bytes in place and skips past them.
  Result<const uint8_t*> GetView(size_t n) {
    if (n > remaining()) return Truncated("raw");
    const uint8_t* view = data_ + pos_;
    pos_ += n;
    return view;
  }

  /// Reads a varint element count and validates it against the bytes that
  /// are actually left: a count claiming more than
  /// remaining() / min_bytes_per_elem elements cannot possibly be satisfied
  /// by this buffer, so it fails fast with kParseError instead of letting
  /// the caller allocate gigabytes from a corrupt length. Use for every
  /// resize()/reserve() driven by deserialized data whose per-element
  /// encoded size has a fixed lower bound.
  Result<uint64_t> GetCount(uint64_t min_bytes_per_elem, const char* what) {
    LAWS_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
    const uint64_t denom = min_bytes_per_elem == 0 ? 1 : min_bytes_per_elem;
    if (n > remaining() / denom) {
      return Status::ParseError(std::string("implausible count reading ") +
                                what);
    }
    return n;
  }

  /// Overflow-safe bounds check for an upcoming `count` elements of
  /// `elem_bytes` each (e.g. before resize()+GetRaw of a typed payload).
  Status CheckAvailable(uint64_t count, uint64_t elem_bytes,
                        const char* what) const {
    const uint64_t denom = elem_bytes == 0 ? 1 : elem_bytes;
    if (count > remaining() / denom) return Truncated(what);
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> GetRawAs(const char* what) {
    if (sizeof(T) > remaining()) return Truncated(what);
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Status Truncated(const char* what) const {
    return Status::ParseError(std::string("truncated buffer reading ") + what);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace laws

#endif  // LAWSDB_COMMON_BYTES_H_
