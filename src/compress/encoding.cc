#include "compress/encoding.h"

#include <zlib.h>

#include <algorithm>
#include <cstring>

namespace laws {

void RleEncodeInt64(const std::vector<int64_t>& values, ByteWriter* out) {
  out->PutVarint(values.size());
  size_t i = 0;
  while (i < values.size()) {
    const int64_t v = values[i];
    size_t run = 1;
    while (i + run < values.size() && values[i + run] == v) ++run;
    out->PutSignedVarint(v);
    out->PutVarint(run);
    i += run;
  }
}

Status RleDecodeInt64(ByteReader* in, int64_t* out, uint64_t n) {
  LAWS_ASSIGN_OR_RETURN(uint64_t count, in->GetVarint());
  if (count != n) {
    return Status::ParseError("RLE element count does not match row count");
  }
  uint64_t filled = 0;
  while (filled < n) {
    LAWS_ASSIGN_OR_RETURN(int64_t v, in->GetSignedVarint());
    LAWS_ASSIGN_OR_RETURN(uint64_t run, in->GetVarint());
    if (run == 0 || run > n - filled) {
      return Status::ParseError("corrupt RLE run");
    }
    std::fill_n(out + filled, run, v);
    filled += run;
  }
  return Status::OK();
}

void DeltaVarintEncodeInt64(const std::vector<int64_t>& values,
                            ByteWriter* out) {
  out->PutVarint(values.size());
  int64_t prev = 0;
  for (int64_t v : values) {
    // Wrapping subtraction keeps the transform invertible at extremes.
    out->PutSignedVarint(static_cast<int64_t>(static_cast<uint64_t>(v) -
                                              static_cast<uint64_t>(prev)));
    prev = v;
  }
}

Status DeltaVarintDecodeInt64(ByteReader* in, int64_t* out, uint64_t n) {
  LAWS_ASSIGN_OR_RETURN(uint64_t count, in->GetVarint());
  if (count != n) {
    return Status::ParseError(
        "delta-varint element count does not match row count");
  }
  int64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    LAWS_ASSIGN_OR_RETURN(int64_t d, in->GetSignedVarint());
    prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                static_cast<uint64_t>(d));
    out[i] = prev;
  }
  return Status::OK();
}

void BitPackEncodeInt64(const std::vector<int64_t>& values, ByteWriter* out) {
  out->PutVarint(values.size());
  if (values.empty()) return;
  int64_t lo = values[0], hi = values[0];
  for (int64_t v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  int width = 0;
  while (width < 64 && (width == 64 ? 0 : (range >> width)) != 0) ++width;
  out->PutSignedVarint(lo);
  // Widths above 56 cannot be packed through a 64-bit accumulator with a
  // partial byte pending; store raw values under a sentinel width instead.
  if (width > 56) {
    out->PutU8(255);
    for (int64_t v : values) out->PutI64(v);
    return;
  }
  out->PutU8(static_cast<uint8_t>(width));
  if (width == 0) return;
  // Pack offsets LSB-first into a bit buffer.
  uint64_t acc = 0;
  int bits = 0;
  for (int64_t v : values) {
    const uint64_t off = static_cast<uint64_t>(v) - static_cast<uint64_t>(lo);
    acc |= off << bits;
    bits += width;
    while (bits >= 8) {
      out->PutU8(static_cast<uint8_t>(acc & 0xFF));
      acc >>= 8;
      bits -= 8;
    }
  }
  if (bits > 0) out->PutU8(static_cast<uint8_t>(acc & 0xFF));
}

Status BitPackDecodeInt64(ByteReader* in, int64_t* out, uint64_t n) {
  LAWS_ASSIGN_OR_RETURN(uint64_t count, in->GetVarint());
  if (count != n) {
    return Status::ParseError(
        "bit-pack element count does not match row count");
  }
  if (n == 0) return Status::OK();
  LAWS_ASSIGN_OR_RETURN(int64_t lo, in->GetSignedVarint());
  LAWS_ASSIGN_OR_RETURN(uint8_t width, in->GetU8());
  if (width == 0) {
    std::fill_n(out, n, lo);
    return Status::OK();
  }
  if (width == 255) {
    LAWS_RETURN_IF_ERROR(in->CheckAvailable(n, 8, "bit-pack raw values"));
    for (uint64_t i = 0; i < n; ++i) {
      LAWS_ASSIGN_OR_RETURN(out[i], in->GetI64());
    }
    return Status::OK();
  }
  if (width > 56) {
    return Status::ParseError("corrupt bit width");
  }
  // Check the packed size before the loop, overflow-safely.
  if (n > (static_cast<uint64_t>(in->remaining()) * 8) / width) {
    return Status::ParseError("truncated bit-pack payload");
  }
  uint64_t acc = 0;
  int bits = 0;
  const uint64_t mask = (1ULL << width) - 1;
  for (uint64_t i = 0; i < n; ++i) {
    while (bits < width) {
      LAWS_ASSIGN_OR_RETURN(uint8_t b, in->GetU8());
      acc |= static_cast<uint64_t>(b) << bits;
      bits += 8;
    }
    const uint64_t off = acc & mask;
    acc >>= width;
    bits -= width;
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(lo) + off);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ZlibCompress(const uint8_t* data, size_t size) {
  uLongf bound = compressBound(static_cast<uLong>(size));
  std::vector<uint8_t> out(sizeof(uint64_t) + bound);
  const uint64_t original = size;
  std::memcpy(out.data(), &original, sizeof(original));
  const int rc =
      compress2(out.data() + sizeof(uint64_t), &bound, data,
                static_cast<uLong>(size), /*level=*/6);
  if (rc != Z_OK) {
    return Status::Internal("zlib compress2 failed rc=" + std::to_string(rc));
  }
  out.resize(sizeof(uint64_t) + bound);
  return out;
}

namespace {

/// zlib counts in uInt; feed it at most this much per call.
constexpr uint64_t kMaxZlibStep = uint64_t{1} << 30;

/// One DEFLATE stream (level 6, the defaults compress2 uses) appending its
/// output to a byte vector through a fixed-size staging chunk.
class Deflater {
 public:
  explicit Deflater(std::vector<uint8_t>* out) : out_(out) {}
  ~Deflater() {
    if (open_) deflateEnd(&zs_);
  }
  Deflater(const Deflater&) = delete;
  Deflater& operator=(const Deflater&) = delete;

  Status Init() {
    const int rc = deflateInit(&zs_, /*level=*/6);
    if (rc != Z_OK) {
      return Status::Internal("zlib deflateInit failed rc=" +
                              std::to_string(rc));
    }
    open_ = true;
    return Status::OK();
  }

  Status Feed(const uint8_t* data, size_t n) {
    while (n > 0) {
      const auto step =
          static_cast<size_t>(std::min<uint64_t>(n, kMaxZlibStep));
      zs_.next_in = const_cast<Bytef*>(data);
      zs_.avail_in = static_cast<uInt>(step);
      LAWS_RETURN_IF_ERROR(Pump(Z_NO_FLUSH));
      data += step;
      n -= step;
    }
    return Status::OK();
  }

  Status Finish() { return Pump(Z_FINISH); }

 private:
  /// Runs deflate until it has taken all input (Z_NO_FLUSH) or ended the
  /// stream (Z_FINISH), appending each filled staging chunk.
  Status Pump(int flush) {
    while (true) {
      zs_.next_out = chunk_;
      zs_.avail_out = sizeof(chunk_);
      const int rc = deflate(&zs_, flush);
      if (rc != Z_OK && rc != Z_STREAM_END && rc != Z_BUF_ERROR) {
        return Status::Internal("zlib deflate failed rc=" +
                                std::to_string(rc));
      }
      out_->insert(out_->end(), chunk_,
                   chunk_ + (sizeof(chunk_) - zs_.avail_out));
      if (flush == Z_FINISH ? rc == Z_STREAM_END
                            : zs_.avail_in == 0 && zs_.avail_out != 0) {
        return Status::OK();
      }
    }
  }

  std::vector<uint8_t>* out_;
  z_stream zs_{};
  bool open_ = false;
  uint8_t chunk_[kZlibChunkBytes];
};

}  // namespace

size_t MaxZlibBlobBytes(uint64_t decoded_bytes) {
  const uint64_t blob = sizeof(uint64_t) + compressBound(decoded_bytes);
  return VarintSize(blob) + blob;
}

Status AppendZlibBlob(const std::vector<uint8_t>& header, const void* data,
                      size_t n, size_t width, bool shuffle,
                      std::vector<uint8_t>* out) {
  const uint64_t decoded = header.size() + static_cast<uint64_t>(n) * width;
  // The blob's size varint comes first but is known only at the end:
  // reserve its widest form, then close the gap if the blob came out
  // shorter.
  const size_t varint_at = out->size();
  const size_t varint_room = VarintSize(MaxZlibBlobBytes(decoded));
  out->resize(varint_at + varint_room);
  ByteWriter length;
  length.PutU64(decoded);
  out->insert(out->end(), length.data().begin(), length.data().end());

  // The staging chunks live on the heap: lanes run with default stacks.
  auto deflater = std::make_unique<Deflater>(out);
  LAWS_RETURN_IF_ERROR(deflater->Init());
  LAWS_RETURN_IF_ERROR(deflater->Feed(header.data(), header.size()));
  const auto* src = static_cast<const uint8_t*>(data);
  if (!shuffle) {
    LAWS_RETURN_IF_ERROR(deflater->Feed(src, n * width));
  } else {
    std::vector<uint8_t> plane(std::min(n, kZlibChunkBytes));
    for (size_t byte = 0; byte < width; ++byte) {
      for (size_t begin = 0; begin < n; begin += plane.size()) {
        const size_t rows = std::min(plane.size(), n - begin);
        const uint8_t* p = src + begin * width + byte;
        for (size_t i = 0; i < rows; ++i) plane[i] = p[i * width];
        LAWS_RETURN_IF_ERROR(deflater->Feed(plane.data(), rows));
      }
    }
  }
  LAWS_RETURN_IF_ERROR(deflater->Finish());
  deflater.reset();

  const uint64_t blob = out->size() - varint_at - varint_room;
  ByteWriter blob_size;
  blob_size.PutVarint(blob);
  const size_t gap = varint_room - blob_size.size();
  std::copy(blob_size.data().begin(), blob_size.data().end(),
            out->begin() + static_cast<std::ptrdiff_t>(varint_at + gap));
  out->erase(out->begin() + static_cast<std::ptrdiff_t>(varint_at),
             out->begin() + static_cast<std::ptrdiff_t>(varint_at + gap));
  return Status::OK();
}

void ZlibBlobReader::StreamDeleter::operator()(z_stream_s* zs) const {
  inflateEnd(zs);
  delete zs;
}

Status ZlibBlobReader::Open(ByteReader* in) {
  LAWS_ASSIGN_OR_RETURN(uint64_t blob, in->GetCount(1, "zlib blob size"));
  LAWS_ASSIGN_OR_RETURN(const uint8_t* bytes, in->GetView(blob));
  if (blob < sizeof(uint64_t)) {
    return Status::ParseError("zlib blob too small");
  }
  std::memcpy(&declared_, bytes, sizeof(declared_));
  // DEFLATE expands at most ~1032:1; a larger claimed size means the header
  // is corrupt. Every destination is sized from this, so guard here.
  const uint64_t stream = blob - sizeof(uint64_t);
  if (declared_ > stream * 1032 + 64) {
    return Status::ParseError("zlib blob claims implausible size");
  }
  input_ = bytes + sizeof(uint64_t);
  input_left_ = stream;
  produced_ = 0;
  auto zs = std::make_unique<z_stream>();
  const int rc = inflateInit(zs.get());
  if (rc != Z_OK) {
    return Status::Internal("zlib inflateInit failed rc=" +
                            std::to_string(rc));
  }
  zs_.reset(zs.release());
  return Status::OK();
}

Status ZlibBlobReader::Inflate(uint8_t* dst, size_t room, size_t* got,
                               bool* ended) {
  if (zs_->avail_in == 0 && input_left_ > 0) {
    const uint64_t step = std::min(input_left_, kMaxZlibStep);
    zs_->next_in = const_cast<Bytef*>(input_);
    zs_->avail_in = static_cast<uInt>(step);
    input_ += step;
    input_left_ -= step;
  }
  const auto step = static_cast<uInt>(std::min<uint64_t>(room, kMaxZlibStep));
  zs_->next_out = dst;
  zs_->avail_out = step;
  const int rc = inflate(zs_.get(), Z_NO_FLUSH);
  *got = step - zs_->avail_out;
  *ended = rc == Z_STREAM_END;
  if (rc == Z_BUF_ERROR && zs_->avail_in == 0 && input_left_ == 0) {
    return Status::ParseError("truncated zlib stream");
  }
  if (rc != Z_OK && rc != Z_STREAM_END && rc != Z_BUF_ERROR) {
    return Status::ParseError("corrupt zlib stream rc=" + std::to_string(rc));
  }
  return Status::OK();
}

Status ZlibBlobReader::GetRaw(void* out, size_t n) {
  if (zs_ == nullptr) return Status::Internal("zlib blob reader not open");
  if (n > remaining()) {
    return Status::ParseError("read past the zlib blob's declared size");
  }
  auto* dst = static_cast<uint8_t*>(out);
  while (n > 0) {
    size_t got = 0;
    bool ended = false;
    LAWS_RETURN_IF_ERROR(Inflate(dst, n, &got, &ended));
    dst += got;
    n -= got;
    produced_ += got;
    if (ended && n > 0) {
      return Status::ParseError(
          "zlib stream inflates to fewer bytes than declared");
    }
  }
  return Status::OK();
}

Result<uint64_t> ZlibBlobReader::GetVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t b = 0;
    LAWS_RETURN_IF_ERROR(GetRaw(&b, 1));
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
  }
  return Status::ParseError("varint too long");
}

Result<std::string> ZlibBlobReader::GetString() {
  LAWS_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  if (n > remaining()) {
    return Status::ParseError("truncated buffer reading string");
  }
  std::string s(static_cast<size_t>(n), '\0');
  LAWS_RETURN_IF_ERROR(GetRaw(s.data(), s.size()));
  return s;
}

Result<uint64_t> ZlibBlobReader::GetCount(uint64_t min_bytes_per_elem,
                                          const char* what) {
  LAWS_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  const uint64_t denom = min_bytes_per_elem == 0 ? 1 : min_bytes_per_elem;
  if (n > remaining() / denom) {
    return Status::ParseError(std::string("implausible count reading ") +
                              what);
  }
  return n;
}

Status ZlibBlobReader::GetShuffled(void* out, size_t n, size_t width) {
  if (width == 0 || n > remaining() / width) {
    return Status::ParseError("read past the zlib blob's declared size");
  }
  auto* dst = static_cast<uint8_t*>(out);
  std::vector<uint8_t> plane(std::min(n, kZlibChunkBytes));
  for (size_t byte = 0; byte < width; ++byte) {
    for (size_t begin = 0; begin < n; begin += plane.size()) {
      const size_t rows = std::min(plane.size(), n - begin);
      LAWS_RETURN_IF_ERROR(GetRaw(plane.data(), rows));
      uint8_t* p = dst + begin * width + byte;
      for (size_t i = 0; i < rows; ++i) p[i * width] = plane[i];
    }
  }
  return Status::OK();
}

Status ZlibBlobReader::Finish() {
  if (zs_ == nullptr) return Status::Internal("zlib blob reader not open");
  if (remaining() != 0) {
    return Status::ParseError("trailing bytes in zlib blob's decoded data");
  }
  // Every declared byte is out; the stream must end right here.
  bool ended = false;
  while (!ended) {
    uint8_t extra = 0;
    size_t got = 0;
    LAWS_RETURN_IF_ERROR(Inflate(&extra, 1, &got, &ended));
    if (got != 0) {
      return Status::ParseError(
          "zlib stream inflates to more bytes than declared");
    }
  }
  if (zs_->avail_in != 0 || input_left_ != 0) {
    return Status::ParseError("trailing bytes after zlib stream");
  }
  return Status::OK();
}

}  // namespace laws
