#include "compress/encoding.h"

#include <zlib.h>

#include <algorithm>
#include <cstring>
#include <memory>

namespace laws {

namespace {

/// The Put of the INT64 decoders: every value as it is.
struct PutInt64 {
  int64_t* out;
  bool operator()(uint64_t at, uint64_t rows, int64_t v) const {
    std::fill_n(out + at, rows, v);
    return true;
  }
};

}  // namespace

void RleEncodeInt64(const std::vector<int64_t>& values, ByteWriter* out) {
  RleWriter writer(values.size(), out);
  for (int64_t v : values) writer.Put(v);
  writer.Finish();
}

Status RleDecodeInt64(ByteReader* in, int64_t* out, uint64_t n) {
  return RleDecode(in, n, PutInt64{out});
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

BitPackWriter::BitPackWriter(uint64_t n, int64_t lo, int64_t hi,
                             ByteWriter* out)
    : out_(out), lo_(lo) {
  out->PutVarint(n);
  if (n == 0) return;
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  while (width_ < 64 && (range >> width_) != 0) ++width_;
  out->PutSignedVarint(lo);
  if (width_ > 56) width_ = kRawWidth;
  out->PutU8(static_cast<uint8_t>(width_));
}

void BitPackEncodeInt64(const std::vector<int64_t>& values, ByteWriter* out) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  BitPackWriter writer(values.size(), values.empty() ? 0 : *lo,
                       values.empty() ? 0 : *hi, out);
  for (int64_t v : values) writer.Put(v);
  writer.Finish();
}

Status BitPackDecodeInt64(ByteReader* in, int64_t* out, uint64_t n) {
  return BitPackDecode(in, n, PutInt64{out});
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

/// DEFLATE's window: a block after the first is primed with this much of
/// the input before it.
constexpr size_t kZlibWindowBytes = size_t{32} * 1024;

/// A sync flush ends the current DEFLATE block and adds an empty stored
/// block: 3 bits, up to 7 bits of padding and 4 bytes of length.
constexpr size_t kSyncFlushBytes = 6;

/// Copies input bytes [from, from + len) to dst.
void GatherInput(const ZlibInput& in, uint64_t from, size_t len,
                 uint8_t* dst) {
  const size_t header = in.header.size();
  if (from < header) {
    const size_t take =
        std::min<size_t>(len, header - static_cast<size_t>(from));
    std::memcpy(dst, in.header.data() + from, take);
    dst += take;
    from += take;
    len -= take;
  }
  if (len == 0) return;
  const auto* src = static_cast<const uint8_t*>(in.data);
  uint64_t at = from - header;
  if (!in.shuffle) {
    std::memcpy(dst, src + at, len);
    return;
  }
  // Byte `plane` of element `row` sits at input offset plane * n + row.
  while (len > 0) {
    const size_t plane = static_cast<size_t>(at / in.n);
    const size_t row = static_cast<size_t>(at % in.n);
    const size_t rows = std::min(len, in.n - row);
    const uint8_t* p = src + row * in.width + plane;
    for (size_t i = 0; i < rows; ++i) dst[i] = p[i * in.width];
    dst += rows;
    at += rows;
    len -= rows;
  }
}

/// Blocks of an input of `bytes` bytes, and the input bytes of block `b`.
size_t BlockCount(uint64_t bytes) {
  return bytes == 0 ? 1
                    : static_cast<size_t>((bytes + kZlibBlockBytes - 1) /
                                          kZlibBlockBytes);
}

size_t BlockBytes(uint64_t bytes, size_t b) {
  return static_cast<size_t>(std::min<uint64_t>(
      bytes - uint64_t{b} * kZlibBlockBytes, kZlibBlockBytes));
}

struct DeflateEnd {
  void operator()(z_stream* zs) const { deflateEnd(zs); }
};

}  // namespace

size_t ZlibInput::blocks() const { return BlockCount(size()); }

size_t ZlibInput::block_bytes(size_t b) const { return BlockBytes(size(), b); }

size_t MaxZlibBlockBytes(size_t input_bytes) {
  // deflateBound's tight bound for the default window and memory level is
  // compressBound less the zlib wrapper's 2-byte header and 4-byte trailer,
  // whatever the strategy (its stored-block fallback bounds every one).
  return compressBound(static_cast<uLong>(input_bytes)) - 6 + kSyncFlushBytes;
}

size_t MaxZlibBlobBytes(uint64_t decoded_bytes) {
  const size_t blocks = BlockCount(decoded_bytes);
  const uint64_t blob =
      sizeof(uint64_t) + 2 +
      (blocks - 1) * MaxZlibBlockBytes(kZlibBlockBytes) +
      MaxZlibBlockBytes(BlockBytes(decoded_bytes, blocks - 1)) + 4;
  return VarintSize(blob) + blob;
}

Result<ZlibBlock> DeflateZlibBlock(const ZlibInput& input, size_t b,
                                   uint8_t* out, size_t room) {
  const uint64_t lo = uint64_t{b} * kZlibBlockBytes;
  const uint64_t hi = lo + input.block_bytes(b);
  const bool last = b + 1 == input.blocks();
  z_stream zs{};
  int rc = deflateInit2(&zs, /*level=*/6, Z_DEFLATED, /*windowBits=*/-15,
                        /*memLevel=*/8,
                        input.strategy == DeflateStrategy::kRunLength
                            ? Z_RLE
                            : Z_DEFAULT_STRATEGY);
  if (rc != Z_OK) {
    return Status::Internal("zlib deflateInit2 failed rc=" +
                            std::to_string(rc));
  }
  const std::unique_ptr<z_stream, DeflateEnd> end_stream(&zs);
  // The staging chunk lives on the heap: lanes run with default stacks.
  auto chunk = std::make_unique_for_overwrite<uint8_t[]>(kZlibChunkBytes);
  if (b > 0) {
    GatherInput(input, lo - kZlibWindowBytes, kZlibWindowBytes, chunk.get());
    rc = deflateSetDictionary(&zs, chunk.get(), kZlibWindowBytes);
    if (rc != Z_OK) {
      return Status::Internal("zlib deflateSetDictionary failed rc=" +
                              std::to_string(rc));
    }
  }
  const auto overflow = [&] {
    return Status::Internal("zlib block " + std::to_string(b) +
                            " overflows its " + std::to_string(room) +
                            "-byte room");
  };
  zs.next_out = out;
  zs.avail_out = static_cast<uInt>(std::min<uint64_t>(room, kMaxZlibStep));
  uLong adler = adler32(0L, Z_NULL, 0);
  for (uint64_t at = lo; at < hi; at += kZlibChunkBytes) {
    const auto len = static_cast<size_t>(
        std::min<uint64_t>(hi - at, kZlibChunkBytes));
    GatherInput(input, at, len, chunk.get());
    adler = adler32(adler, chunk.get(), static_cast<uInt>(len));
    zs.next_in = chunk.get();
    zs.avail_in = static_cast<uInt>(len);
    rc = deflate(&zs, Z_NO_FLUSH);
    if (rc != Z_OK && rc != Z_BUF_ERROR) {
      return Status::Internal("zlib deflate failed rc=" + std::to_string(rc));
    }
    // Input is left over only when the output ran out of room.
    if (zs.avail_in != 0) return overflow();
  }
  rc = deflate(&zs, last ? Z_FINISH : Z_SYNC_FLUSH);
  // A sync flush that filled the room exactly may not have completed.
  if (last ? rc != Z_STREAM_END : rc != Z_OK || zs.avail_out == 0) {
    return overflow();
  }
  return ZlibBlock{static_cast<size_t>(zs.next_out - out),
                   static_cast<uint32_t>(adler)};
}

// The blob's size varint comes first but is known only at the end: the
// writer reserves its widest form, then closes the gap if the blob came
// out shorter.
ZlibBlobWriter::ZlibBlobWriter(uint64_t decoded_bytes,
                               std::vector<uint8_t>* out)
    : out_(out),
      decoded_(decoded_bytes),
      blocks_(BlockCount(decoded_bytes)),
      varint_at_(out->size()),
      varint_room_(VarintSize(MaxZlibBlobBytes(decoded_bytes))) {
  out->resize(varint_at_ + varint_room_);
  ByteWriter head;
  head.PutU64(decoded_bytes);
  head.PutU8(0x78);  // the zlib header compress2 writes at level 6
  head.PutU8(0x9C);
  out->insert(out->end(), head.data().begin(), head.data().end());
}

void ZlibBlobWriter::Add(const ZlibBlock& block) {
  adler_ = next_ == 0
               ? block.adler
               : static_cast<uint32_t>(adler32_combine(
                     adler_, block.adler,
                     static_cast<z_off_t>(BlockBytes(decoded_, next_))));
  if (++next_ < blocks_) return;
  // The trailer is the Adler-32 of the whole input, big-endian.
  for (int shift = 24; shift >= 0; shift -= 8) {
    out_->push_back(static_cast<uint8_t>(adler_ >> shift));
  }
  const uint64_t blob = out_->size() - varint_at_ - varint_room_;
  ByteWriter blob_size;
  blob_size.PutVarint(blob);
  const size_t gap = varint_room_ - blob_size.size();
  std::copy(blob_size.data().begin(), blob_size.data().end(),
            out_->begin() + static_cast<std::ptrdiff_t>(varint_at_ + gap));
  out_->erase(out_->begin() + static_cast<std::ptrdiff_t>(varint_at_),
              out_->begin() + static_cast<std::ptrdiff_t>(varint_at_ + gap));
}

Status AppendZlibBlob(const ZlibInput& input, std::vector<uint8_t>* out) {
  ZlibBlobWriter writer(input.size(), out);
  for (size_t b = 0; b < input.blocks(); ++b) {
    const size_t at = out->size();
    const size_t room = MaxZlibBlockBytes(input.block_bytes(b));
    out->resize(at + room);
    LAWS_ASSIGN_OR_RETURN(ZlibBlock block,
                          DeflateZlibBlock(input, b, out->data() + at, room));
    out->resize(at + block.bytes);
    writer.Add(block);
  }
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
