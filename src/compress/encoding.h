#ifndef LAWSDB_COMPRESS_ENCODING_H_
#define LAWSDB_COMPRESS_ENCODING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

struct z_stream_s;

namespace laws {

/// Lightweight block encoders for columnar data. These are the generic
/// (model-free) compression baselines the semantic compressor is compared
/// against, in the spirit of the paper's SPARTAN/gzip discussion (§4.1,
/// ref [5]).

/// Decoded-element sanity cap for encodings whose element count can
/// legitimately exceed the encoded byte count (RLE runs, constant-column
/// bit packing). A corrupt length claiming more elements than this fails
/// with kParseError before a destination of that size is allocated.
inline constexpr uint64_t kMaxDecodedElements = uint64_t{1} << 28;

/// The block decoders read the element count their encoder wrote first and
/// fail with kParseError unless it equals `n`; they then write exactly `n`
/// values to out[0..n). The caller sizes `out`, and so decides which `n`
/// is plausible, before decoding.

/// Run-length encodes int64 values as (value, run) pairs with varints.
void RleEncodeInt64(const std::vector<int64_t>& values, ByteWriter* out);
Status RleDecodeInt64(ByteReader* in, int64_t* out, uint64_t n);

/// Delta + zigzag + varint coding; excellent for sorted/clustered ids and
/// integer timestamps.
void DeltaVarintEncodeInt64(const std::vector<int64_t>& values,
                            ByteWriter* out);
Status DeltaVarintDecodeInt64(ByteReader* in, int64_t* out, uint64_t n);

/// Frame-of-reference bit packing: subtract the minimum, pack each offset
/// in ceil(log2(range+1)) bits.
void BitPackEncodeInt64(const std::vector<int64_t>& values, ByteWriter* out);
Status BitPackDecodeInt64(ByteReader* in, int64_t* out, uint64_t n);

/// RleEncodeInt64's bytes for `n` values handed over one Put at a time,
/// written straight into `out`, so a caller that derives each value (a
/// dictionary code, say) needs no row-sized copy. Call Finish after the
/// n-th Put.
class RleWriter {
 public:
  RleWriter(uint64_t n, ByteWriter* out) : out_(out) { out->PutVarint(n); }

  void Put(int64_t v) {
    if (run_ != 0 && v == value_) {
      ++run_;
      return;
    }
    Finish();
    value_ = v;
    run_ = 1;
  }

  /// Writes the pending run.
  void Finish() {
    if (run_ == 0) return;
    out_->PutSignedVarint(value_);
    out_->PutVarint(run_);
    run_ = 0;
  }

 private:
  ByteWriter* out_;
  int64_t value_ = 0;
  uint64_t run_ = 0;
};

/// BitPackEncodeInt64's bytes for `n` values in [lo, hi] handed over one
/// Put at a time (see RleWriter). Call Finish after the n-th Put.
class BitPackWriter {
 public:
  BitPackWriter(uint64_t n, int64_t lo, int64_t hi, ByteWriter* out);

  void Put(int64_t v) {
    if (width_ == kRawWidth) {
      out_->PutI64(v);
      return;
    }
    acc_ |= (static_cast<uint64_t>(v) - static_cast<uint64_t>(lo_)) << bits_;
    bits_ += width_;
    while (bits_ >= 8) {
      out_->PutU8(static_cast<uint8_t>(acc_ & 0xFF));
      acc_ >>= 8;
      bits_ -= 8;
    }
  }

  /// Writes the pending partial byte.
  void Finish() {
    if (bits_ > 0) out_->PutU8(static_cast<uint8_t>(acc_ & 0xFF));
    bits_ = 0;
  }

 private:
  /// Widths above 56 cannot be packed through a 64-bit accumulator with a
  /// partial byte pending; such values are stored raw under this width.
  static constexpr int kRawWidth = 255;

  ByteWriter* out_;
  int64_t lo_ = 0;
  int width_ = 0;
  uint64_t acc_ = 0;
  int bits_ = 0;
};

/// The RLE and bit-pack decoders hand each decoded value to
/// put(first row, rows, value), which writes it to rows [first, first +
/// rows) of the caller's destination and returns false for a value the
/// destination cannot hold (a dictionary code past its dictionary, say),
/// failing the decode with kParseError.
template <typename Put>
Status RleDecode(ByteReader* in, uint64_t n, Put put) {
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
    if (!put(filled, run, v)) {
      return Status::ParseError("dictionary code out of range");
    }
    filled += run;
  }
  return Status::OK();
}

template <typename Put>
Status BitPackDecode(ByteReader* in, uint64_t n, Put put) {
  LAWS_ASSIGN_OR_RETURN(uint64_t count, in->GetVarint());
  if (count != n) {
    return Status::ParseError(
        "bit-pack element count does not match row count");
  }
  if (n == 0) return Status::OK();
  const auto bad_code = [] {
    return Status::ParseError("dictionary code out of range");
  };
  LAWS_ASSIGN_OR_RETURN(int64_t lo, in->GetSignedVarint());
  LAWS_ASSIGN_OR_RETURN(uint8_t width, in->GetU8());
  if (width == 0) {
    return put(0, n, lo) ? Status::OK() : bad_code();
  }
  if (width == 255) {
    LAWS_RETURN_IF_ERROR(in->CheckAvailable(n, 8, "bit-pack raw values"));
    for (uint64_t i = 0; i < n; ++i) {
      LAWS_ASSIGN_OR_RETURN(int64_t v, in->GetI64());
      if (!put(i, 1, v)) return bad_code();
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
    if (!put(i, 1, static_cast<int64_t>(static_cast<uint64_t>(lo) + off))) {
      return bad_code();
    }
  }
  return Status::OK();
}

/// One-shot DEFLATE via zlib (level 6) behind the uncompressed size as a
/// u64. The column codecs deflate in blocks instead (DeflateZlibBlock);
/// this stays as the reference their bytes are checked against, and its
/// blobs are what images written before the block encoder hold.
Result<std::vector<uint8_t>> ZlibCompress(const uint8_t* data, size_t size);

/// Bytes the zlib codecs gather, deflate or inflate per step.
inline constexpr size_t kZlibChunkBytes = size_t{64} * 1024;

/// The zlib codecs deflate their input in blocks of this many bytes,
/// counted from its first byte; the last block holds the rest. Block
/// bounds depend only on the input's size.
inline constexpr size_t kZlibBlockBytes = size_t{1} << 20;

/// zlib's match search for the zlib codecs. kRunLength (Z_RLE) looks for
/// repeats of the previous byte only: far cheaper than the default, and
/// no larger on noisy byte planes, which come out as stored blocks either
/// way. Inflate reads both alike, so a payload does not record it.
enum class DeflateStrategy : uint8_t {
  kDefault = 0,
  kRunLength = 1,
};

/// The DEFLATE input of one zlib blob: `header`, then the `n` elements of
/// `width` bytes at `data`. With `shuffle` the elements go byte plane by
/// byte plane (byte 0 of every element, then byte 1, ...), gathered
/// kZlibChunkBytes at a time, so no transposed copy of the column is made.
struct ZlibInput {
  std::vector<uint8_t> header;
  const void* data = nullptr;
  size_t n = 0;
  size_t width = 1;
  bool shuffle = false;
  DeflateStrategy strategy = DeflateStrategy::kDefault;

  uint64_t size() const { return header.size() + uint64_t{n} * width; }
  /// ceil(size() / kZlibBlockBytes), and one block for an empty input.
  size_t blocks() const;
  /// Input bytes of block `b`.
  size_t block_bytes(size_t b) const;
};

/// Room one block of `input_bytes` needs: deflateBound of a raw stream at
/// level 6 with the default window and memory level, plus a sync flush.
/// The bound holds for every strategy: a block that would come out larger
/// is written as stored blocks.
size_t MaxZlibBlockBytes(size_t input_bytes);

/// Upper bound on what AppendZlibBlob adds for `decoded_bytes` of input:
/// the size varint, the u64 length, the zlib header and trailer and every
/// block's room.
size_t MaxZlibBlobBytes(uint64_t decoded_bytes);

/// One deflated block: its size and the Adler-32 of its input.
struct ZlibBlock {
  size_t bytes = 0;
  uint32_t adler = 1;
};

/// Deflates block `b` of `input` into out[0..room): raw DEFLATE at level
/// 6, window 15, memLevel 8 and the input's strategy, primed for b > 0
/// with the 32 KiB of input before the block, and ended with a sync flush
/// (every block but the last) or Z_FINISH (the last). Blocks joined in
/// order by ZlibBlobWriter make one standard zlib stream, and a one-block
/// input under the default strategy comes out byte-identical to compress2.
/// Output that does not fit
/// in `room` is a kInternal error; nothing is written past it.
Result<ZlibBlock> DeflateZlibBlock(const ZlibInput& input, size_t b,
                                   uint8_t* out, size_t room);

/// Joins one blob's blocks into [varint blob bytes][u64 decoded bytes]
/// [78 9C][blocks in order][Adler-32 of the whole input] at the end of a
/// byte vector. The caller appends each block's bytes, in block order, and
/// then records the block with Add. `out` is not reallocated when it had
/// MaxZlibBlobBytes(decoded_bytes) spare capacity at construction.
class ZlibBlobWriter {
 public:
  /// Appends the blob's head to `out`.
  ZlibBlobWriter(uint64_t decoded_bytes, std::vector<uint8_t>* out);

  /// Records the block just appended; after the last block, appends the
  /// trailer and writes the blob's size.
  void Add(const ZlibBlock& block);

  /// The block to append next; blocks() once the blob is complete.
  size_t next_block() const { return next_; }

 private:
  std::vector<uint8_t>* out_;
  uint64_t decoded_;
  size_t blocks_;
  size_t varint_at_;
  size_t varint_room_;
  size_t next_ = 0;
  uint32_t adler_ = 1;
};

/// Deflates every block of `input` in order on the calling thread straight
/// into `out` and joins them: the serial run of the one block encoder.
Status AppendZlibBlob(const ZlibInput& input, std::vector<uint8_t>* out);

/// Reads a zlib blob (ZlibBlobWriter's or ZlibCompress's: both hold one
/// standard zlib stream), inflating on demand straight into the caller's
/// memory. Every read is bounded by the blob's declared decoded size, and
/// every failure (a truncated or corrupt stream, a stream that inflates to
/// more or fewer bytes than declared, input left after the stream) is a
/// kParseError; nothing is written past the destination a read names.
class ZlibBlobReader {
 public:
  /// Consumes [varint blob bytes][blob] from `in` and starts inflating.
  /// The blob must outlive this reader. Fails when the blob is truncated
  /// or declares more than DEFLATE's ~1032:1 ratio allows.
  Status Open(ByteReader* in);

  /// Decoded bytes the blob declares, and how many are still unread.
  uint64_t declared_bytes() const { return declared_; }
  uint64_t remaining() const { return declared_ - produced_; }

  /// ByteReader-shaped accessors over the decoded stream.
  Result<uint64_t> GetVarint();
  Result<std::string> GetString();
  Result<uint64_t> GetCount(uint64_t min_bytes_per_elem, const char* what);
  Status GetRaw(void* out, size_t n);

  /// Reads `n` elements of `width` bytes stored plane by plane (see
  /// ZlibInput) into out[0..n * width) in element order.
  Status GetShuffled(void* out, size_t n, size_t width);

  /// Succeeds only at the exact end: every declared byte was read, the
  /// stream ends there and no input follows it.
  Status Finish();

 private:
  /// One inflate call into dst[0..room), refilling input first; sets the
  /// bytes written and whether the stream ended.
  Status Inflate(uint8_t* dst, size_t room, size_t* got, bool* ended);

  struct StreamDeleter {
    void operator()(z_stream_s* zs) const;
  };

  std::unique_ptr<z_stream_s, StreamDeleter> zs_;
  const uint8_t* input_ = nullptr;
  uint64_t input_left_ = 0;
  uint64_t declared_ = 0;
  uint64_t produced_ = 0;
};

}  // namespace laws

#endif  // LAWSDB_COMPRESS_ENCODING_H_
