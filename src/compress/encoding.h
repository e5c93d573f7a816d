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

/// One-shot DEFLATE via zlib (level 6) behind the uncompressed size as a
/// u64. The column codecs stream instead (AppendZlibBlob); this stays as
/// the reference their bytes are checked against.
Result<std::vector<uint8_t>> ZlibCompress(const uint8_t* data, size_t size);

/// Bytes the streaming zlib codec gathers, deflates or inflates per step.
inline constexpr size_t kZlibChunkBytes = size_t{64} * 1024;

/// Upper bound on what AppendZlibBlob adds for `decoded_bytes` of input:
/// the size varint, the u64 length and deflateBound at level 6 with the
/// default window and memory level (which equals compressBound).
size_t MaxZlibBlobBytes(uint64_t decoded_bytes);

/// Streams `header` and then the `n` elements of `width` bytes at `data`
/// through one DEFLATE pass (zlib format, level 6), appending
/// [varint blob bytes][u64 decoded bytes][zlib stream] to `out`. With
/// `shuffle` the elements go byte plane by byte plane (byte 0 of every
/// element, then byte 1, ...), gathered kZlibChunkBytes rows at a time, so
/// no transposed copy of the column is made. The blob is byte-identical to
/// ZlibCompress over the same bytes laid out in one buffer. `out` is not
/// reallocated when it has MaxZlibBlobBytes(header.size() + n * width)
/// spare capacity.
Status AppendZlibBlob(const std::vector<uint8_t>& header, const void* data,
                      size_t n, size_t width, bool shuffle,
                      std::vector<uint8_t>* out);

/// Reads a blob written by AppendZlibBlob, inflating on demand straight
/// into the caller's memory. Every read is bounded by the blob's declared
/// decoded size, and every failure (a truncated or corrupt stream, a stream
/// that inflates to more or fewer bytes than declared, input left after
/// the stream) is a kParseError; nothing is written past the destination a
/// read names.
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
  /// AppendZlibBlob) into out[0..n * width) in element order.
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
