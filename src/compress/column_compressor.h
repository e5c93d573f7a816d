#ifndef LAWSDB_COMPRESS_COLUMN_COMPRESSOR_H_
#define LAWSDB_COMPRESS_COLUMN_COMPRESSOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "compress/encoding.h"
#include "storage/table.h"

namespace laws {

/// Per-column encoding schemes. kAuto encodes the column's sample with
/// every applicable encoding and encodes the whole column once, with the
/// encoding that was smallest on the sample (see CompressColumn). STRING
/// columns store their dictionary under every encoding; DOUBLE columns
/// store one of distinct values under kRle and kBitPack (see
/// kMaxDoubleDictionary), and the RLE or bit-pack body then codes each row.
enum class ColumnEncoding : uint8_t {
  kPlain = 0,
  kRle = 1,
  kDeltaVarint = 2,
  kBitPack = 3,
  kShuffleZlib = 4,  // byte-shuffle + DEFLATE (doubles)
  kZlib = 5,         // DEFLATE over the plain encoding
  kAuto = 255,
};

/// Most distinct values a DOUBLE column's dictionary holds, as 64-bit
/// patterns, so -0.0, +0.0 and every NaN payload stay exact; codes take at
/// most 12 bits. A column with more cannot take kRle or kBitPack: encoding
/// it so is a kOutOfRange error, and a payload whose dictionary claims
/// more is a kParseError. The bound also bounds kAuto's trial memory.
inline constexpr size_t kMaxDoubleDictionary = 4096;

std::string_view ColumnEncodingToString(ColumnEncoding e);

/// One compressed column: the chosen encoding and its payload.
struct CompressedColumn {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  std::vector<uint8_t> payload;
  size_t uncompressed_bytes = 0;

  size_t compressed_bytes() const { return payload.size(); }
};

/// A generically compressed table: schema + per-column blobs. This is the
/// model-free baseline the semantic compressor is measured against.
struct CompressedTable {
  Schema schema;
  size_t num_rows = 0;
  std::vector<CompressedColumn> columns;

  size_t TotalCompressedBytes() const;
  size_t TotalUncompressedBytes() const;
  /// compressed / uncompressed, lower is better.
  double CompressionRatio() const;
};

/// Compresses one column with the requested encoding. kAuto samples: a
/// column of at most 65,536 rows is its own sample, a longer one samples 8
/// evenly spaced windows of 8,192 rows (the first at row 0, the last
/// ending at the last row). Every applicable encoding is tried on the
/// sample, the zlib codecs under both deflate strategies, and the column
/// is then encoded once with the smallest; a tie goes to the lower
/// ColumnEncoding value, then to the default strategy. A column that is
/// its own sample keeps that trial's payload, so short columns get the
/// exhaustive choice. A DOUBLE column whose sample fits the dictionary but
/// whose rows do not (see kMaxDoubleDictionary) takes its sample's
/// smallest encoding without one. Runs on the pool's lanes the way
/// CompressTable does.
///
/// `strategy` applies to an explicit kZlib or kShuffleZlib only, and lets
/// a caller reproduce one of kAuto's candidates; the payload does not
/// record it.
Result<CompressedColumn> CompressColumn(
    const Column& column, ColumnEncoding encoding,
    DeflateStrategy strategy = DeflateStrategy::kDefault);

/// Compresses several columns in one parallel region: each as
/// CompressColumn would alone, with the trial and encode units of all of
/// them claimed from one cursor by every lane (see CompressTable, which
/// calls it for a table's columns).
Result<std::vector<CompressedColumn>> CompressColumns(
    const std::vector<const Column*>& columns, ColumnEncoding encoding,
    DeflateStrategy strategy = DeflateStrategy::kDefault);

/// Reconstructs a column of `rows` rows; `field` supplies type/nullability.
/// `rows` bounds every allocation: a destination is sized only once the
/// payload is known to hold that many rows, so a corrupt payload fails
/// fast with kParseError instead of over-allocating. A payload that does
/// not decode to exactly `rows` rows, or has bytes left over, is a
/// kParseError too.
Result<Column> DecompressColumn(const CompressedColumn& compressed,
                                const Field& field, size_t rows);

/// Compresses all columns of a table (kAuto per column by default) on the
/// global pool's lanes: kAuto's trials run as (column, codec) units, then
/// each zlib column as one unit per 1 MiB DEFLATE block and any other
/// column as one unit, every lane claiming the next unit from one cursor.
/// Every column-sized buffer is allocated on the calling thread; the
/// output is the same at every lane count. Polls the governor before each
/// unit and returns its typed error once it trips.
Result<CompressedTable> CompressTable(
    const Table& table, ColumnEncoding encoding = ColumnEncoding::kAuto);

/// Reconstructs the full table, one column per lane, decoding straight
/// into column vectors sized on the calling thread; round-trips losslessly.
Result<Table> DecompressTable(const CompressedTable& compressed);

/// One column's encoding and payload, read in place from bytes (an
/// image's, say) that outlive the decode.
struct ColumnPayloadView {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  std::span<const uint8_t> payload;
};

/// DecompressTable over payloads read in place: one view per field of
/// `schema`, each decoding to `num_rows` rows.
Result<Table> DecompressTable(const Schema& schema, size_t num_rows,
                              std::span<const ColumnPayloadView> columns);

}  // namespace laws

#endif  // LAWSDB_COMPRESS_COLUMN_COMPRESSOR_H_
