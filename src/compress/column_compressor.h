#ifndef LAWSDB_COMPRESS_COLUMN_COMPRESSOR_H_
#define LAWSDB_COMPRESS_COLUMN_COMPRESSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace laws {

/// Per-column encoding schemes. kAuto encodes the column's sample with
/// every applicable encoding and encodes the whole column once, with the
/// encoding that was smallest on the sample (see CompressColumn).
enum class ColumnEncoding : uint8_t {
  kPlain = 0,
  kRle = 1,
  kDeltaVarint = 2,
  kBitPack = 3,
  kShuffleZlib = 4,  // byte-shuffle + DEFLATE (doubles)
  kZlib = 5,         // DEFLATE over the plain encoding
  kAuto = 255,
};

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
/// sample, a tie going to the lower ColumnEncoding value, and the column
/// is then encoded once with the smallest; a column that is its own
/// sample keeps that trial's payload, so short columns get the exhaustive
/// choice. Runs on the pool's lanes the way CompressTable does.
Result<CompressedColumn> CompressColumn(const Column& column,
                                        ColumnEncoding encoding);

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

}  // namespace laws

#endif  // LAWSDB_COMPRESS_COLUMN_COMPRESSOR_H_
