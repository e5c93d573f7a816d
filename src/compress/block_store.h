#ifndef LAWSDB_COMPRESS_BLOCK_STORE_H_
#define LAWSDB_COMPRESS_BLOCK_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/table.h"

namespace laws {

/// Block-partitioned acceleration index for compressed-domain scans
/// (DESIGN.md §14). Columns are split into fixed-size row blocks; each
/// block of each numeric column carries a zone map (min/max over the
/// values *as the comparison engine sees them* — coerced to double —
/// plus NULL/NaN tallies). The plain `Table` columns remain the source of
/// truth: the index only licenses skipping whole blocks, so a missing
/// index is always just a slower scan, never a different answer. The
/// table owns its index (`Table::block_index()`), and every mutation of
/// the table drops it.

/// Per-block, per-column statistics. `min`/`max` cover the comparable
/// values (non-NULL, non-NaN) after the engine's double coercion, which
/// is exactly the space every SQL comparison is evaluated in — int64 →
/// double casting is monotone, so interval tests against a double
/// literal are sound even past the 2^53 integer horizon. NaNs are
/// tallied separately (§11: NaN compares as "greater" through the
/// three-way compare, so it satisfies !=, >, >= and fails =, <, <=);
/// NULLs never satisfy a predicate. -0.0 needs no special casing here
/// because IEEE == and < treat it as equal to +0.0, so either sign is a
/// valid interval endpoint.
struct ZoneMap {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint32_t rows = 0;
  uint32_t null_count = 0;
  uint32_t nan_count = 0;
  /// Every comparable value is an integer with |v| <= 2^53 (exactly
  /// representable). The license for the encoded SUM/AVG: when all
  /// blocks are integral and the summed magnitude bound stays under
  /// 2^53, floating-point summation is exact and therefore
  /// order-insensitive — any association is bit-identical to the
  /// row-order sweep.
  bool all_integral = true;

  uint32_t comparable_count() const { return rows - null_count - nan_count; }
};

/// Index data for one column: one zone map per block. Strings are not
/// indexed (`usable` = false) — string predicates are declined by the
/// scan planner anyway.
struct ColumnBlockIndex {
  bool usable = false;
  std::vector<ZoneMap> zones;
};

struct BlockIndex {
  size_t block_rows = 0;
  size_t num_rows = 0;
  size_t num_blocks = 0;
  std::vector<ColumnBlockIndex> columns;

  size_t BlockStart(size_t b) const { return b * block_rows; }
  size_t BlockLength(size_t b) const {
    const size_t start = BlockStart(b);
    return start >= num_rows ? 0 : std::min(block_rows, num_rows - start);
  }
};

/// Rows per block of the indexes production builds. Tests and the
/// differential harness pass a few rows instead, so tiny tables still
/// span several blocks.
inline constexpr size_t kDefaultBlockRows = 4096;

/// Builds a block index for `table` (unconditionally; nothing installed).
std::shared_ptr<const BlockIndex> BuildBlockIndex(
    const Table& table, size_t block_rows = kDefaultBlockRows);

/// Returns the index installed in `table` whatever its block size;
/// otherwise builds one at `block_rows` and installs it. Racing callers
/// wait for the one build in flight on the table and get its index
/// (Table::BlockIndexOrBuild). The index lives as long as its table (or
/// a caller's copy of the pointer).
std::shared_ptr<const BlockIndex> EnsureBlockIndex(
    const TablePtr& table, size_t block_rows = kDefaultBlockRows);

}  // namespace laws

#endif  // LAWSDB_COMPRESS_BLOCK_STORE_H_
