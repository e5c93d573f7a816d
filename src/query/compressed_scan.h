#ifndef LAWSDB_QUERY_COMPRESSED_SCAN_H_
#define LAWSDB_QUERY_COMPRESSED_SCAN_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/agg_state.h"
#include "query/ast.h"
#include "storage/table.h"

namespace laws {

/// Compressed-domain scan planner (DESIGN.md §14). The zone maps of the
/// block index built by compress/block_store sit in front of the bytecode
/// VM: a filter prunes the blocks where no row can pass, takes the blocks
/// where every row passes, and runs the rest on the VM; SUM/COUNT/MIN/
/// MAX/AVG fold zone statistics and, for SUM/AVG, the blocks' rows. Every
/// entry point either produces a result bit-identical to the decode path
/// or declines (returns nullopt) so the caller falls back.

/// Per-scan statistics for EXPLAIN ANALYZE span details (the process-wide
/// scan.* counters are bumped internally).
struct ScanStats {
  size_t blocks_total = 0;
  size_t blocks_pruned = 0;  // zone map proved no row can pass
  size_t blocks_taken = 0;   // zone map proved every row passes

  std::string Describe() const;
};

/// Attempts to evaluate WHERE predicate `pred` over `table` block by
/// block. Returns the selected row indices (ascending) — bit-identical to
/// FilterRows on the same inputs — or nullopt when:
///  - the table holds no block index (EnsureBlockIndex was never called
///    on it, or it changed since);
///  - the predicate falls outside the conservative class (anything that
///    could raise a column-level type error, touch strings, or evaluate
///    arithmetic: those shapes keep their existing error behavior on the
///    decode path);
///  - the zone maps neither prune nor take any block (the VM over every
///    row is then the whole scan).
/// The blocks the zone maps leave undecided run on the VM in one
/// FilterRows pass, whose governor trip or data error is returned as is.
/// `disassembly`, when non-null, receives that pass's program and stays
/// empty when no block needed it.
Result<std::optional<std::vector<uint32_t>>> CompressedFilterRows(
    const Expr& pred, const Table& table, ScanStats* stats,
    std::string* disassembly = nullptr);

/// Attempts a global (no GROUP BY) aggregation over `table` from zone
/// statistics. `slots` are the unique aggregate calls in statement order.
/// Supported: COUNT(*)/COUNT/MIN/MAX over numeric column refs
/// unconditionally, SUM/AVG additionally gated on an exactness proof (all
/// blocks integral, total magnitude under 2^53, no NaNs) under which
/// summing the rows block by block is bit-identical to the row sweep.
/// Returns one finalized-compatible AggState per slot, or nullopt to
/// decline (no index, unsupported shape, exactness unproven).
std::optional<std::vector<AggState>> EncodedGlobalAggregate(
    const Table& table, const std::vector<const Expr*>& slots);

}  // namespace laws

#endif  // LAWSDB_QUERY_COMPRESSED_SCAN_H_
