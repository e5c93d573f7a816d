#ifndef LAWSDB_STORAGE_GROUPING_H_
#define LAWSDB_STORAGE_GROUPING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/governor.h"
#include "common/result.h"
#include "storage/column.h"

namespace laws {

/// Rows grouped by the tuple of their key codes (DESIGN.md §11): INT64 by
/// its bits, DOUBLE by its bits after every NaN folds to one and -0.0 to
/// 0.0, BOOL as 0/1, STRING by dictionary id, and NULL as its own class.
///
/// Group ids run in first-seen order, so `first_row` ascends. The grouped
/// rows are laid out partition by partition, each partition in table
/// order, and a group's rows all sit in one partition. A sweep over one
/// partition therefore visits every group's rows in table order, which is
/// what makes per-partition aggregation bit-identical to a serial sweep.
struct Grouping {
  /// Hash partitions of a keyed grouping. A constant, so the layout is the
  /// same at every lane count and every input size.
  static constexpr size_t kPartitions = 64;

  /// first_row[g] is the first row of group g.
  std::vector<uint32_t> first_row;
  /// The grouped rows, partition by partition.
  std::vector<uint32_t> rows;
  /// group[i] is the group of rows[i].
  std::vector<uint32_t> group;
  /// Partition p holds rows[partition_begin[p] .. partition_begin[p + 1]).
  std::vector<size_t> partition_begin;

  size_t num_groups() const { return first_row.size(); }
  size_t num_partitions() const { return partition_begin.size() - 1; }
};

/// Groups the rows of the equal-length `keys` columns, or only the
/// ascending row ids in `selection` when it is not null. Callers pass at
/// least one key column: GROUP BY its keys, DISTINCT its select list
/// (which the parser never leaves empty) and FitGrouped its group column;
/// a global aggregate folds without grouping. Codes, histogram and
/// scatter run in parallel over fixed-size morsels, and each partition
/// builds its own open-addressing table on its own lane. Buffers that
/// outlive the call are charged to `charge`; the governor is polled every
/// kGovernorPollStride rows in every phase.
Result<Grouping> GroupRows(const std::vector<const Column*>& keys,
                           size_t num_rows,
                           const std::vector<uint32_t>* selection,
                           ScopedCharge* charge);

/// Runs body(begin, end) over each partition's slice [begin, end) of
/// `rows`/`group`, each partition on one lane. Returns the governor's
/// error if it tripped, else the first failing partition's status.
Status ForEachPartition(const Grouping& grouping,
                        const std::function<Status(size_t, size_t)>& body);

/// Lays the grouped rows out group by group: group g's rows are
/// (*rows)[(*offsets)[g] .. (*offsets)[g + 1]), in table order.
Status RowsByGroup(const Grouping& grouping, ScopedCharge* charge,
                   std::vector<uint32_t>* rows,
                   std::vector<size_t>* offsets);

}  // namespace laws

#endif  // LAWSDB_STORAGE_GROUPING_H_
