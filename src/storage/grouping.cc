#include "storage/grouping.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "common/thread_pool.h"

namespace laws {
namespace {

constexpr size_t kPartitions = Grouping::kPartitions;
/// The top hash bits pick the partition; the low 32 bits pick the slot.
constexpr int kPartitionShift = 64 - std::countr_zero(kPartitions);
static_assert(std::has_single_bit(kPartitions));

/// Rows per morsel of the code, histogram and scatter phases. Morsel
/// bounds depend only on the row count, so the scatter lays rows out the
/// same way at every lane count, and an input of one morsel stays on the
/// caller.
constexpr size_t kMorselRows = size_t{1} << 14;

/// splitmix64's finalizer.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The equality codes of K key columns over a run of `size` positions:
/// INT64 by its bits, DOUBLE by its bits after every NaN folds to one and
/// -0.0 to 0.0, BOOL as 0/1 and STRING by dictionary id
/// (Column::InternString keeps one id per text). A NULL has code 0 and a
/// set null flag, so it stays apart from every value. The storage starts
/// uninitialized: Fill or CopyTo writes every position before it is read.
class KeyCodes {
 public:
  KeyCodes(const std::vector<const Column*>& keys, size_t size)
      : keys_(keys.size()), size_(size), nullable_(keys.size()) {
    bool any_null = false;
    for (size_t k = 0; k < keys_; ++k) {
      nullable_[k] = keys[k]->null_count() > 0;
      any_null = any_null || nullable_[k];
    }
    code_ = std::make_unique_for_overwrite<uint64_t[]>(keys_ * size_);
    if (any_null) {
      null_ = std::make_unique_for_overwrite<uint8_t[]>(keys_ * size_);
    }
  }

  /// Bytes a KeyCodes of `size` positions holds.
  static uint64_t Bytes(const std::vector<const Column*>& keys, size_t size) {
    uint64_t bytes = 0;
    for (const Column* c : keys) {
      bytes += size * (sizeof(uint64_t) + (c->null_count() > 0 ? 1 : 0));
    }
    return bytes;
  }

  /// Codes of rows[i] (row i when `rows` is null), i in [lo, hi), at
  /// positions 0 .. hi - lo.
  void Fill(const std::vector<const Column*>& keys, const uint32_t* rows,
            size_t lo, size_t hi) {
    for (size_t k = 0; k < keys_; ++k) {
      const Column& col = *keys[k];
      uint64_t* code = code_.get() + k * size_;
      const auto fill = [&](auto code_of) {
        for (size_t i = lo; i < hi; ++i) {
          code[i - lo] = code_of(rows != nullptr ? rows[i] : i);
        }
      };
      switch (col.type()) {
        case DataType::kInt64: {
          const int64_t* v = col.int64_data().data();
          fill([v](size_t r) { return static_cast<uint64_t>(v[r]); });
          break;
        }
        case DataType::kDouble: {
          const double* v = col.double_data().data();
          fill([v](size_t r) {
            double d = v[r];
            if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
            if (d == 0.0) d = 0.0;  // fold -0.0
            return std::bit_cast<uint64_t>(d);
          });
          break;
        }
        case DataType::kBool: {
          const uint8_t* v = col.bool_data().data();
          fill([v](size_t r) { return uint64_t{v[r] != 0}; });
          break;
        }
        case DataType::kString: {
          const uint32_t* v = col.string_codes().data();
          fill([v](size_t r) { return uint64_t{v[r]}; });
          break;
        }
      }
      if (!nullable_[k]) continue;
      uint8_t* null = null_.get() + k * size_;
      for (size_t i = lo; i < hi; ++i) {
        null[i - lo] = col.IsNull(rows != nullptr ? rows[i] : i) ? 1 : 0;
        if (null[i - lo] != 0) code[i - lo] = 0;
      }
    }
  }

  uint64_t Hash(size_t i) const {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (size_t k = 0; k < keys_; ++k) {
      const uint64_t c = code_[k * size_ + i];
      h = Mix(h ^ (nullable_[k] && null_[k * size_ + i] != 0 ? ~c : c));
    }
    return h;
  }

  bool Equal(size_t a, size_t b) const {
    for (size_t k = 0; k < keys_; ++k) {
      if (code_[k * size_ + a] != code_[k * size_ + b]) return false;
      if (nullable_[k] && null_[k * size_ + a] != null_[k * size_ + b]) {
        return false;
      }
    }
    return true;
  }

  void CopyTo(size_t i, KeyCodes* to, size_t at) const {
    for (size_t k = 0; k < keys_; ++k) {
      to->code_[k * to->size_ + at] = code_[k * size_ + i];
      if (nullable_[k]) to->null_[k * to->size_ + at] = null_[k * size_ + i];
    }
  }

 private:
  size_t keys_;
  size_t size_;
  std::vector<uint8_t> nullable_;
  std::unique_ptr<uint64_t[]> code_;
  std::unique_ptr<uint8_t[]> null_;
};

/// Runs fn(i) for every i in [0, count), spread over the pool's lanes with
/// at least `grain` items per chunk. A lane stops at its first failure.
/// The governor is re-polled after the region: its errors are sticky, so
/// a lane that stopped on one surfaces it here. Otherwise the first
/// failing item's status is returned.
Status ForEach(size_t count, size_t grain,
               const std::function<Status(size_t)>& fn) {
  std::vector<Status> status(count);
  ParallelForChunks(
      0, count,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          status[i] = fn(i);
          if (!status[i].ok()) return;
        }
      },
      ParallelForOptions{grain});
  LAWS_GOVERNOR_POLL();
  for (const Status& s : status) LAWS_RETURN_IF_ERROR(s);
  return Status::OK();
}

/// Partitions per chunk so that a chunk averages at least one morsel of
/// rows: small inputs stay on the caller.
size_t PartitionGrain(size_t rows) {
  const size_t per_partition = std::max<size_t>(rows / kPartitions, 1);
  return std::max<size_t>(kMorselRows / per_partition, 1);
}

/// Runs fn(lo, hi) over [begin, end) in governor-polled strides.
template <typename Fn>
Status Strided(size_t begin, size_t end, Fn fn) {
  for (size_t lo = begin; lo < end; lo += kGovernorPollStride) {
    LAWS_GOVERNOR_POLL();
    fn(lo, std::min(end, lo + kGovernorPollStride));
  }
  return Status::OK();
}

/// Sizes `v` to `n` zeroed entries in polled strides, so a canceled query
/// never waits for one long fill.
Status ResizePolled(std::vector<uint32_t>* v, size_t n) {
  v->clear();
  v->reserve(n);
  return Strided(0, n, [v](size_t, size_t hi) { v->resize(hi); });
}

/// One open-addressing slot: the low 32 bits of the row hash and the
/// local group id plus one (0 = empty).
struct Slot {
  uint32_t hash = 0;
  uint32_t group = 0;
};

}  // namespace

Result<Grouping> GroupRows(const std::vector<const Column*>& keys,
                           size_t num_rows,
                           const std::vector<uint32_t>* selection,
                           ScopedCharge* charge) {
  const size_t n = selection != nullptr ? selection->size() : num_rows;
  const uint32_t* sel = selection != nullptr ? selection->data() : nullptr;
  Grouping out;
  LAWS_RETURN_IF_ERROR(
      charge->Acquire(n * 2 * sizeof(uint32_t), "grouping partitions"));
  LAWS_RETURN_IF_ERROR(ResizePolled(&out.rows, n));
  LAWS_RETURN_IF_ERROR(ResizePolled(&out.group, n));

  // Buffers that die with this call: the key codes in partition order and
  // the per-morsel histogram and cursors.
  ScopedCharge scratch;
  const size_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  LAWS_RETURN_IF_ERROR(scratch.Acquire(
      KeyCodes::Bytes(keys, n) +
          2 * num_morsels * kPartitions * sizeof(uint32_t),
      "grouping key codes"));
  KeyCodes codes(keys, n);

  // Runs fn(stride codes, lo, hi) over morsel m's rows in polled strides,
  // with the stride's key codes at positions 0 .. hi - lo.
  const auto each_stride = [&](size_t m, const auto& fn) -> Status {
    KeyCodes stride(keys, kGovernorPollStride);
    return Strided(m * kMorselRows, std::min(n, (m + 1) * kMorselRows),
                   [&](size_t lo, size_t hi) {
                     stride.Fill(keys, sel, lo, hi);
                     fn(stride, lo, hi);
                   });
  };

  // 1. A per-morsel partition histogram.
  std::vector<uint32_t> count(num_morsels * kPartitions, 0);
  LAWS_RETURN_IF_ERROR(ForEach(num_morsels, 1, [&](size_t m) {
    uint32_t* hist = &count[m * kPartitions];
    return each_stride(m, [&](const KeyCodes& stride, size_t lo, size_t hi) {
      for (size_t j = 0; j < hi - lo; ++j) {
        ++hist[stride.Hash(j) >> kPartitionShift];
      }
    });
  }));

  // 2. Partition p holds morsel 0's share of it, then morsel 1's, ...
  std::vector<uint32_t> start(num_morsels * kPartitions);
  out.partition_begin.assign(kPartitions + 1, 0);
  size_t pos = 0;
  for (size_t p = 0; p < kPartitions; ++p) {
    out.partition_begin[p] = pos;
    for (size_t m = 0; m < num_morsels; ++m) {
      start[m * kPartitions + p] = static_cast<uint32_t>(pos);
      pos += count[m * kPartitions + p];
    }
  }
  out.partition_begin[kPartitions] = pos;

  // 3. Scatter: each morsel writes its rows, in table order, into its own
  // share of every partition, with their key codes beside them.
  LAWS_RETURN_IF_ERROR(ForEach(num_morsels, 1, [&](size_t m) {
    uint32_t next[kPartitions];
    std::copy_n(&start[m * kPartitions], kPartitions, next);
    return each_stride(m, [&](const KeyCodes& stride, size_t lo, size_t hi) {
      for (size_t j = 0; j < hi - lo; ++j) {
        const size_t p = stride.Hash(j) >> kPartitionShift;
        uint32_t at = next[p]++;
#ifdef LAWS_TESTING_INJECT_BUG
        // Deliberate row-order break for the mutation smoke check in
        // tools/check_differential.sh: each morsel fills its share of a
        // partition back to front. Never defined in production builds.
        const size_t share = m * kPartitions + p;
        at = 2 * start[share] + count[share] - 1 - at;
#endif
        out.rows[at] =
            sel != nullptr ? sel[lo + j] : static_cast<uint32_t>(lo + j);
        stride.CopyTo(j, &codes, at);
      }
    });
  }));

  // 4. Per-partition tables, each built on its own lane. Local group ids
  // follow the partition's table order. A new group also sets its first
  // row's bit in `firsts`, which numbers the groups in step 5.
  const size_t num_words = num_rows / 64 + 1;
  LAWS_RETURN_IF_ERROR(charge->Acquire(
      num_words * (sizeof(uint64_t) + sizeof(uint32_t)), "grouping ranks"));
  std::vector<uint64_t> firsts(num_words, 0);
  std::vector<uint32_t> local_groups(kPartitions, 0);
  const size_t grain = PartitionGrain(n);
  LAWS_RETURN_IF_ERROR(ForEach(kPartitions, grain, [&](size_t p) -> Status {
    const size_t begin = out.partition_begin[p];
    const size_t end = out.partition_begin[p + 1];
    ScopedCharge table_charge;
    std::vector<Slot> slots;
    std::vector<uint32_t> first_at;  // local group -> its first position
    size_t mask = 0;
    const auto grow = [&](size_t capacity) -> Status {
      LAWS_RETURN_IF_ERROR(
          table_charge.Acquire(capacity * sizeof(Slot), "grouping table"));
      std::vector<Slot> grown(capacity);
      const size_t grown_mask = capacity - 1;
      for (const Slot& s : slots) {
        if (s.group == 0) continue;
        size_t at = s.hash & grown_mask;
        while (grown[at].group != 0) at = (at + 1) & grown_mask;
        grown[at] = s;
      }
      slots = std::move(grown);
      mask = grown_mask;
      return Status::OK();
    };
    const size_t expect = std::min<size_t>(end - begin, 1024);
    first_at.reserve(expect);
    LAWS_RETURN_IF_ERROR(grow(std::bit_ceil(std::max<size_t>(16, 2 * expect))));
    for (size_t lo = begin; lo < end; lo += kGovernorPollStride) {
      LAWS_GOVERNOR_POLL();
      const size_t hi = std::min(end, lo + kGovernorPollStride);
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t h = static_cast<uint32_t>(codes.Hash(i));
        size_t at = h & mask;
        while (slots[at].group != 0 &&
               (slots[at].hash != h ||
                !codes.Equal(first_at[slots[at].group - 1], i))) {
          at = (at + 1) & mask;
        }
        if (slots[at].group != 0) {
          out.group[i] = slots[at].group - 1;
          continue;
        }
        out.group[i] = static_cast<uint32_t>(first_at.size());
        first_at.push_back(static_cast<uint32_t>(i));
        slots[at] = Slot{h, static_cast<uint32_t>(first_at.size())};
        const uint32_t row = out.rows[i];
        std::atomic_ref<uint64_t>(firsts[row / 64])
            .fetch_or(uint64_t{1} << (row % 64));
        if (2 * first_at.size() > slots.size()) {
          LAWS_RETURN_IF_ERROR(grow(2 * slots.size()));
        }
      }
    }
    local_groups[p] = static_cast<uint32_t>(first_at.size());
    return Status::OK();
  }));

  // 5. Numbering: a group's id is the rank of its first row among all
  // first rows, which is first-seen order.
  std::vector<uint32_t> rank_base(num_words);
  uint32_t ranked = 0;
  LAWS_RETURN_IF_ERROR(Strided(0, num_words, [&](size_t lo, size_t hi) {
    for (size_t w = lo; w < hi; ++w) {
      rank_base[w] = ranked;
      ranked += static_cast<uint32_t>(std::popcount(firsts[w]));
    }
  }));
  LAWS_RETURN_IF_ERROR(charge->Acquire(
      size_t{ranked} * 2 * sizeof(uint32_t), "grouping group ids"));
  out.first_row.resize(ranked);
  std::vector<uint32_t> local_base(kPartitions + 1, 0);
  for (size_t p = 0; p < kPartitions; ++p) {
    local_base[p + 1] = local_base[p] + local_groups[p];
  }
  std::vector<uint32_t> global_of(ranked);
  LAWS_RETURN_IF_ERROR(ForEach(kPartitions, grain, [&](size_t p) {
    uint32_t* global = global_of.data() + local_base[p];
    uint32_t seen = 0;
    const auto renumber = [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t local = out.group[i];
        if (local == seen) {  // the partition's next group starts here
          const uint32_t row = out.rows[i];
          const uint64_t below =
              firsts[row / 64] & ((uint64_t{1} << (row % 64)) - 1);
          global[seen++] = rank_base[row / 64] +
                           static_cast<uint32_t>(std::popcount(below));
          out.first_row[global[local]] = row;
        }
        out.group[i] = global[local];
      }
    };
    return Strided(out.partition_begin[p], out.partition_begin[p + 1],
                   renumber);
  }));
  return out;
}

Status ForEachPartition(const Grouping& grouping,
                        const std::function<Status(size_t, size_t)>& body) {
  const std::vector<size_t>& bounds = grouping.partition_begin;
  return ForEach(grouping.num_partitions(), PartitionGrain(bounds.back()),
                 [&](size_t p) { return body(bounds[p], bounds[p + 1]); });
}

Status RowsByGroup(const Grouping& grouping, ScopedCharge* charge,
                   std::vector<uint32_t>* rows,
                   std::vector<size_t>* offsets) {
  const size_t groups = grouping.num_groups();
  LAWS_RETURN_IF_ERROR(
      charge->Acquire(grouping.rows.size() * sizeof(uint32_t) +
                          (2 * groups + 1) * sizeof(size_t),
                      "rows by group"));
  // Every group lives in one partition, so the per-partition passes write
  // disjoint counters.
  offsets->assign(groups + 1, 0);
  LAWS_RETURN_IF_ERROR(ForEachPartition(grouping, [&](size_t b, size_t e) {
    return Strided(b, e, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) ++(*offsets)[grouping.group[i] + 1];
    });
  }));
  LAWS_RETURN_IF_ERROR(Strided(0, groups, [&](size_t lo, size_t hi) {
    for (size_t g = lo; g < hi; ++g) (*offsets)[g + 1] += (*offsets)[g];
  }));
  std::vector<size_t> next(offsets->begin(), offsets->end() - 1);
  LAWS_RETURN_IF_ERROR(ResizePolled(rows, grouping.rows.size()));
  return ForEachPartition(grouping, [&](size_t b, size_t e) {
    return Strided(b, e, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        (*rows)[next[grouping.group[i]]++] = grouping.rows[i];
      }
    });
  });
}

}  // namespace laws
