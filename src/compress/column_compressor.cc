#include "compress/column_compressor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>

#include "common/bytes.h"
#include "common/governor.h"
#include "common/thread_pool.h"
#include "compress/encoding.h"

namespace laws {
namespace {

/// kAuto's sample: kSampleWindows evenly spaced windows of
/// kSampleWindowRows rows. A column of at most kSampleRows rows is its own
/// sample.
constexpr size_t kSampleWindows = 8;
constexpr size_t kSampleWindowRows = 8192;
constexpr size_t kSampleRows = kSampleWindows * kSampleWindowRows;

bool Applicable(DataType type, ColumnEncoding e) {
  switch (type) {
    case DataType::kInt64:
      return e == ColumnEncoding::kPlain || e == ColumnEncoding::kRle ||
             e == ColumnEncoding::kDeltaVarint ||
             e == ColumnEncoding::kBitPack ||
             e == ColumnEncoding::kShuffleZlib || e == ColumnEncoding::kZlib;
    case DataType::kDouble:
      return e == ColumnEncoding::kPlain || e == ColumnEncoding::kRle ||
             e == ColumnEncoding::kBitPack ||
             e == ColumnEncoding::kShuffleZlib || e == ColumnEncoding::kZlib;
    case DataType::kString:
      return e == ColumnEncoding::kPlain || e == ColumnEncoding::kRle ||
             e == ColumnEncoding::kBitPack || e == ColumnEncoding::kZlib;
    case DataType::kBool:
      return e == ColumnEncoding::kPlain || e == ColumnEncoding::kZlib;
  }
  return false;
}

/// DOUBLE columns under kRle and kBitPack code their rows through a
/// dictionary of distinct values.
bool HasValueDictionary(DataType type, ColumnEncoding e) {
  return type == DataType::kDouble &&
         (e == ColumnEncoding::kRle || e == ColumnEncoding::kBitPack);
}

bool IsZlib(ColumnEncoding e) {
  return e == ColumnEncoding::kZlib || e == ColumnEncoding::kShuffleZlib;
}

/// kAuto's candidates in ColumnEncoding order; a tie goes to the earlier
/// encoding.
constexpr ColumnEncoding kCandidates[] = {
    ColumnEncoding::kPlain,   ColumnEncoding::kRle,
    ColumnEncoding::kDeltaVarint, ColumnEncoding::kBitPack,
    ColumnEncoding::kShuffleZlib, ColumnEncoding::kZlib};

/// An encoding and the deflate strategy its zlib codec runs with. kAuto's
/// candidates order by encoding, then strategy, the default first.
struct Codec {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  DeflateStrategy strategy = DeflateStrategy::kDefault;

  bool operator<(const Codec& o) const {
    return std::tie(encoding, strategy) < std::tie(o.encoding, o.strategy);
  }
};

/// Bytes per row of the plain body (STRING: its uint32 dictionary code).
size_t ElementWidth(DataType type) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDouble:
      return 8;
    case DataType::kString:
      return 4;
    case DataType::kBool:
      return 1;
  }
  return 1;
}

const void* ElementData(const Column& column) {
  switch (column.type()) {
    case DataType::kInt64:
      return column.int64_data().data();
    case DataType::kDouble:
      return column.double_data().data();
    case DataType::kString:
      return column.string_codes().data();
    case DataType::kBool:
      return column.bool_data().data();
  }
  return nullptr;
}

void WriteValidity(const Column& column, ByteWriter* out) {
  const bool has_nulls = column.null_count() > 0;
  out->PutU8(has_nulls ? 1 : 0);
  if (has_nulls) {
    out->PutVarint(column.validity().size());
    out->PutRaw(column.validity().data(), column.validity().size());
  }
}

Result<std::vector<uint8_t>> ReadValidity(ByteReader* in, uint64_t rows) {
  LAWS_ASSIGN_OR_RETURN(uint8_t has_nulls, in->GetU8());
  std::vector<uint8_t> validity;
  if (has_nulls) {
    LAWS_ASSIGN_OR_RETURN(uint64_t n, in->GetCount(1, "validity bitmap"));
    if (n != rows / 8 + (rows % 8 != 0 ? 1 : 0)) {
      return Status::ParseError("validity bitmap does not match row count");
    }
    validity.resize(n);
    LAWS_RETURN_IF_ERROR(in->GetRaw(validity.data(), n));
  }
  return validity;
}

/// STRING columns put their dictionary before every body encoding.
void WriteDictionary(const Column& column, ByteWriter* out) {
  if (column.type() != DataType::kString) return;
  out->PutVarint(column.dictionary().size());
  for (const auto& s : column.dictionary()) out->PutString(s);
}

size_t DictionaryBytes(const Column& column) {
  if (column.type() != DataType::kString) return 0;
  size_t bytes = VarintSize(column.dictionary().size());
  for (const auto& s : column.dictionary()) {
    bytes += VarintSize(s.size()) + s.size();
  }
  return bytes;
}

/// The DEFLATE input of a zlib codec: what the plain body puts before its
/// fixed-width rows (the dictionary for STRING, then the row count), then
/// the rows, byte plane by byte plane under kShuffleZlib.
ZlibInput ZlibInputOf(const Column& column, Codec codec) {
  ByteWriter header;
  WriteDictionary(column, &header);
  header.PutVarint(column.size());
  ZlibInput in;
  in.header = header.TakeData();
  in.data = ElementData(column);
  in.n = column.size();
  in.width = ElementWidth(column.type());
  in.shuffle = codec.encoding == ColumnEncoding::kShuffleZlib;
  in.strategy = codec.strategy;
  return in;
}

/// Upper bound on EncodeColumn's payload, so the buffer can be reserved
/// before encoding starts.
size_t MaxPayloadBytes(const Column& column, ColumnEncoding encoding) {
  const size_t n = column.size();
  const size_t validity = 1 + 10 + column.validity().size();
  const size_t header = DictionaryBytes(column) + VarintSize(n);
  if (HasValueDictionary(column.type(), encoding)) {
    // A code below kMaxDoubleDictionary takes at most 2 varint bytes, or
    // 12 packed bits, and a run of one row a 1-byte length.
    const size_t dictionary =
        VarintSize(kMaxDoubleDictionary) + 8 * kMaxDoubleDictionary;
    return validity + dictionary + header +
           (encoding == ColumnEncoding::kRle ? 3 * n : 2 + 2 * n);
  }
  switch (encoding) {
    case ColumnEncoding::kRle:
      // A run of one row takes a value of at most 10 bytes and a 1-byte
      // length; longer runs take less per row.
      return validity + header + 11 * n;
    case ColumnEncoding::kDeltaVarint:
      return validity + header + 10 * n;
    case ColumnEncoding::kBitPack:
      // The minimum, the width byte, and at worst every value raw.
      return validity + header + 11 + 8 * n;
    case ColumnEncoding::kShuffleZlib:
    case ColumnEncoding::kZlib:
      return validity +
             MaxZlibBlobBytes(header + n * ElementWidth(column.type()));
    default:
      return validity + header + n * ElementWidth(column.type());
  }
}

/// The one code writer: the kRle or kBitPack body of `n` codes in
/// [lo, hi], reading code(i) row by row and writing straight into `out`;
/// polls the governor every kGovernorPollStride rows.
template <typename CodeAt>
Status WriteCodes(ColumnEncoding encoding, size_t n, int64_t lo, int64_t hi,
                  CodeAt code, ByteWriter* out) {
  const auto put_all = [&](auto& writer) -> Status {
    for (size_t begin = 0; begin < n; begin += kGovernorPollStride) {
      LAWS_GOVERNOR_POLL();
      const size_t end = std::min(n, begin + kGovernorPollStride);
      for (size_t i = begin; i < end; ++i) writer.Put(code(i));
    }
    writer.Finish();
    return Status::OK();
  };
  if (encoding == ColumnEncoding::kRle) {
    RleWriter writer(n, out);
    return put_all(writer);
  }
  BitPackWriter writer(n, lo, hi, out);
  return put_all(writer);
}

/// The least and greatest element of `v`; 0 and 0 when it is empty.
template <typename T>
std::pair<int64_t, int64_t> RangeOf(const std::vector<T>& v) {
  if (v.empty()) return {0, 0};
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return {static_cast<int64_t>(*lo), static_cast<int64_t>(*hi)};
}

/// The distinct bit patterns of a DOUBLE column in first-seen order, at
/// most kMaxDoubleDictionary of them, found through an open-addressing
/// table of twice that many slots.
class DoubleDictionary {
 public:
  DoubleDictionary() : slots_(kSlots, 0) {
    values_.reserve(kMaxDoubleDictionary);
  }

  /// The code of `bits`, which is added if new; -1 when it is new and the
  /// dictionary is full.
  int64_t Intern(uint64_t bits) {
    size_t s = static_cast<size_t>((bits * 0x9E3779B97F4A7C15ULL) >>
                                   (64 - kSlotBits));
    for (; slots_[s] != 0; s = (s + 1) & (kSlots - 1)) {
      if (values_[slots_[s] - 1] == bits) return slots_[s] - 1;
    }
    if (values_.size() == kMaxDoubleDictionary) return -1;
    values_.push_back(bits);
    slots_[s] = static_cast<uint16_t>(values_.size());
    return static_cast<int64_t>(values_.size()) - 1;
  }

  const std::vector<uint64_t>& values() const { return values_; }

 private:
  static constexpr int kSlotBits = 13;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;
  static_assert(kSlots == 2 * kMaxDoubleDictionary);

  std::vector<uint16_t> slots_;  // a value's code + 1; 0 is empty
  std::vector<uint64_t> values_;
};

/// The kRle and kBitPack body: the STRING or DOUBLE dictionary, then every
/// row's code through the one code writer (an INT64 column's values are
/// its codes). A DOUBLE column with more than kMaxDoubleDictionary
/// distinct values is a kOutOfRange error, found before its dictionary is
/// written.
Status WriteCodedBody(const Column& column, ColumnEncoding encoding,
                      ByteWriter* out) {
  const size_t n = column.size();
  switch (column.type()) {
    case DataType::kInt64: {
      const int64_t* values = column.int64_data().data();
      const auto [lo, hi] = RangeOf(column.int64_data());
      return WriteCodes(encoding, n, lo, hi,
                        [values](size_t i) { return values[i]; }, out);
    }
    case DataType::kString: {
      WriteDictionary(column, out);
      const uint32_t* codes = column.string_codes().data();
      const auto [lo, hi] = RangeOf(column.string_codes());
      return WriteCodes(encoding, n, lo, hi,
                        [codes](size_t i) { return int64_t{codes[i]}; }, out);
    }
    case DataType::kDouble: {
      const double* values = column.double_data().data();
      DoubleDictionary dictionary;
      for (size_t begin = 0; begin < n; begin += kGovernorPollStride) {
        LAWS_GOVERNOR_POLL();
        const size_t end = std::min(n, begin + kGovernorPollStride);
        for (size_t i = begin; i < end; ++i) {
          if (dictionary.Intern(std::bit_cast<uint64_t>(values[i])) < 0) {
            return Status::OutOfRange(
                "DOUBLE column holds more than " +
                std::to_string(kMaxDoubleDictionary) + " distinct values");
          }
        }
      }
      const size_t size = dictionary.values().size();
      out->PutVarint(size);
      for (uint64_t bits : dictionary.values()) out->PutU64(bits);
      return WriteCodes(
          encoding, n, 0, size == 0 ? 0 : static_cast<int64_t>(size) - 1,
          [&](size_t i) {
            return dictionary.Intern(std::bit_cast<uint64_t>(values[i]));
          },
          out);
    }
    case DataType::kBool:
      break;
  }
  return Status::Internal("BOOL columns have no coded body");
}

/// Appends `column` encoded with `codec` (applicable, not kAuto) to
/// `payload` on the calling thread; with MaxPayloadBytes spare capacity it
/// never reallocates.
Status EncodeColumn(const Column& column, Codec codec,
                    std::vector<uint8_t>* payload) {
  ByteWriter w(std::move(*payload));
  WriteValidity(column, &w);
  const size_t n = column.size();
  Status status = Status::OK();
  switch (codec.encoding) {
    case ColumnEncoding::kZlib:
    case ColumnEncoding::kShuffleZlib:
      *payload = w.TakeData();
      return AppendZlibBlob(ZlibInputOf(column, codec), payload);
    case ColumnEncoding::kPlain:
      WriteDictionary(column, &w);
      w.PutVarint(n);
      w.PutRaw(ElementData(column), n * ElementWidth(column.type()));
      break;
    case ColumnEncoding::kDeltaVarint:
      DeltaVarintEncodeInt64(column.int64_data(), &w);
      break;
    default:
      status = WriteCodedBody(column, codec.encoding, &w);
      break;
  }
  *payload = w.TakeData();
  return status;
}

Result<CompressedColumn> CompressWith(const Column& column, Codec codec) {
  if (!Applicable(column.type(), codec.encoding)) {
    return Status::Unimplemented("encoding not applicable to column type");
  }
  CompressedColumn out;
  out.encoding = codec.encoding;
  out.uncompressed_bytes = column.MemoryBytes();
  out.payload.reserve(MaxPayloadBytes(column, codec.encoding));
  LAWS_RETURN_IF_ERROR(EncodeColumn(column, codec, &out.payload));
  return out;
}

/// A column's codec, and under kAuto its sample's smallest codec without a
/// value dictionary: the one a DOUBLE column takes when its rows overflow
/// the dictionary its sample fit.
struct Choice {
  Codec codec;
  std::optional<Codec> fallback;
};

/// kAuto's sample of a column longer than kSampleRows: kSampleWindows
/// windows, the first starting at row 0 and the last ending at the last
/// row.
Result<Column> SampleOf(const Column& column) {
  const size_t span = column.size() - kSampleWindowRows;
  std::vector<uint32_t> rows;
  rows.reserve(kSampleRows);
  for (size_t w = 0; w < kSampleWindows; ++w) {
    const size_t begin = span * w / (kSampleWindows - 1);
    for (size_t i = 0; i < kSampleWindowRows; ++i) {
      rows.push_back(static_cast<uint32_t>(begin + i));
    }
  }
  return column.Gather(rows);
}

/// Runs units [0, count) in one region over the pool's lanes: each lane
/// claims the next unit from one cursor until none is left, polling the
/// governor before each and stopping once it has tripped. The caller
/// re-polls after the region.
void RunClaimed(size_t count, const std::function<void(size_t)>& run) {
  std::atomic<size_t> cursor{0};
  const size_t lanes = std::min(ThreadPool::Global().num_threads(), count);
  ParallelForChunks(0, lanes, [&](size_t, size_t) {
    QueryGovernor* governor = QueryGovernor::Current();
    while (governor == nullptr || governor->Poll().ok()) {
      const size_t u = cursor++;
      if (u >= count) return;
      run(u);
    }
  });
}

/// kAuto's choice for every column. Each applicable candidate encodes the
/// column's sample as its own (column, codec) unit, a zlib codec once under
/// each deflate strategy, so one column's trials spread over the lanes;
/// the smallest wins, a tie going to the earlier codec. A dictionary trial
/// the sample overflows declines. A column that is its own sample keeps
/// its winning trial's payload and is marked `encoded`.
Status ChooseEncodings(const std::vector<const Column*>& columns,
                       std::vector<Choice>* choices,
                       std::vector<CompressedColumn>* out,
                       std::vector<uint8_t>* encoded) {
  const size_t k = columns.size();
  std::vector<Column> samples;
  samples.reserve(k);
  std::vector<const Column*> sample_of(k);
  struct Trial {
    size_t column;
    Codec codec;
  };
  std::vector<Trial> trials;
  for (size_t c = 0; c < k; ++c) {
    sample_of[c] = columns[c];
    if (columns[c]->size() > kSampleRows) {
      LAWS_ASSIGN_OR_RETURN(Column sample, SampleOf(*columns[c]));
      samples.push_back(std::move(sample));
      sample_of[c] = &samples.back();
    }
    for (ColumnEncoding cand : kCandidates) {
      if (!Applicable(columns[c]->type(), cand)) continue;
      trials.push_back({c, {cand, DeflateStrategy::kDefault}});
      if (IsZlib(cand)) {
        trials.push_back({c, {cand, DeflateStrategy::kRunLength}});
      }
    }
  }
  // The default-strategy DEFLATE trials cost the most: claimed first, they
  // do not finish the region alone on one lane.
  std::stable_partition(trials.begin(), trials.end(), [](const Trial& t) {
    return IsZlib(t.codec.encoding) &&
           t.codec.strategy == DeflateStrategy::kDefault;
  });
  constexpr size_t kDeclined = SIZE_MAX;
  std::vector<Status> status(trials.size());
  std::vector<size_t> sizes(trials.size(), kDeclined);
  // Only a column that is its own sample keeps its trials' payloads.
  std::vector<CompressedColumn> kept(trials.size());
  RunClaimed(trials.size(), [&](size_t u) {
    const Trial& t = trials[u];
    auto trial = CompressWith(*sample_of[t.column], t.codec);
    if (!trial.ok()) {
      if (!HasValueDictionary(columns[t.column]->type(), t.codec.encoding) ||
          trial.status().code() != StatusCode::kOutOfRange) {
        status[u] = trial.status();
      }
      return;
    }
    sizes[u] = trial->payload.size();
    if (sample_of[t.column] == columns[t.column]) kept[u] = std::move(*trial);
  });
  LAWS_GOVERNOR_POLL();
  for (const Status& st : status) LAWS_RETURN_IF_ERROR(st);
  const size_t none = trials.size();
  std::vector<size_t> best(k, none);
  std::vector<size_t> fallback(k, none);  // best without a value dictionary
  const auto improve = [&](size_t* b, size_t u) {
    if (*b == none || sizes[u] < sizes[*b] ||
        (sizes[u] == sizes[*b] && trials[u].codec < trials[*b].codec)) {
      *b = u;
    }
  };
  for (size_t u = 0; u < trials.size(); ++u) {
    if (sizes[u] == kDeclined) continue;
    const size_t c = trials[u].column;
    improve(&best[c], u);
    if (!HasValueDictionary(columns[c]->type(), trials[u].codec.encoding)) {
      improve(&fallback[c], u);
    }
  }
  for (size_t c = 0; c < k; ++c) {
    if (sample_of[c] == columns[c]) {
      (*out)[c] = std::move(kept[best[c]]);
      (*encoded)[c] = 1;
    } else {
      (*choices)[c] = {trials[best[c]].codec, trials[fallback[c]].codec};
    }
  }
  return Status::OK();
}

/// One zlib column being encoded: its DEFLATE input, its blob's writer,
/// and the blocks deflated before their turn, each in a staging buffer.
struct ZlibJob {
  ZlibInput input;
  ZlibBlobWriter writer;
  std::vector<std::pair<uint8_t*, ZlibBlock>> parked;  // by block
};

/// Encodes every column not yet `encoded` with its chosen codec. A zlib
/// column is one unit per DEFLATE block; any other column is one unit.
/// The units, in column order, are claimed from one cursor by every lane.
/// A block deflates into a staging buffer, and blocks join their payload
/// in block order: the lane whose block is next appends it and every
/// block parked behind it, then frees their buffers (pigz's writer). A
/// column whose rows overflow the value dictionary its sample fit is then
/// encoded again with its fallback.
Status EncodeColumns(const std::vector<const Column*>& columns,
                     std::vector<Choice>* choices,
                     std::vector<CompressedColumn>* out,
                     std::vector<uint8_t>* encoded) {
  // Every column-sized buffer is allocated here, before the lanes run: a
  // buffer a lane allocates is freed into that lane's malloc arena, which
  // keeps it resident (DESIGN.md §6). Each payload is reserved at its
  // bound, and a zlib payload gets its validity bitmap and blob head now.
  constexpr size_t kWholeColumn = SIZE_MAX;
  struct Unit {
    size_t column;
    size_t job;  // kWholeColumn, or the column's ZlibJob
    size_t block;
  };
  std::vector<Unit> units;
  std::vector<ZlibJob> jobs;
  jobs.reserve(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    if ((*encoded)[c]) continue;
    const Column& column = *columns[c];
    const Codec codec = (*choices)[c].codec;
    CompressedColumn& cc = (*out)[c];
    if (!Applicable(column.type(), codec.encoding)) {
      return Status::Unimplemented("encoding not applicable to column type");
    }
    cc.encoding = codec.encoding;
    cc.uncompressed_bytes = column.MemoryBytes();
    cc.payload.reserve(MaxPayloadBytes(column, codec.encoding));
    if (!IsZlib(codec.encoding)) {
      units.push_back({c, kWholeColumn, 0});
      continue;
    }
    ByteWriter w(std::move(cc.payload));
    WriteValidity(column, &w);
    cc.payload = w.TakeData();
    ZlibInput input = ZlibInputOf(column, codec);
    const uint64_t decoded = input.size();
    const size_t blocks = input.blocks();
    jobs.push_back(ZlibJob{std::move(input),
                           ZlibBlobWriter(decoded, &cc.payload),
                           std::vector<std::pair<uint8_t*, ZlibBlock>>(
                               blocks, {nullptr, ZlibBlock{}})});
    for (size_t b = 0; b < blocks; ++b) {
      units.push_back({c, jobs.size() - 1, b});
    }
  }
  if (units.empty()) return Status::OK();

  // Two staging buffers per lane, so a lane whose block waits for its turn
  // can deflate another. A lane takes a buffer before it claims a unit, so
  // every claimed block has one and the lowest unjoined block of every
  // column is always being deflated: the join cannot stall.
  const size_t lanes = std::min(ThreadPool::Global().num_threads(),
                                units.size());
  const size_t room = MaxZlibBlockBytes(kZlibBlockBytes);
  std::vector<std::unique_ptr<uint8_t[]>> staging(
      jobs.empty() ? 0 : 2 * lanes);
  // Guarded by `mutex`: the free buffers, and every job's parked blocks,
  // writer and payload.
  std::mutex mutex;
  std::condition_variable freed;
  std::vector<uint8_t*> free_buffers;
  for (auto& buffer : staging) {
    buffer = std::make_unique_for_overwrite<uint8_t[]>(room);
    free_buffers.push_back(buffer.get());
  }
  std::atomic<bool> stop{false};  // a unit failed: lanes stop claiming
  std::vector<Status> status(units.size());
  std::vector<uint8_t> declined(columns.size(), 0);
  std::atomic<size_t> cursor{0};

  // Parks block `b` of `job` in `buffer`, then appends to the payload every
  // block whose turn has come and frees its buffer.
  const auto join = [&](const Unit& unit, uint8_t* buffer,
                        const ZlibBlock& block) {
    ZlibJob& job = jobs[unit.job];
    std::vector<uint8_t>& payload = (*out)[unit.column].payload;
    std::lock_guard<std::mutex> lock(mutex);
    job.parked[unit.block] = {buffer, block};
    for (size_t b = job.writer.next_block();
         b < job.parked.size() && job.parked[b].first != nullptr;
         b = job.writer.next_block()) {
      const auto [bytes, next] = job.parked[b];
      payload.insert(payload.end(), bytes, bytes + next.bytes);
      job.writer.Add(next);
      free_buffers.push_back(bytes);
    }
    freed.notify_all();
  };

  ParallelForChunks(0, lanes, [&](size_t, size_t) {
    QueryGovernor* governor = QueryGovernor::Current();
    uint8_t* buffer = nullptr;
    while (!stop) {
      if (buffer == nullptr && !jobs.empty()) {
        std::unique_lock<std::mutex> lock(mutex);
        freed.wait(lock, [&] { return stop || !free_buffers.empty(); });
        if (stop) break;
        buffer = free_buffers.back();
        free_buffers.pop_back();
      }
      if (governor != nullptr && !governor->Poll().ok()) break;
      const size_t u = cursor++;
      if (u >= units.size()) break;
      const Unit& unit = units[u];
      if (unit.job == kWholeColumn) {
        const Choice& choice = (*choices)[unit.column];
        status[u] = EncodeColumn(*columns[unit.column], choice.codec,
                                 &(*out)[unit.column].payload);
        if (status[u].code() == StatusCode::kOutOfRange &&
            choice.fallback.has_value()) {
          declined[unit.column] = 1;
          status[u] = Status::OK();
        }
      } else if (auto block = DeflateZlibBlock(jobs[unit.job].input,
                                               unit.block, buffer, room);
                 block.ok()) {
        join(unit, buffer, *block);
        buffer = nullptr;
      } else {
        status[u] = block.status();
      }
      if (!status[u].ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        stop = true;
        freed.notify_all();
      }
    }
    if (buffer != nullptr) {
      std::lock_guard<std::mutex> lock(mutex);
      free_buffers.push_back(buffer);
      freed.notify_one();
    }
  });
  LAWS_GOVERNOR_POLL();
  for (const Status& st : status) LAWS_RETURN_IF_ERROR(st);
  for (const ZlibJob& job : jobs) {
    if (job.writer.next_block() != job.parked.size()) {
      return Status::Internal("zlib blob left unjoined");
    }
  }
  if (std::find(declined.begin(), declined.end(), 1) == declined.end()) {
    return Status::OK();
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    (*encoded)[c] = declined[c] == 0;
    if (declined[c] != 0) {
      Choice& choice = (*choices)[c];
      choice = {*choice.fallback, std::nullopt};
      (*out)[c].payload.clear();
    }
  }
  return EncodeColumns(columns, choices, out, encoded);
}

/// One column's decode in three steps, so that DecompressTable can size
/// every destination on the calling thread and decode on pool lanes.
struct ColumnDecode {
  const Field* field = nullptr;
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  size_t rows = 0;
  ByteReader in{nullptr, 0};  // the payload, past the validity bitmap
  std::vector<uint8_t> validity;
  ZlibBlobReader zlib;  // open for kZlib and kShuffleZlib
  // Destinations, sized to `rows` by PrepareDecode: `ints`, `doubles`,
  // `bools` or (STRING) `codes` by type.
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  std::vector<uint32_t> codes;
  // A STRING column's dictionary, and a DOUBLE column's under kRle and
  // kBitPack.
  std::vector<std::string> dictionary;
  std::vector<double> values;
};

template <typename Reader>
Status ReadDictionary(Reader* in, std::vector<std::string>* dictionary) {
  // Every dictionary entry encodes at least its 1-byte length prefix.
  LAWS_ASSIGN_OR_RETURN(uint64_t size, in->GetCount(1, "string dictionary"));
  dictionary->resize(size);
  for (auto& s : *dictionary) {
    LAWS_ASSIGN_OR_RETURN(s, in->GetString());
  }
  return Status::OK();
}

/// A DOUBLE column's dictionary: a count, then that many 64-bit patterns.
Status ReadValueDictionary(ByteReader* in, std::vector<double>* values) {
  LAWS_ASSIGN_OR_RETURN(uint64_t size, in->GetCount(8, "DOUBLE dictionary"));
  if (size > kMaxDoubleDictionary) {
    return Status::ParseError("DOUBLE dictionary holds more than " +
                              std::to_string(kMaxDoubleDictionary) +
                              " values");
  }
  values->resize(size);
  return in->GetRaw(values->data(), size * sizeof(double));
}

/// The plain body after the dictionary: the row count, then the rows
/// straight into the destination.
template <typename Reader>
Status ReadPlainRows(Reader* in, ColumnDecode* d) {
  LAWS_ASSIGN_OR_RETURN(uint64_t n, in->GetVarint());
  if (n != d->rows) {
    return Status::ParseError("column length does not match row count");
  }
  switch (d->field->type) {
    case DataType::kInt64:
      return in->GetRaw(d->ints.data(), n * sizeof(int64_t));
    case DataType::kDouble:
      return in->GetRaw(d->doubles.data(), n * sizeof(double));
    case DataType::kString:
      return in->GetRaw(d->codes.data(), n * sizeof(uint32_t));
    case DataType::kBool:
      return in->GetRaw(d->bools.data(), n);
  }
  return Status::Internal("corrupt column type");
}

/// Checks everything that bounds the row count, then sizes the
/// destination: nothing is allocated from `rows` until the payload could
/// hold that many.
Status PrepareDecode(const ColumnPayloadView& compressed, const Field& field,
                     size_t rows, ColumnDecode* d) {
  d->field = &field;
  d->encoding = compressed.encoding;
  d->rows = rows;
  d->in = ByteReader(compressed.payload.data(), compressed.payload.size());
  LAWS_ASSIGN_OR_RETURN(d->validity, ReadValidity(&d->in, rows));
  if (!Applicable(field.type, compressed.encoding)) {
    return Status::ParseError(
        "bad " + std::string(DataTypeToString(field.type)) + " encoding tag");
  }
  if (field.type == DataType::kString && !IsZlib(compressed.encoding)) {
    LAWS_RETURN_IF_ERROR(ReadDictionary(&d->in, &d->dictionary));
  }
  if (HasValueDictionary(field.type, compressed.encoding)) {
    LAWS_RETURN_IF_ERROR(ReadValueDictionary(&d->in, &d->values));
  }
  const size_t width = ElementWidth(field.type);
  switch (compressed.encoding) {
    case ColumnEncoding::kZlib:
    case ColumnEncoding::kShuffleZlib:
      LAWS_RETURN_IF_ERROR(d->zlib.Open(&d->in));
      if (rows > d->zlib.declared_bytes() / width) {
        return Status::ParseError("column length does not match row count");
      }
      break;
    case ColumnEncoding::kRle:
    case ColumnEncoding::kBitPack: {
      // These legitimately expand past their byte count, so the count they
      // start with must match and stay under the sanity cap.
      ByteReader peek = d->in;
      LAWS_ASSIGN_OR_RETURN(uint64_t n, peek.GetVarint());
      if (n != rows || n > kMaxDecodedElements) {
        return Status::ParseError("column length does not match row count");
      }
      break;
    }
    case ColumnEncoding::kDeltaVarint:
      LAWS_RETURN_IF_ERROR(d->in.CheckAvailable(rows, 1, "delta-varint rows"));
      break;
    default:
      LAWS_RETURN_IF_ERROR(d->in.CheckAvailable(rows, width, "column rows"));
      break;
  }
  switch (field.type) {
    case DataType::kInt64:
      d->ints.resize(rows);
      break;
    case DataType::kDouble:
      d->doubles.resize(rows);
      break;
    case DataType::kBool:
      d->bools.resize(rows);
      break;
    case DataType::kString:
      d->codes.resize(rows);
      break;
  }
  return Status::OK();
}

/// The kRle or kBitPack decoder, by the column's encoding.
template <typename Put>
Status DecodeCodesWith(ColumnDecode* d, Put put) {
  return d->encoding == ColumnEncoding::kRle
             ? RleDecode(&d->in, d->rows, put)
             : BitPackDecode(&d->in, d->rows, put);
}

/// A kRle or kBitPack body, decoded straight into the destination: INT64
/// values as they are, STRING codes as uint32 (FinishDecode checks those
/// of valid rows against the dictionary) and DOUBLE codes through the
/// column's dictionary, every one checked against it.
Status DecodeCodes(ColumnDecode* d) {
  switch (d->field->type) {
    case DataType::kInt64:
      return d->encoding == ColumnEncoding::kRle
                 ? RleDecodeInt64(&d->in, d->ints.data(), d->rows)
                 : BitPackDecodeInt64(&d->in, d->ints.data(), d->rows);
    case DataType::kString:
      return DecodeCodesWith(
          d, [out = d->codes.data()](uint64_t at, uint64_t rows, int64_t v) {
            if (v < 0 || v > int64_t{UINT32_MAX}) return false;
            std::fill_n(out + at, rows, static_cast<uint32_t>(v));
            return true;
          });
    case DataType::kDouble:
      return DecodeCodesWith(
          d, [out = d->doubles.data(), &values = d->values](
                 uint64_t at, uint64_t rows, int64_t code) {
            if (code < 0 || static_cast<uint64_t>(code) >= values.size()) {
              return false;
            }
            std::fill_n(out + at, rows, values[static_cast<size_t>(code)]);
            return true;
          });
    case DataType::kBool:
      break;
  }
  return Status::ParseError("bad BOOL encoding tag");
}

/// Decodes the body into the destination PrepareDecode sized.
Status RunDecode(ColumnDecode* d) {
  switch (d->encoding) {
    case ColumnEncoding::kPlain:
      LAWS_RETURN_IF_ERROR(ReadPlainRows(&d->in, d));
      break;
    case ColumnEncoding::kZlib:
      if (d->field->type == DataType::kString) {
        LAWS_RETURN_IF_ERROR(ReadDictionary(&d->zlib, &d->dictionary));
      }
      LAWS_RETURN_IF_ERROR(ReadPlainRows(&d->zlib, d));
      LAWS_RETURN_IF_ERROR(d->zlib.Finish());
      break;
    case ColumnEncoding::kShuffleZlib: {
      LAWS_ASSIGN_OR_RETURN(uint64_t n, d->zlib.GetVarint());
      if (n != d->rows) {
        return Status::ParseError("column length does not match row count");
      }
      void* out = d->field->type == DataType::kInt64
                      ? static_cast<void*>(d->ints.data())
                      : static_cast<void*>(d->doubles.data());
      LAWS_RETURN_IF_ERROR(d->zlib.GetShuffled(out, n, 8));
      LAWS_RETURN_IF_ERROR(d->zlib.Finish());
      break;
    }
    case ColumnEncoding::kRle:
    case ColumnEncoding::kBitPack:
      LAWS_RETURN_IF_ERROR(DecodeCodes(d));
      break;
    case ColumnEncoding::kDeltaVarint:
      LAWS_RETURN_IF_ERROR(
          DeltaVarintDecodeInt64(&d->in, d->ints.data(), d->rows));
      break;
    default:
      return Status::ParseError("bad encoding tag");
  }
  if (!d->in.AtEnd()) {
    return Status::ParseError("trailing bytes after column payload");
  }
  return Status::OK();
}

/// Builds the column from the decoded destination.
Result<Column> FinishDecode(ColumnDecode* d) {
  const bool nullable = d->field->nullable || !d->validity.empty();
  if (d->field->type == DataType::kString) {
    // Re-interning rebuilds the dictionary in first-seen order.
    Column col(DataType::kString, nullable);
    for (size_t i = 0; i < d->rows; ++i) {
      if (!d->validity.empty() && ((d->validity[i >> 3] >> (i & 7)) & 1) == 0) {
        LAWS_RETURN_IF_ERROR(col.AppendNull());
        continue;
      }
      const uint32_t code = d->codes[i];
      if (code >= d->dictionary.size()) {
        return Status::ParseError("dictionary code out of range");
      }
      col.AppendString(d->dictionary[code]);
    }
    return col;
  }
  Column col(d->field->type, /*nullable=*/false);
  switch (d->field->type) {
    case DataType::kInt64:
      col = Column::FromInt64Vector(std::move(d->ints));
      break;
    case DataType::kDouble:
      col = Column::FromDoubleVector(std::move(d->doubles));
      break;
    default:
      for (uint8_t& b : d->bools) b = b != 0 ? 1 : 0;
      col = Column::FromBoolVector(std::move(d->bools));
      break;
  }
  if (nullable) col.SetValidity(std::move(d->validity));
  return col;
}

}  // namespace

std::string_view ColumnEncodingToString(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain:
      return "plain";
    case ColumnEncoding::kRle:
      return "rle";
    case ColumnEncoding::kDeltaVarint:
      return "delta_varint";
    case ColumnEncoding::kBitPack:
      return "bitpack";
    case ColumnEncoding::kShuffleZlib:
      return "shuffle_zlib";
    case ColumnEncoding::kZlib:
      return "zlib";
    case ColumnEncoding::kAuto:
      return "auto";
  }
  return "?";
}

size_t CompressedTable::TotalCompressedBytes() const {
  size_t bytes = 0;
  for (const auto& c : columns) bytes += c.compressed_bytes();
  return bytes;
}

size_t CompressedTable::TotalUncompressedBytes() const {
  size_t bytes = 0;
  for (const auto& c : columns) bytes += c.uncompressed_bytes;
  return bytes;
}

double CompressedTable::CompressionRatio() const {
  const size_t raw = TotalUncompressedBytes();
  if (raw == 0) return 1.0;
  return static_cast<double>(TotalCompressedBytes()) /
         static_cast<double>(raw);
}

Result<std::vector<CompressedColumn>> CompressColumns(
    const std::vector<const Column*>& columns, ColumnEncoding encoding,
    DeflateStrategy strategy) {
  std::vector<CompressedColumn> out(columns.size());
  std::vector<uint8_t> encoded(columns.size(), 0);
  std::vector<Choice> choices(columns.size(),
                              Choice{Codec{encoding, strategy}, std::nullopt});
  if (encoding == ColumnEncoding::kAuto) {
    LAWS_RETURN_IF_ERROR(ChooseEncodings(columns, &choices, &out, &encoded));
  }
  LAWS_RETURN_IF_ERROR(EncodeColumns(columns, &choices, &out, &encoded));
  return out;
}

Result<CompressedColumn> CompressColumn(const Column& column,
                                        ColumnEncoding encoding,
                                        DeflateStrategy strategy) {
  LAWS_ASSIGN_OR_RETURN(std::vector<CompressedColumn> out,
                        CompressColumns({&column}, encoding, strategy));
  return std::move(out[0]);
}

Result<Column> DecompressColumn(const CompressedColumn& compressed,
                                const Field& field, size_t rows) {
  ColumnDecode d;
  LAWS_RETURN_IF_ERROR(PrepareDecode(
      ColumnPayloadView{compressed.encoding, compressed.payload}, field, rows,
      &d));
  LAWS_RETURN_IF_ERROR(RunDecode(&d));
  return FinishDecode(&d);
}

Result<CompressedTable> CompressTable(const Table& table,
                                      ColumnEncoding encoding) {
  std::vector<const Column*> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(&table.column(c));
  }
  CompressedTable out;
  out.schema = table.schema();
  out.num_rows = table.num_rows();
  LAWS_ASSIGN_OR_RETURN(out.columns, CompressColumns(columns, encoding));
  return out;
}

Result<Table> DecompressTable(const CompressedTable& compressed) {
  std::vector<ColumnPayloadView> columns;
  columns.reserve(compressed.columns.size());
  for (const CompressedColumn& c : compressed.columns) {
    columns.push_back({c.encoding, c.payload});
  }
  return DecompressTable(compressed.schema, compressed.num_rows, columns);
}

Result<Table> DecompressTable(const Schema& schema, size_t num_rows,
                              std::span<const ColumnPayloadView> columns) {
  const size_t k = columns.size();
  if (k != schema.num_fields()) {
    return Status::ParseError("column count does not match schema");
  }
  // Destinations are sized on this thread, for the same reason as in
  // CompressTable; the lanes only fill them.
  std::vector<ColumnDecode> decodes(k);
  for (size_t c = 0; c < k; ++c) {
    LAWS_RETURN_IF_ERROR(PrepareDecode(columns[c], schema.field(c), num_rows,
                                       &decodes[c]));
  }
  std::vector<Status> status(k);
  ParallelFor(0, k, [&](size_t c) { status[c] = RunDecode(&decodes[c]); });
  LAWS_GOVERNOR_POLL();
  for (const Status& s : status) LAWS_RETURN_IF_ERROR(s);
  std::vector<Column> out;
  out.reserve(k);
  for (ColumnDecode& d : decodes) {
    LAWS_ASSIGN_OR_RETURN(Column col, FinishDecode(&d));
    out.push_back(std::move(col));
  }
  return Table::FromColumns(schema, std::move(out), num_rows);
}

}  // namespace laws
