#include "compress/column_compressor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

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
      return e == ColumnEncoding::kPlain || e == ColumnEncoding::kShuffleZlib ||
             e == ColumnEncoding::kZlib;
    case DataType::kString:
      return e == ColumnEncoding::kPlain || e == ColumnEncoding::kRle ||
             e == ColumnEncoding::kBitPack || e == ColumnEncoding::kZlib;
    case DataType::kBool:
      return e == ColumnEncoding::kPlain || e == ColumnEncoding::kZlib;
  }
  return false;
}

/// kAuto's candidates in ColumnEncoding order; a tie goes to the earlier
/// encoding.
constexpr ColumnEncoding kCandidates[] = {
    ColumnEncoding::kPlain,   ColumnEncoding::kRle,
    ColumnEncoding::kDeltaVarint, ColumnEncoding::kBitPack,
    ColumnEncoding::kShuffleZlib, ColumnEncoding::kZlib};

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
ZlibInput ZlibInputOf(const Column& column, ColumnEncoding encoding) {
  ByteWriter header;
  WriteDictionary(column, &header);
  header.PutVarint(column.size());
  ZlibInput in;
  in.header = header.TakeData();
  in.data = ElementData(column);
  in.n = column.size();
  in.width = ElementWidth(column.type());
  in.shuffle = encoding == ColumnEncoding::kShuffleZlib;
  return in;
}

/// Upper bound on EncodeColumn's payload, so the buffer can be reserved
/// before encoding starts.
size_t MaxPayloadBytes(const Column& column, ColumnEncoding encoding) {
  const size_t n = column.size();
  const size_t validity = 1 + 10 + column.validity().size();
  const size_t header = DictionaryBytes(column) + VarintSize(n);
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

bool IsZlib(ColumnEncoding e) {
  return e == ColumnEncoding::kZlib || e == ColumnEncoding::kShuffleZlib;
}

/// Appends `column` encoded with `encoding` (applicable, not kAuto) to
/// `payload` on the calling thread; with MaxPayloadBytes spare capacity it
/// never reallocates.
Status EncodeColumn(const Column& column, ColumnEncoding encoding,
                    std::vector<uint8_t>* payload) {
  ByteWriter w(std::move(*payload));
  WriteValidity(column, &w);
  const size_t n = column.size();
  switch (encoding) {
    case ColumnEncoding::kZlib:
    case ColumnEncoding::kShuffleZlib:
      *payload = w.TakeData();
      return AppendZlibBlob(ZlibInputOf(column, encoding), payload);
    case ColumnEncoding::kPlain:
      WriteDictionary(column, &w);
      w.PutVarint(n);
      w.PutRaw(ElementData(column), n * ElementWidth(column.type()));
      break;
    default: {
      WriteDictionary(column, &w);
      std::vector<int64_t> codes;
      if (column.type() == DataType::kString) {
        codes.assign(column.string_codes().begin(),
                     column.string_codes().end());
      }
      const std::vector<int64_t>& values =
          column.type() == DataType::kString ? codes : column.int64_data();
      if (encoding == ColumnEncoding::kRle) {
        RleEncodeInt64(values, &w);
      } else if (encoding == ColumnEncoding::kDeltaVarint) {
        DeltaVarintEncodeInt64(values, &w);
      } else {
        BitPackEncodeInt64(values, &w);
      }
      break;
    }
  }
  *payload = w.TakeData();
  return Status::OK();
}

Result<CompressedColumn> CompressWith(const Column& column,
                                      ColumnEncoding encoding) {
  if (!Applicable(column.type(), encoding)) {
    return Status::Unimplemented("encoding not applicable to column type");
  }
  CompressedColumn out;
  out.encoding = encoding;
  out.uncompressed_bytes = column.MemoryBytes();
  out.payload.reserve(MaxPayloadBytes(column, encoding));
  LAWS_RETURN_IF_ERROR(EncodeColumn(column, encoding, &out.payload));
  return out;
}

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
/// column's sample as its own (column, codec) unit, so one column's trials
/// spread over the lanes; the smallest wins, a tie going to the earlier
/// candidate. A column that is its own sample keeps its winning trial's
/// payload and is marked `encoded`.
Status ChooseEncodings(const std::vector<const Column*>& columns,
                       std::vector<CompressedColumn>* out,
                       std::vector<uint8_t>* encoded) {
  const size_t k = columns.size();
  std::vector<Column> samples;
  samples.reserve(k);
  std::vector<const Column*> sample_of(k);
  struct Trial {
    size_t column;
    ColumnEncoding encoding;
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
      if (Applicable(columns[c]->type(), cand)) trials.push_back({c, cand});
    }
  }
  // The DEFLATE trials cost the most: claimed first, they do not finish
  // the region alone on one lane.
  std::stable_partition(trials.begin(), trials.end(),
                        [](const Trial& t) { return IsZlib(t.encoding); });
  std::vector<Status> status(trials.size());
  std::vector<size_t> sizes(trials.size());
  // Only a column that is its own sample keeps its trials' payloads.
  std::vector<CompressedColumn> kept(trials.size());
  RunClaimed(trials.size(), [&](size_t u) {
    const Trial& t = trials[u];
    auto trial = CompressWith(*sample_of[t.column], t.encoding);
    if (!trial.ok()) {
      status[u] = trial.status();
      return;
    }
    sizes[u] = trial->payload.size();
    if (sample_of[t.column] == columns[t.column]) kept[u] = std::move(*trial);
  });
  LAWS_GOVERNOR_POLL();
  for (const Status& st : status) LAWS_RETURN_IF_ERROR(st);
  // kCandidates lists the encodings in ColumnEncoding order.
  std::vector<size_t> best(k, trials.size());
  for (size_t u = 0; u < trials.size(); ++u) {
    size_t& b = best[trials[u].column];
    if (b == trials.size() || sizes[u] < sizes[b] ||
        (sizes[u] == sizes[b] && trials[u].encoding < trials[b].encoding)) {
      b = u;
    }
  }
  for (size_t c = 0; c < k; ++c) {
    if (sample_of[c] == columns[c]) {
      (*out)[c] = std::move(kept[best[c]]);
      (*encoded)[c] = 1;
    } else {
      (*out)[c].encoding = trials[best[c]].encoding;
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

/// Encodes every column not yet `encoded` with its chosen encoding. A zlib
/// column is one unit per DEFLATE block; any other column is one unit.
/// The units, in column order, are claimed from one cursor by every lane.
/// A block deflates into a staging buffer, and blocks join their payload
/// in block order: the lane whose block is next appends it and every
/// block parked behind it, then frees their buffers (pigz's writer).
Status EncodeColumns(const std::vector<const Column*>& columns,
                     std::vector<CompressedColumn>* out,
                     const std::vector<uint8_t>& encoded) {
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
    if (encoded[c]) continue;
    const Column& column = *columns[c];
    CompressedColumn& cc = (*out)[c];
    if (!Applicable(column.type(), cc.encoding)) {
      return Status::Unimplemented("encoding not applicable to column type");
    }
    cc.uncompressed_bytes = column.MemoryBytes();
    cc.payload.reserve(MaxPayloadBytes(column, cc.encoding));
    if (!IsZlib(cc.encoding)) {
      units.push_back({c, kWholeColumn, 0});
      continue;
    }
    ByteWriter w(std::move(cc.payload));
    WriteValidity(column, &w);
    cc.payload = w.TakeData();
    ZlibInput input = ZlibInputOf(column, cc.encoding);
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
        status[u] = EncodeColumn(*columns[unit.column],
                                 (*out)[unit.column].encoding,
                                 &(*out)[unit.column].payload);
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
  return Status::OK();
}

/// CompressTable and CompressColumn: every column encoded with `encoding`,
/// or under kAuto with its sample's choice.
Result<std::vector<CompressedColumn>> CompressColumns(
    const std::vector<const Column*>& columns, ColumnEncoding encoding) {
  std::vector<CompressedColumn> out(columns.size());
  std::vector<uint8_t> encoded(columns.size(), 0);
  for (CompressedColumn& c : out) c.encoding = encoding;
  if (encoding == ColumnEncoding::kAuto) {
    LAWS_RETURN_IF_ERROR(ChooseEncodings(columns, &out, &encoded));
  }
  LAWS_RETURN_IF_ERROR(EncodeColumns(columns, &out, encoded));
  return out;
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
  // Destinations, sized to `rows` by PrepareDecode: `ints`, `doubles` or
  // `bools` by type; STRING decodes `codes` (`ints` under kRle/kBitPack)
  // and the dictionary.
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  std::vector<uint32_t> codes;
  std::vector<std::string> dictionary;
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
Status PrepareDecode(const CompressedColumn& compressed, const Field& field,
                     size_t rows, ColumnDecode* d) {
  d->field = &field;
  d->encoding = compressed.encoding;
  d->rows = rows;
  d->in = ByteReader(compressed.payload);
  LAWS_ASSIGN_OR_RETURN(d->validity, ReadValidity(&d->in, rows));
  if (!Applicable(field.type, compressed.encoding)) {
    return Status::ParseError(
        "bad " + std::string(DataTypeToString(field.type)) + " encoding tag");
  }
  if (field.type == DataType::kString && !IsZlib(compressed.encoding)) {
    LAWS_RETURN_IF_ERROR(ReadDictionary(&d->in, &d->dictionary));
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
      if (compressed.encoding == ColumnEncoding::kRle ||
          compressed.encoding == ColumnEncoding::kBitPack) {
        d->ints.resize(rows);
      } else {
        d->codes.resize(rows);
      }
      break;
  }
  return Status::OK();
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
      LAWS_RETURN_IF_ERROR(RleDecodeInt64(&d->in, d->ints.data(), d->rows));
      break;
    case ColumnEncoding::kDeltaVarint:
      LAWS_RETURN_IF_ERROR(
          DeltaVarintDecodeInt64(&d->in, d->ints.data(), d->rows));
      break;
    case ColumnEncoding::kBitPack:
      LAWS_RETURN_IF_ERROR(BitPackDecodeInt64(&d->in, d->ints.data(), d->rows));
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
    const bool wide = !d->ints.empty();
    for (size_t i = 0; i < d->rows; ++i) {
      if (!d->validity.empty() && ((d->validity[i >> 3] >> (i & 7)) & 1) == 0) {
        LAWS_RETURN_IF_ERROR(col.AppendNull());
        continue;
      }
      const int64_t code = wide ? d->ints[i] : d->codes[i];
      if (code < 0 || static_cast<uint64_t>(code) >= d->dictionary.size()) {
        return Status::ParseError("dictionary code out of range");
      }
      col.AppendString(d->dictionary[static_cast<size_t>(code)]);
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

Result<CompressedColumn> CompressColumn(const Column& column,
                                        ColumnEncoding encoding) {
  LAWS_ASSIGN_OR_RETURN(std::vector<CompressedColumn> out,
                        CompressColumns({&column}, encoding));
  return std::move(out[0]);
}

Result<Column> DecompressColumn(const CompressedColumn& compressed,
                                const Field& field, size_t rows) {
  ColumnDecode d;
  LAWS_RETURN_IF_ERROR(PrepareDecode(compressed, field, rows, &d));
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
  const size_t k = compressed.columns.size();
  if (k != compressed.schema.num_fields()) {
    return Status::ParseError("column count does not match schema");
  }
  // Destinations are sized on this thread, for the same reason as in
  // CompressTable; the lanes only fill them.
  std::vector<ColumnDecode> decodes(k);
  for (size_t c = 0; c < k; ++c) {
    LAWS_RETURN_IF_ERROR(PrepareDecode(compressed.columns[c],
                                       compressed.schema.field(c),
                                       compressed.num_rows, &decodes[c]));
  }
  std::vector<Status> status(k);
  ParallelFor(0, k, [&](size_t c) { status[c] = RunDecode(&decodes[c]); });
  LAWS_GOVERNOR_POLL();
  for (const Status& s : status) LAWS_RETURN_IF_ERROR(s);
  std::vector<Column> columns;
  columns.reserve(k);
  for (ColumnDecode& d : decodes) {
    LAWS_ASSIGN_OR_RETURN(Column col, FinishDecode(&d));
    columns.push_back(std::move(col));
  }
  return Table::FromColumns(compressed.schema, std::move(columns));
}

}  // namespace laws
