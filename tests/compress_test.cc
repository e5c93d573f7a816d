#include <gtest/gtest.h>
#include <zlib.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "common/governor.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "compress/column_compressor.h"
#include "compress/encoding.h"
#include "compress/semantic.h"
#include "lofar/generator.h"
#include "model/grouped_fit.h"
#include "model/model.h"

namespace laws {
namespace {

// --- Block encoders ------------------------------------------------------

using BlockDecoder = Status (*)(ByteReader*, int64_t*, uint64_t);

/// Decodes a block-encoded stream of `n` values; the decoder must use up
/// every byte.
std::vector<int64_t> Decoded(BlockDecoder decode, const ByteWriter& w,
                             size_t n) {
  std::vector<int64_t> out(n);
  ByteReader r(w.data());
  const Status st = decode(&r, out.data(), n);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(r.AtEnd());
  return out;
}

TEST(RleTest, RoundTripRuns) {
  const std::vector<int64_t> v = {5, 5, 5, 5, -1, -1, 7, 7, 7, 7, 7, 7};
  ByteWriter w;
  RleEncodeInt64(v, &w);
  EXPECT_EQ(Decoded(RleDecodeInt64, w, v.size()), v);
}

TEST(RleTest, CompressesConstantRuns) {
  const std::vector<int64_t> v(10000, 42);
  ByteWriter w;
  RleEncodeInt64(v, &w);
  EXPECT_LT(w.size(), 32u);
}

TEST(RleTest, EmptyInput) {
  ByteWriter w;
  RleEncodeInt64({}, &w);
  EXPECT_TRUE(Decoded(RleDecodeInt64, w, 0).empty());
}

TEST(DeltaVarintTest, RoundTripSortedAndRandom) {
  Rng rng(1);
  std::vector<int64_t> sorted;
  int64_t acc = 0;
  for (int i = 0; i < 5000; ++i) {
    acc += rng.UniformInt(0, 10);
    sorted.push_back(acc);
  }
  ByteWriter w;
  DeltaVarintEncodeInt64(sorted, &w);
  // Sorted small-delta data: ~1 byte per value.
  EXPECT_LT(w.size(), sorted.size() * 2);
  EXPECT_EQ(Decoded(DeltaVarintDecodeInt64, w, sorted.size()), sorted);
}

TEST(DeltaVarintTest, ExtremesSafe) {
  const std::vector<int64_t> v = {INT64_MIN, INT64_MAX, 0, -1, INT64_MIN,
                                  INT64_MAX};
  ByteWriter w;
  DeltaVarintEncodeInt64(v, &w);
  EXPECT_EQ(Decoded(DeltaVarintDecodeInt64, w, v.size()), v);
}

TEST(BitPackTest, RoundTripSmallRange) {
  Rng rng(2);
  std::vector<int64_t> v;
  for (int i = 0; i < 3000; ++i) v.push_back(rng.UniformInt(100, 115));
  ByteWriter w;
  BitPackEncodeInt64(v, &w);
  // Range 16 -> 4 bits/value.
  EXPECT_LT(w.size(), v.size());
  EXPECT_EQ(Decoded(BitPackDecodeInt64, w, v.size()), v);
}

TEST(BitPackTest, ConstantColumnIsTiny) {
  const std::vector<int64_t> v(100000, -7);
  ByteWriter w;
  BitPackEncodeInt64(v, &w);
  EXPECT_LT(w.size(), 16u);
  EXPECT_EQ(Decoded(BitPackDecodeInt64, w, v.size()), v);
}

TEST(BitPackTest, WideRangeFallsBackToRaw) {
  const std::vector<int64_t> v = {INT64_MIN, 0, INT64_MAX};
  ByteWriter w;
  BitPackEncodeInt64(v, &w);
  EXPECT_EQ(Decoded(BitPackDecodeInt64, w, v.size()), v);
}

class BitPackWidths : public ::testing::TestWithParam<int> {};

TEST_P(BitPackWidths, EveryWidthRoundTrips) {
  const int width = GetParam();
  Rng rng(100 + width);
  const int64_t hi = width >= 63 ? INT64_MAX
                                 : (int64_t{1} << width) - 1;
  std::vector<int64_t> v;
  for (int i = 0; i < 257; ++i) v.push_back(rng.UniformInt(0, hi));
  v.push_back(0);
  v.push_back(hi);
  ByteWriter w;
  BitPackEncodeInt64(v, &w);
  EXPECT_EQ(Decoded(BitPackDecodeInt64, w, v.size()), v);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPackWidths,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 15, 16, 31, 33,
                                           47, 55, 56, 57, 63));

/// Frames a ZlibCompress blob the way column payloads carry it.
std::vector<uint8_t> Framed(const std::vector<uint8_t>& blob) {
  ByteWriter w;
  w.PutVarint(blob.size());
  w.PutRaw(blob.data(), blob.size());
  return w.TakeData();
}

TEST(ZlibTest, RoundTripAndCompressesRedundancy) {
  std::string text;
  for (int i = 0; i < 1000; ++i) text += "the quick brown fox ";
  auto z = ZlibCompress(reinterpret_cast<const uint8_t*>(text.data()),
                        text.size());
  ASSERT_TRUE(z.ok());
  EXPECT_LT(z->size(), text.size() / 10);
  const std::vector<uint8_t> framed = Framed(*z);
  ByteReader in(framed);
  ZlibBlobReader reader;
  ASSERT_TRUE(reader.Open(&in).ok());
  EXPECT_EQ(reader.declared_bytes(), text.size());
  std::string back(text.size(), '\0');
  ASSERT_TRUE(reader.GetRaw(back.data(), back.size()).ok());
  EXPECT_TRUE(reader.Finish().ok());
  EXPECT_EQ(back, text);
}

TEST(ZlibTest, RejectsCorruptBlob) {
  for (const std::vector<uint8_t>& blob :
       {std::vector<uint8_t>{1, 2, 3}, std::vector<uint8_t>(32, 0xAB)}) {
    const std::vector<uint8_t> framed = Framed(blob);
    ByteReader in(framed);
    ZlibBlobReader reader;
    Status st = reader.Open(&in);
    if (st.ok()) {
      std::vector<uint8_t> out(reader.declared_bytes());
      st = reader.GetRaw(out.data(), out.size());
      if (st.ok()) st = reader.Finish();
    }
    EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  }
}

// --- Column compressor -------------------------------------------------

Column SequentialInt64(size_t n) {
  Column c(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) c.AppendInt64(static_cast<int64_t>(i));
  return c;
}

TEST(ColumnCompressorTest, AutoPicksCompactEncodingForSequentialInts) {
  Column c = SequentialInt64(10000);
  auto cc = CompressColumn(c, ColumnEncoding::kAuto);
  ASSERT_TRUE(cc.ok());
  EXPECT_LT(cc->compressed_bytes(), c.MemoryBytes() / 3);
  auto back =
      DecompressColumn(*cc, Field{"x", DataType::kInt64, false}, c.size());
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back->Int64At(i), c.Int64At(i));
  }
}

class EncodingRoundTrip : public ::testing::TestWithParam<ColumnEncoding> {};

TEST_P(EncodingRoundTrip, Int64WithNulls) {
  Rng rng(7);
  Column c(DataType::kInt64);
  for (int i = 0; i < 500; ++i) {
    if (rng.Bernoulli(0.1)) {
      ASSERT_TRUE(c.AppendNull().ok());
    } else {
      c.AppendInt64(rng.UniformInt(-50, 50));
    }
  }
  auto cc = CompressColumn(c, GetParam());
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  auto back =
      DecompressColumn(*cc, Field{"x", DataType::kInt64, true}, c.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back->GetValue(i), c.GetValue(i)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Int64Encodings, EncodingRoundTrip,
                         ::testing::Values(ColumnEncoding::kPlain,
                                           ColumnEncoding::kRle,
                                           ColumnEncoding::kDeltaVarint,
                                           ColumnEncoding::kBitPack,
                                           ColumnEncoding::kZlib,
                                           ColumnEncoding::kAuto));

TEST(ColumnCompressorTest, DoubleShuffleZlibRoundTrip) {
  Rng rng(8);
  Column c(DataType::kDouble);
  for (int i = 0; i < 2000; ++i) c.AppendDouble(rng.Normal(5.0, 0.001));
  for (ColumnEncoding e : {ColumnEncoding::kPlain,
                           ColumnEncoding::kShuffleZlib,
                           ColumnEncoding::kZlib, ColumnEncoding::kAuto}) {
    auto cc = CompressColumn(c, e);
    ASSERT_TRUE(cc.ok());
    auto back =
      DecompressColumn(*cc, Field{"x", DataType::kDouble, false}, c.size());
    ASSERT_TRUE(back.ok());
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(back->DoubleAt(i), c.DoubleAt(i));
    }
  }
}

TEST(ColumnCompressorTest, StringColumnRoundTrip) {
  Column c(DataType::kString);
  const char* tags[] = {"red", "green", "blue"};
  for (int i = 0; i < 1000; ++i) c.AppendString(tags[i % 3]);
  auto cc = CompressColumn(c, ColumnEncoding::kAuto);
  ASSERT_TRUE(cc.ok());
  EXPECT_LT(cc->compressed_bytes(), c.MemoryBytes());
  auto back =
      DecompressColumn(*cc, Field{"x", DataType::kString, false}, c.size());
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back->StringAt(i), c.StringAt(i));
  }
}

TEST(ColumnCompressorTest, BoolColumnRoundTrip) {
  Rng rng(9);
  Column c(DataType::kBool);
  for (int i = 0; i < 300; ++i) c.AppendBool(rng.Bernoulli(0.5));
  auto cc = CompressColumn(c, ColumnEncoding::kAuto);
  ASSERT_TRUE(cc.ok());
  auto back =
      DecompressColumn(*cc, Field{"x", DataType::kBool, false}, c.size());
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back->BoolAt(i), c.BoolAt(i));
  }
}

TEST(ColumnCompressorTest, InapplicableEncodingErrors) {
  Column dbl(DataType::kDouble);
  dbl.AppendDouble(1.0);
  EXPECT_FALSE(CompressColumn(dbl, ColumnEncoding::kDeltaVarint).ok());
  Column b(DataType::kBool);
  b.AppendBool(true);
  EXPECT_FALSE(CompressColumn(b, ColumnEncoding::kRle).ok());
  EXPECT_FALSE(CompressColumn(b, ColumnEncoding::kBitPack).ok());
}

TEST(ColumnCompressorTest, Int64ShuffleZlibRoundTrip) {
  // XOR-delta-like payloads: low bytes random, high bytes zero.
  Rng rng(21);
  Column c(DataType::kInt64);
  for (int i = 0; i < 4000; ++i) {
    c.AppendInt64(static_cast<int64_t>(rng.NextU64() & 0xFFFFFF));
  }
  auto cc = CompressColumn(c, ColumnEncoding::kShuffleZlib);
  ASSERT_TRUE(cc.ok());
  EXPECT_LT(cc->compressed_bytes(), c.MemoryBytes() / 2);
  auto back =
      DecompressColumn(*cc, Field{"x", DataType::kInt64, false}, c.size());
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back->Int64At(i), c.Int64At(i));
  }
}

TEST(CompressedTableTest, FullTableRoundTripAndRatio) {
  Rng rng(10);
  Table t(Schema({Field{"k", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"tag", DataType::kString, false}}));
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(i / 100),
                             Value::Double(rng.Normal()),
                             Value::String(i % 2 == 0 ? "even" : "odd")})
                    .ok());
  }
  auto ct = CompressTable(t);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->num_rows, 5000u);
  EXPECT_LT(ct->CompressionRatio(), 1.0);
  EXPECT_GT(ct->TotalCompressedBytes(), 0u);
  auto back = DecompressTable(*ct);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); r += 97) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(back->GetValue(r, c), t.GetValue(r, c));
    }
  }
}

TEST(CompressedTableTest, ZeroColumnTableKeepsItsRows) {
  Table t{Schema{}};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(t.AppendRow({}).ok());
  auto ct = CompressTable(t);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->num_rows, 3u);
  auto back = DecompressTable(*ct);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_columns(), 0u);
  EXPECT_EQ(back->num_rows(), 3u);
}

// --- kAuto's sampled choice ----------------------------------------------

constexpr ColumnEncoding kAllEncodings[] = {
    ColumnEncoding::kPlain,       ColumnEncoding::kRle,
    ColumnEncoding::kDeltaVarint, ColumnEncoding::kBitPack,
    ColumnEncoding::kShuffleZlib, ColumnEncoding::kZlib};

bool IsZlib(ColumnEncoding e) {
  return e == ColumnEncoding::kZlib || e == ColumnEncoding::kShuffleZlib;
}

/// One of kAuto's candidates: an encoding, and a deflate strategy for the
/// zlib codecs.
struct Candidate {
  ColumnEncoding encoding;
  DeflateStrategy strategy;
};

/// Every candidate in kAuto's tie order: by encoding, then the default
/// strategy before run-length.
std::vector<Candidate> AllCandidates() {
  std::vector<Candidate> out;
  for (ColumnEncoding e : kAllEncodings) {
    out.push_back({e, DeflateStrategy::kDefault});
    if (IsZlib(e)) out.push_back({e, DeflateStrategy::kRunLength});
  }
  return out;
}

std::string NameOf(const Candidate& c) {
  return std::string(ColumnEncodingToString(c.encoding)) +
         (c.strategy == DeflateStrategy::kRunLength ? "/rle" : "");
}

/// The exhaustive choice kAuto made before sampling: the smallest payload
/// over every applicable candidate, a tie going to the earlier one.
CompressedColumn ExhaustiveSmallest(const Column& c) {
  std::optional<CompressedColumn> best;
  for (const Candidate& cand : AllCandidates()) {
    auto cc = CompressColumn(c, cand.encoding, cand.strategy);
    if (!cc.ok()) continue;
    if (!best || cc->payload.size() < best->payload.size()) best = *cc;
  }
  EXPECT_TRUE(best.has_value());
  return best.value_or(CompressedColumn{});
}

/// A column of `type` with `n` rows drawn from a small domain (so every
/// encoding has something to find), every `null_every`-th row NULL when
/// that is nonzero.
Column MixedColumn(DataType type, size_t n, size_t null_every,
                   uint64_t seed) {
  Rng rng(seed);
  Column c(type, null_every != 0);
  const char* tags[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < n; ++i) {
    if (null_every != 0 && i % null_every == 0) {
      EXPECT_TRUE(c.AppendNull().ok());
      continue;
    }
    switch (type) {
      case DataType::kInt64:
        c.AppendInt64(static_cast<int64_t>(i / 16) + rng.UniformInt(0, 3));
        break;
      case DataType::kDouble:
        c.AppendDouble(std::round(rng.Normal(50.0, 5.0) * 100.0) / 100.0);
        break;
      case DataType::kString:
        c.AppendString(tags[rng.UniformInt(0, 3)]);
        break;
      case DataType::kBool:
        c.AppendBool(rng.Bernoulli(0.2));
        break;
    }
  }
  return c;
}

TEST(AutoChoiceTest, ColumnThatIsItsOwnSampleGetsTheExhaustiveChoice) {
  for (DataType type : {DataType::kInt64, DataType::kDouble,
                        DataType::kString, DataType::kBool}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{1000}, size_t{65536}}) {
      for (size_t null_every : {size_t{0}, size_t{7}}) {
        const Column c = MixedColumn(type, n, null_every, n + null_every);
        auto autoc = CompressColumn(c, ColumnEncoding::kAuto);
        ASSERT_TRUE(autoc.ok()) << autoc.status().ToString();
        const CompressedColumn ref = ExhaustiveSmallest(c);
        SCOPED_TRACE(std::string(DataTypeToString(type)) + " n=" +
                     std::to_string(n) + " nulls=" +
                     std::to_string(null_every));
        EXPECT_EQ(autoc->encoding, ref.encoding);
        EXPECT_EQ(autoc->payload, ref.payload);
        auto back = DecompressColumn(
            *autoc, Field{"x", type, null_every != 0}, c.size());
        ASSERT_TRUE(back.ok()) << back.status().ToString();
        for (size_t i = 0; i < c.size(); ++i) {
          ASSERT_EQ(back->GetValue(i), c.GetValue(i)) << i;
        }
      }
    }
  }
}

/// Exhaustive reference over full LOFAR columns: the smallest candidate,
/// a tie going to the earlier one. The candidates run on pool lanes to
/// keep the test short.
Candidate ExhaustiveCandidateOnLanes(const Column& c) {
  const std::vector<Candidate> cands = AllCandidates();
  std::vector<size_t> sizes(cands.size(), SIZE_MAX);
  ParallelFor(0, sizes.size(), [&](size_t i) {
    auto cc = CompressColumn(c, cands[i].encoding, cands[i].strategy);
    if (cc.ok()) sizes[i] = cc->payload.size();
  });
  const size_t best = static_cast<size_t>(
      std::min_element(sizes.begin(), sizes.end()) - sizes.begin());
  return cands[best];
}

TEST(AutoChoiceTest, SampleChoiceMatchesExhaustiveOnLofarTables) {
  for (double jitter : {0.0, 0.12}) {
    LofarConfig cfg;
    cfg.band_jitter = jitter;
    auto data = GenerateLofar(cfg);
    ASSERT_TRUE(data.ok());
    const Table& t = data->observations;
    ASSERT_EQ(t.num_rows(), 1'452'824u);
    auto ct = CompressTable(t);
    ASSERT_TRUE(ct.ok()) << ct.status().ToString();
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Candidate best = ExhaustiveCandidateOnLanes(t.column(c));
      SCOPED_TRACE("jitter " + std::to_string(jitter) + " column " +
                   t.schema().field(c).name + " exhaustive " + NameOf(best));
      EXPECT_EQ(ct->columns[c].encoding, best.encoding);
      auto ref = CompressColumn(t.column(c), best.encoding, best.strategy);
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(ct->columns[c].payload, ref->payload);
    }
    if (jitter == 0.0) {
      // The end-to-end benchmark's table (band_jitter 0) at the
      // generator's default seed. Its codecs are pinned, and so is its
      // size, so any change to the encoders' bytes shows here. The
      // one-stream-per-column encoder wrote 12,744,003 bytes; deflating
      // in 1 MiB blocks, each primed with the 32 KiB before it, wrote
      // 12,741,537. The 4-valued wavelength now takes a dictionary with
      // 2-bit codes (it deflated to 705 KB), and intensity's shuffled
      // byte planes deflate under Z_RLE: 12,393,491.
      EXPECT_EQ(ct->columns[0].encoding, ColumnEncoding::kShuffleZlib);
      EXPECT_EQ(ct->columns[1].encoding, ColumnEncoding::kBitPack);
      EXPECT_EQ(ct->columns[2].encoding, ColumnEncoding::kShuffleZlib);
      EXPECT_EQ(ct->TotalCompressedBytes(), 12'393'491u);
    }
  }
}

/// Restores the default pool size when a test leaves.
struct LaneGuard {
  ~LaneGuard() { ThreadPool::SetGlobalThreadCount(0); }
};

/// `n` doubles with a full-width mantissa: noisy low byte planes.
Column NoisyDoubles(size_t n, uint64_t seed) {
  Rng rng(seed);
  Column c(DataType::kDouble);
  for (size_t i = 0; i < n; ++i) c.AppendDouble(rng.Normal(50.0, 5.0));
  return c;
}

TEST(AutoChoiceTest, CompressTableIsByteIdenticalAtOneTwoAndFourLanes) {
  LaneGuard guard;
  Table t(Schema({Field{"k", DataType::kInt64, true},
                  Field{"x", DataType::kDouble, false},
                  Field{"tag", DataType::kString, true},
                  Field{"flag", DataType::kBool, false},
                  Field{"small", DataType::kInt64, false},
                  Field{"noise", DataType::kDouble, false}}));
  // 400,000 rows: "noise" deflates in 4 blocks of 1 MiB; "x" holds fewer
  // distinct values than the dictionary bound and takes it.
  const size_t n = 400'000;
  std::vector<Column> cols;
  cols.push_back(MixedColumn(DataType::kInt64, n, 11, 1));
  cols.push_back(MixedColumn(DataType::kDouble, n, 0, 2));
  cols.push_back(MixedColumn(DataType::kString, n, 13, 3));
  cols.push_back(MixedColumn(DataType::kBool, n, 0, 4));
  cols.push_back(MixedColumn(DataType::kInt64, n, 0, 5));
  cols.push_back(NoisyDoubles(n, 6));
  auto table = Table::FromColumns(t.schema(), std::move(cols));
  ASSERT_TRUE(table.ok());
  std::vector<std::vector<uint8_t>> payloads[3];
  const size_t lane_counts[] = {1, 2, 4};
  for (size_t i = 0; i < 3; ++i) {
    ThreadPool::SetGlobalThreadCount(lane_counts[i]);
    auto ct = CompressTable(*table);
    ASSERT_TRUE(ct.ok()) << ct.status().ToString();
    EXPECT_EQ(ct->columns[1].encoding, ColumnEncoding::kBitPack);
    EXPECT_EQ(ct->columns[5].encoding, ColumnEncoding::kShuffleZlib);
    for (const auto& c : ct->columns) payloads[i].push_back(c.payload);
    auto back = DecompressTable(*ct);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    for (size_t r = 0; r < n; r += 997) {
      for (size_t c = 0; c < table->num_columns(); ++c) {
        ASSERT_EQ(back->GetValue(r, c), table->GetValue(r, c));
      }
    }
  }
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_EQ(payloads[0], payloads[2]);
}

// One CompressColumns region gives each column the payload it gets alone,
// so SemanticCompress can compress its residuals and its other columns
// together.
TEST(AutoChoiceTest, CompressColumnsEqualsOneColumnAtATime) {
  LaneGuard guard;
  ThreadPool::SetGlobalThreadCount(4);
  const size_t n = 300'000;
  const Column ints = MixedColumn(DataType::kInt64, n, 0, 1);
  const Column rounded = MixedColumn(DataType::kDouble, n, 0, 2);
  const Column noise = NoisyDoubles(n, 3);  // 3 DEFLATE blocks
  const Column tags = MixedColumn(DataType::kString, n, 13, 4);
  const std::vector<const Column*> columns = {&ints, &rounded, &noise, &tags};
  auto together = CompressColumns(columns, ColumnEncoding::kAuto);
  ASSERT_TRUE(together.ok()) << together.status().ToString();
  ASSERT_EQ(together->size(), columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    auto alone = CompressColumn(*columns[c], ColumnEncoding::kAuto);
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    EXPECT_EQ((*together)[c].encoding, alone->encoding) << c;
    EXPECT_EQ((*together)[c].payload, alone->payload) << c;
  }
}

TEST(AutoChoiceTest, CompressTableStopsWithinABlockOfACancel) {
  LofarConfig cfg;
  auto data = GenerateLofar(cfg);
  ASSERT_TRUE(data.ok());
  const Table& t = data->observations;
  {
    QueryGovernor canceled;
    canceled.Cancel();
    ScopedGovernor install(&canceled);
    EXPECT_EQ(CompressTable(t).status().code(), StatusCode::kCanceled);
  }
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  const auto whole_ms = [&] {
    const Clock::time_point start = Clock::now();
    EXPECT_TRUE(CompressTable(t).ok());
    return ms(Clock::now() - start);
  };
  const double before_ms = whole_ms();
  QueryGovernor governor;
  Clock::time_point canceled_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    canceled_at = Clock::now();
    governor.Cancel();
  });
  Result<CompressedTable> stopped = Status::Internal("not run");
  {
    ScopedGovernor install(&governor);
    stopped = CompressTable(t);
  }
  const Clock::time_point returned = Clock::now();
  canceller.join();
  EXPECT_EQ(stopped.status().code(), StatusCode::kCanceled);
  // A canceled save stops within a block of the cancel (~30 ms of DEFLATE
  // on the 4-core box, where the whole table takes ~300 ms); the bound
  // grows with builds and loads that run the whole table slower, timed on
  // both sides of the canceled run.
  const double slowest_ms = std::max(before_ms, whole_ms());
  EXPECT_LT(ms(returned - canceled_at), std::max(100.0, slowest_ms / 3))
      << "the whole table took " << slowest_ms << " ms";
}

// --- DOUBLE value dictionary ----------------------------------------------

/// `distinct` doubles with distinct bit patterns: -0.0, +0.0, +-inf and
/// NaNs with distinct payloads first, then ordinary values.
std::vector<double> DictionaryDomain(size_t distinct) {
  std::vector<double> domain = {
      -0.0,
      0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::bit_cast<double>(uint64_t{0x7FF8000000000001}),
      std::bit_cast<double>(uint64_t{0x7FF0000000000042}),  // signaling
      std::bit_cast<double>(uint64_t{0xFFF8000000000007}),
  };
  for (size_t i = domain.size(); i < distinct; ++i) {
    domain.push_back(1000.0 + 0.25 * static_cast<double>(i));
  }
  domain.resize(distinct);
  return domain;
}

/// `n` rows drawn from `domain` in short runs, every `null_every`-th row
/// NULL when that is nonzero (NULL rows hold +0.0).
Column DomainColumn(const std::vector<double>& domain, size_t n,
                    size_t null_every, uint64_t seed) {
  Rng rng(seed);
  Column c(DataType::kDouble, null_every != 0);
  double v = domain.empty() ? 0.0 : domain[0];
  for (size_t i = 0; i < n; ++i) {
    if (i < domain.size()) {
      v = domain[i];  // every value shows up
    } else if (rng.Bernoulli(0.3)) {
      v = domain[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(domain.size()) - 1))];
    }
    if (null_every != 0 && i % null_every == 1) {
      EXPECT_TRUE(c.AppendNull().ok());
    } else {
      c.AppendDouble(v);
    }
  }
  return c;
}

/// Bit-exact equality of two DOUBLE columns, NaN payloads and signed
/// zeros included.
void ExpectSameDoubles(const Column& a, const Column& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.null_count(), b.null_count());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a.double_data()[i]),
              std::bit_cast<uint64_t>(b.double_data()[i]))
        << i;
    ASSERT_EQ(a.IsNull(i), b.IsNull(i)) << i;
  }
}

TEST(DoubleDictionaryTest, RoundTripsBitExactUpToTheBound) {
  struct Shape {
    size_t distinct;
    size_t n;
    size_t null_every;
  };
  const Shape shapes[] = {
      {0, 0, 0},
      {1, 1, 0},
      {1, 5000, 0},
      {7, 5000, 0},
      {7, 5000, 4},
      {300, 20000, 0},
      {kMaxDoubleDictionary, 30000, 0},
      {kMaxDoubleDictionary, 30000, 9},
  };
  for (const Shape& shape : shapes) {
    const Column c = DomainColumn(DictionaryDomain(shape.distinct), shape.n,
                                  shape.null_every, shape.n + 3);
    for (ColumnEncoding e : {ColumnEncoding::kRle, ColumnEncoding::kBitPack}) {
      SCOPED_TRACE("distinct=" + std::to_string(shape.distinct) + " n=" +
                   std::to_string(shape.n) + " nulls=" +
                   std::to_string(shape.null_every) + " " +
                   std::string(ColumnEncodingToString(e)));
      auto cc = CompressColumn(c, e);
      ASSERT_TRUE(cc.ok()) << cc.status().ToString();
      EXPECT_EQ(cc->encoding, e);
      auto back = DecompressColumn(
          *cc, Field{"x", DataType::kDouble, shape.null_every != 0}, shape.n);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ExpectSameDoubles(*back, c);
      if (e == ColumnEncoding::kBitPack && shape.distinct > 1) {
        // Codes take ceil(log2(distinct)) bits a row.
        const size_t bits = static_cast<size_t>(
            std::bit_width(shape.distinct - 1));
        EXPECT_LT(cc->payload.size(),
                  shape.n * bits / 8 + 8 * shape.distinct + 64 +
                      c.validity().size());
      }
    }
  }
}

TEST(DoubleDictionaryTest, OneValuePastTheBoundIsOutOfRange) {
  const Column c =
      DomainColumn(DictionaryDomain(kMaxDoubleDictionary + 1), 30000, 0, 5);
  for (ColumnEncoding e : {ColumnEncoding::kRle, ColumnEncoding::kBitPack}) {
    EXPECT_EQ(CompressColumn(c, e).status().code(), StatusCode::kOutOfRange);
  }
  // kAuto declines the dictionary and still round-trips.
  auto cc = CompressColumn(c, ColumnEncoding::kAuto);
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  EXPECT_NE(cc->encoding, ColumnEncoding::kRle);
  EXPECT_NE(cc->encoding, ColumnEncoding::kBitPack);
  auto back = DecompressColumn(*cc, Field{"x", DataType::kDouble, false},
                               c.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameDoubles(*back, c);
}

/// kAuto's sample rows for a column of `n` > 65,536 rows: 8 windows of
/// 8,192 rows, the first at row 0 and the last ending at the last row.
std::vector<uint32_t> SampleRows(size_t n) {
  std::vector<uint32_t> rows;
  for (size_t w = 0; w < 8; ++w) {
    const size_t begin = (n - 8192) * w / 7;
    for (size_t i = 0; i < 8192; ++i) {
      rows.push_back(static_cast<uint32_t>(begin + i));
    }
  }
  return rows;
}

TEST(DoubleDictionaryTest, ColumnOverTheBoundTakesItsSamplesBestOtherCodec) {
  LaneGuard guard;
  // Four values inside the sample windows, a new value on every row
  // between them: the sample fits the dictionary, the column does not.
  const size_t n = 200'000;
  const std::vector<uint32_t> sample_rows = SampleRows(n);
  std::vector<uint8_t> in_sample(n, 0);
  for (uint32_t r : sample_rows) in_sample[r] = 1;
  Rng rng(31);
  Column c(DataType::kDouble);
  for (size_t i = 0; i < n; ++i) {
    c.AppendDouble(in_sample[i] ? 0.5 * static_cast<double>(rng.UniformInt(0, 3))
                                : 1000.0 + static_cast<double>(i));
  }
  auto sample = c.Gather(sample_rows);
  ASSERT_TRUE(sample.ok());
  auto sample_choice = CompressColumn(*sample, ColumnEncoding::kAuto);
  ASSERT_TRUE(sample_choice.ok());
  ASSERT_EQ(sample_choice->encoding, ColumnEncoding::kBitPack);
  ASSERT_EQ(CompressColumn(c, ColumnEncoding::kBitPack).status().code(),
            StatusCode::kOutOfRange);
  // The sample's smallest candidate without a dictionary, a tie going to
  // the earlier one.
  std::optional<Candidate> fallback;
  size_t fallback_bytes = SIZE_MAX;
  for (const Candidate& cand : AllCandidates()) {
    if (cand.encoding == ColumnEncoding::kRle ||
        cand.encoding == ColumnEncoding::kBitPack) {
      continue;
    }
    auto cc = CompressColumn(*sample, cand.encoding, cand.strategy);
    if (cc.ok() && cc->payload.size() < fallback_bytes) {
      fallback = cand;
      fallback_bytes = cc->payload.size();
    }
  }
  ASSERT_TRUE(fallback.has_value());
  auto expected = CompressColumn(c, fallback->encoding, fallback->strategy);
  ASSERT_TRUE(expected.ok());
  for (size_t lanes : {1, 4}) {
    SCOPED_TRACE("fallback " + NameOf(*fallback) + " lanes " +
                 std::to_string(lanes));
    ThreadPool::SetGlobalThreadCount(lanes);
    auto cc = CompressColumn(c, ColumnEncoding::kAuto);
    ASSERT_TRUE(cc.ok()) << cc.status().ToString();
    EXPECT_EQ(cc->encoding, fallback->encoding);
    EXPECT_EQ(cc->payload, expected->payload);
    auto back =
        DecompressColumn(*cc, Field{"x", DataType::kDouble, false}, n);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectSameDoubles(*back, c);
  }
}

/// A DOUBLE dictionary payload without NULLs, built by hand: `dictionary`
/// values, then an RLE body of one run per (code, rows) pair.
CompressedColumn HandBuiltDictionary(
    size_t dictionary, const std::vector<std::pair<int64_t, uint64_t>>& runs,
    uint64_t declared_rows) {
  ByteWriter w;
  w.PutU8(0);
  w.PutVarint(dictionary);
  for (size_t i = 0; i < dictionary; ++i) w.PutDouble(1.5 * i);
  w.PutVarint(declared_rows);
  for (const auto& [code, rows] : runs) {
    w.PutSignedVarint(code);
    w.PutVarint(rows);
  }
  CompressedColumn cc;
  cc.encoding = ColumnEncoding::kRle;
  cc.payload = w.TakeData();
  return cc;
}

TEST(DoubleDictionaryTest, MalformedPayloadsAreParseErrors) {
  const Field field{"x", DataType::kDouble, false};
  const size_t n = 1000;
  const Column c = DomainColumn(DictionaryDomain(5), n, 0, 8);
  auto rle = CompressColumn(c, ColumnEncoding::kRle);
  auto packed = CompressColumn(c, ColumnEncoding::kBitPack);
  ASSERT_TRUE(rle.ok() && packed.ok());
  const auto cut = [](CompressedColumn cc, size_t bytes) {
    cc.payload.resize(cc.payload.size() - bytes);
    return cc;
  };
  const auto extended = [](CompressedColumn cc) {
    cc.payload.push_back(0);
    return cc;
  };
  // A bit-packed body of eight 3-bit codes past a dictionary of 5: seven
  // 0s, then a 7 in the top 3 bits of the third byte.
  CompressedColumn bad_packed_code;
  {
    ByteWriter w;
    w.PutU8(0);
    w.PutVarint(5);
    for (int i = 0; i < 5; ++i) w.PutDouble(i);
    w.PutVarint(8);
    w.PutSignedVarint(0);
    w.PutU8(3);
    w.PutU8(0);
    w.PutU8(0);
    w.PutU8(0xE0);
    bad_packed_code.encoding = ColumnEncoding::kBitPack;
    bad_packed_code.payload = w.TakeData();
  }

  struct Case {
    const char* what;
    CompressedColumn cc;
    size_t rows;
    const char* message;
  };
  const Case cases[] = {
      {"dictionary over the bound",
       HandBuiltDictionary(kMaxDoubleDictionary + 1, {{0, 10}}, 10), 10,
       "DOUBLE dictionary holds more than"},
      {"dictionary count past the payload", cut(*rle, rle->payload.size() - 3),
       n, "DOUBLE dictionary"},
      {"RLE code past the dictionary",
       HandBuiltDictionary(4, {{0, 6}, {4, 4}}, 10), 10,
       "dictionary code out of range"},
      {"negative RLE code", HandBuiltDictionary(4, {{-1, 10}}, 10), 10,
       "dictionary code out of range"},
      {"bit-packed code past the dictionary", bad_packed_code, 8,
       "dictionary code out of range"},
      {"truncated RLE body", cut(*rle, 1), n, ""},
      {"truncated bit-pack body", cut(*packed, 1), n, "truncated"},
      {"trailing bytes after an RLE body", extended(*rle), n,
       "trailing bytes after column payload"},
      {"trailing bytes after a bit-pack body", extended(*packed), n,
       "trailing bytes after column payload"},
      {"RLE row count above", *rle, n - 1, "does not match row count"},
      {"RLE row count below", *rle, n + 1, "does not match row count"},
      {"bit-pack row count above", *packed, n - 1,
       "does not match row count"},
      {"bit-pack row count below", *packed, n + 1,
       "does not match row count"},
  };
  // The well-formed payloads decode, so each case fails for its own
  // reason.
  ASSERT_TRUE(DecompressColumn(*rle, field, n).ok());
  ASSERT_TRUE(DecompressColumn(*packed, field, n).ok());
  ASSERT_TRUE(
      DecompressColumn(HandBuiltDictionary(4, {{0, 6}, {3, 4}}, 10), field, 10)
          .ok());
  for (const Case& c : cases) {
    auto back = DecompressColumn(c.cc, field, c.rows);
    ASSERT_FALSE(back.ok()) << c.what;
    EXPECT_EQ(back.status().code(), StatusCode::kParseError)
        << c.what << ": " << back.status().ToString();
    EXPECT_NE(back.status().message().find(c.message), std::string::npos)
        << c.what << ": " << back.status().ToString();
  }
}

// --- Block-parallel zlib codecs ------------------------------------------

/// The block rule applied serially to a staged body with zlib directly:
/// ZlibCompress for a one-block body under the default strategy; otherwise
/// [u64 size][78 9C], then each 1 MiB block as raw DEFLATE (level 6,
/// window 15, memLevel 8, `strategy`), primed with the 32 KiB before it
/// and ended with a sync flush (the last with Z_FINISH), then the Adler-32
/// of the whole body. A one-block body under Z_RLE is one one-shot raw
/// stream in that frame.
std::vector<uint8_t> BlockRuleBlob(const std::vector<uint8_t>& body,
                                   int strategy = Z_DEFAULT_STRATEGY) {
  if (body.size() <= kZlibBlockBytes && strategy == Z_DEFAULT_STRATEGY) {
    auto z = ZlibCompress(body.data(), body.size());
    EXPECT_TRUE(z.ok());
    return *z;
  }
  ByteWriter out;
  out.PutU64(body.size());
  out.PutU8(0x78);
  out.PutU8(0x9C);
  size_t lo = 0;
  do {
    const size_t len = std::min(kZlibBlockBytes, body.size() - lo);
    const bool last = lo + len == body.size();
    z_stream zs{};
    EXPECT_EQ(deflateInit2(&zs, 6, Z_DEFLATED, -15, 8, strategy), Z_OK);
    if (lo > 0) {
      EXPECT_EQ(deflateSetDictionary(&zs, body.data() + lo - 32768, 32768),
                Z_OK);
    }
    std::vector<uint8_t> block(len * 2 + 64);
    zs.next_in = const_cast<uint8_t*>(body.data() + lo);
    zs.avail_in = static_cast<uInt>(len);
    zs.next_out = block.data();
    zs.avail_out = static_cast<uInt>(block.size());
    EXPECT_EQ(deflate(&zs, last ? Z_FINISH : Z_SYNC_FLUSH),
              last ? Z_STREAM_END : Z_OK);
    out.PutRaw(block.data(), block.size() - zs.avail_out);
    deflateEnd(&zs);
    lo += len;
  } while (lo < body.size());
  const auto adler = static_cast<uint32_t>(
      adler32(adler32(0L, Z_NULL, 0), body.data(),
              static_cast<uInt>(body.size())));
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.PutU8(static_cast<uint8_t>(adler >> shift));
  }
  return out.TakeData();
}

/// zlib's own decoder, independent of ZlibBlobReader: inflates the stream
/// of a [u64 size][zlib stream] blob.
std::vector<uint8_t> Uncompressed(const std::vector<uint8_t>& blob) {
  uint64_t declared = 0;
  std::memcpy(&declared, blob.data(), sizeof(declared));
  std::vector<uint8_t> back(declared + 1);
  uLongf got = back.size();
  EXPECT_EQ(uncompress(back.data(), &got, blob.data() + sizeof(declared),
                       blob.size() - sizeof(declared)),
            Z_OK);
  back.resize(got);
  return back;
}

/// The deflate input of a kZlib/kShuffleZlib payload staged in one
/// buffer: the row count and the rows, byte planes when shuffled.
std::vector<uint8_t> StagedBody(const Column& c, bool shuffle) {
  const size_t n = c.size();
  const size_t width = c.type() == DataType::kBool ? 1 : 8;
  const auto* src =
      c.type() == DataType::kInt64
          ? reinterpret_cast<const uint8_t*>(c.int64_data().data())
      : c.type() == DataType::kDouble
          ? reinterpret_cast<const uint8_t*>(c.double_data().data())
          : c.bool_data().data();
  ByteWriter body;
  body.PutVarint(n);
  std::vector<uint8_t> rows(n * width);
  for (size_t i = 0; i < n * width; ++i) {
    rows[i] = shuffle ? src[(i % n) * width + i / n] : src[i];
  }
  body.PutRaw(rows.data(), rows.size());
  return body.TakeData();
}

/// The reference for a kZlib/kShuffleZlib payload: the validity bitmap,
/// then the block rule over the staged body.
std::vector<uint8_t> OneShotPayload(const Column& c, bool shuffle,
                                    int strategy = Z_DEFAULT_STRATEGY) {
  ByteWriter out;
  out.PutU8(c.null_count() > 0 ? 1 : 0);
  if (c.null_count() > 0) {
    out.PutVarint(c.validity().size());
    out.PutRaw(c.validity().data(), c.validity().size());
  }
  const std::vector<uint8_t> z =
      BlockRuleBlob(StagedBody(c, shuffle), strategy);
  out.PutVarint(z.size());
  out.PutRaw(z.data(), z.size());
  return out.TakeData();
}

/// Rows of a BOOL column whose staged body is `body_bytes` long.
size_t BoolRowsForBody(size_t body_bytes) {
  size_t n = body_bytes - 1;
  while (n + VarintSize(n) > body_bytes) --n;
  return n;
}

TEST(StreamingZlibTest, PayloadsEqualOneShotReference) {
  LaneGuard guard;
  const size_t chunk = kZlibChunkBytes;
  const size_t mib = kZlibBlockBytes;
  // 8-byte rows: bodies of 3 + 8n bytes around one chunk, on both sides
  // of the first block edge and past the third. BOOL rows: bodies of
  // exactly 1 MiB - 1, 1 MiB, 1 MiB + 1 and 3 MiB + 1 bytes. A body of
  // more than one block is encoded at 1, 2 and 4 lanes.
  struct Shape {
    DataType type;
    size_t n;
    size_t null_every;
  };
  std::vector<Shape> shapes;
  for (DataType type : {DataType::kInt64, DataType::kDouble}) {
    for (size_t n : {size_t{0}, size_t{1}, chunk - 1, chunk, chunk + 1}) {
      shapes.push_back({type, n, 0});
      shapes.push_back({type, n, 5});
    }
  }
  shapes.push_back({DataType::kInt64, mib / 8 - 1, 0});
  shapes.push_back({DataType::kInt64, mib / 8, 5});
  shapes.push_back({DataType::kDouble, mib / 8, 0});
  shapes.push_back({DataType::kInt64, 3 * mib / 8 + 1, 5});
  for (size_t body : {mib - 1, mib, mib + 1, 3 * mib + 1}) {
    shapes.push_back({DataType::kBool, BoolRowsForBody(body), 0});
  }
  for (const Shape& shape : shapes) {
    const DataType type = shape.type;
    const size_t n = shape.n;
    const Column c = MixedColumn(type, n, shape.null_every, n * 3 + 1);
    const size_t width = type == DataType::kBool ? 1 : 8;
    const bool blocks = VarintSize(n) + n * width > mib;
    for (const Candidate& cand : AllCandidates()) {
      const ColumnEncoding e = cand.encoding;
      if (!IsZlib(e) ||
          (type == DataType::kBool && e == ColumnEncoding::kShuffleZlib)) {
        continue;
      }
      const std::vector<uint8_t> reference = OneShotPayload(
          c, e == ColumnEncoding::kShuffleZlib,
          cand.strategy == DeflateStrategy::kRunLength ? Z_RLE
                                                       : Z_DEFAULT_STRATEGY);
      for (size_t lanes : blocks ? std::vector<size_t>{1, 2, 4}
                                 : std::vector<size_t>{4}) {
        SCOPED_TRACE(std::string(DataTypeToString(type)) + " n=" +
                     std::to_string(n) + " nulls=" +
                     std::to_string(shape.null_every) + " " + NameOf(cand) +
                     " lanes=" + std::to_string(lanes));
        ThreadPool::SetGlobalThreadCount(lanes);
        auto cc = CompressColumn(c, e, cand.strategy);
        ASSERT_TRUE(cc.ok()) << cc.status().ToString();
        EXPECT_EQ(cc->payload, reference);
        auto back = DecompressColumn(
            *cc, Field{"x", type, shape.null_every != 0}, n);
        ASSERT_TRUE(back.ok()) << back.status().ToString();
        EXPECT_EQ(back->int64_data(), c.int64_data());
        EXPECT_EQ(back->double_data(), c.double_data());
        EXPECT_EQ(back->bool_data(), c.bool_data());
        EXPECT_EQ(back->validity(), c.validity());
        EXPECT_EQ(back->null_count(), c.null_count());
      }
    }
  }
}

TEST(StreamingZlibTest, BlockEdgesDecodeWithZlibItself) {
  const size_t mib = kZlibBlockBytes;
  // Runs with sparse noise: matches reach back across every block edge.
  Rng rng(2015);
  std::vector<uint8_t> rows(3 * mib + 64);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t noise = i % 61 == 0 ? rng.UniformInt(0, 9) : 0;
    rows[i] = static_cast<uint8_t>(i / 4096 + noise);
  }
  for (size_t bytes : {mib - 1, mib, mib + 1, 3 * mib + 1}) {
    for (int variant = 0; variant < 4; ++variant) {
      const bool shuffle = variant % 2 == 1;
      const bool rle = variant >= 2;
      SCOPED_TRACE(std::to_string(bytes) + (shuffle ? " shuffled" : "") +
                   (rle ? " Z_RLE" : ""));
      // A 13-byte header, then 8-byte elements (and a ragged tail of
      // header bytes when `bytes` is not 13 + 8n).
      ZlibInput in;
      in.n = (bytes - 13) / 8;
      in.width = 8;
      in.shuffle = shuffle;
      in.strategy =
          rle ? DeflateStrategy::kRunLength : DeflateStrategy::kDefault;
      in.data = rows.data();
      in.header.assign(bytes - in.n * 8, 0x42);
      ASSERT_EQ(in.size(), bytes);
      std::vector<uint8_t> staged = in.header;
      for (size_t i = 0; i < in.n * 8; ++i) {
        staged.push_back(shuffle ? rows[(i % in.n) * 8 + i / in.n] : rows[i]);
      }
      std::vector<uint8_t> framed;
      ASSERT_TRUE(AppendZlibBlob(in, &framed).ok());
      ByteReader r(framed);
      ASSERT_TRUE(r.GetVarint().ok());
      const std::vector<uint8_t> blob(framed.begin() + r.position(),
                                      framed.end());
      EXPECT_EQ(blob,
                BlockRuleBlob(staged, rle ? Z_RLE : Z_DEFAULT_STRATEGY));
      EXPECT_EQ(Uncompressed(blob), staged);
    }
  }
}

TEST(StreamingZlibTest, RandomBlocksFitTheirRoom) {
  // Incompressible input is where a block's output comes closest to its
  // room: every block must fit, and a room one byte short of what a block
  // needs is an error that writes nothing past it.
  Rng rng(99);
  std::vector<uint8_t> rows(3 * kZlibBlockBytes + 12345);
  for (uint8_t& b : rows) b = static_cast<uint8_t>(rng.NextU64());
  for (int variant = 0; variant < 4; ++variant) {
    ZlibInput in;
    in.data = rows.data();
    in.n = rows.size() / 8;
    in.width = 8;
    in.shuffle = variant % 2 == 1;
    in.strategy = variant >= 2 ? DeflateStrategy::kRunLength
                               : DeflateStrategy::kDefault;
    in.header = {1, 2, 3};
    ASSERT_EQ(in.blocks(), 4u);
    for (size_t b = 0; b < in.blocks(); ++b) {
      const size_t room = MaxZlibBlockBytes(in.block_bytes(b));
      std::vector<uint8_t> out(room + 16, 0xCD);
      auto block = DeflateZlibBlock(in, b, out.data(), room);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
      EXPECT_LE(block->bytes, room);
      EXPECT_GT(block->bytes, in.block_bytes(b));
      for (size_t i = room; i < out.size(); ++i) ASSERT_EQ(out[i], 0xCD);
      std::vector<uint8_t> short_room(block->bytes - 1 + 16, 0xCD);
      auto tight = DeflateZlibBlock(in, b, short_room.data(), block->bytes - 1);
      EXPECT_EQ(tight.status().code(), StatusCode::kInternal);
      for (size_t i = block->bytes - 1; i < short_room.size(); ++i) {
        ASSERT_EQ(short_room[i], 0xCD);
      }
    }
    std::vector<uint8_t> framed;
    framed.reserve(MaxZlibBlobBytes(in.size()));
    const uint8_t* before = framed.data();
    ASSERT_TRUE(AppendZlibBlob(in, &framed).ok());
    EXPECT_EQ(framed.data(), before);  // fits its bound: no reallocation
    ByteReader r(framed);
    ASSERT_TRUE(r.GetVarint().ok());
    const std::vector<uint8_t> back = Uncompressed(
        std::vector<uint8_t>(framed.begin() + r.position(), framed.end()));
    ASSERT_EQ(back.size(), in.size());
    EXPECT_TRUE(std::equal(in.header.begin(), in.header.end(), back.begin()));
  }
}

TEST(StreamingZlibTest, SingleStreamPayloadsStillDecode) {
  // Images written before the block encoder hold one compress2 stream per
  // column, however long: they decode unchanged.
  for (DataType type : {DataType::kInt64, DataType::kDouble}) {
    const Column c = MixedColumn(type, 400'000, 7, 21);
    for (bool shuffle : {false, true}) {
      const std::vector<uint8_t> body = StagedBody(c, shuffle);
      ASSERT_GT(body.size(), 3 * kZlibBlockBytes);
      auto z = ZlibCompress(body.data(), body.size());
      ASSERT_TRUE(z.ok());
      ByteWriter w;
      w.PutU8(1);
      w.PutVarint(c.validity().size());
      w.PutRaw(c.validity().data(), c.validity().size());
      w.PutVarint(z->size());
      w.PutRaw(z->data(), z->size());
      CompressedColumn cc;
      cc.encoding =
          shuffle ? ColumnEncoding::kShuffleZlib : ColumnEncoding::kZlib;
      cc.payload = w.TakeData();
      auto back = DecompressColumn(cc, Field{"x", type, true}, c.size());
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(back->int64_data(), c.int64_data());
      EXPECT_EQ(back->double_data(), c.double_data());
      EXPECT_EQ(back->validity(), c.validity());
    }
  }
}

/// A kShuffleZlib INT64 payload (no NULLs) with a hand-built blob:
/// `declared` decoded bytes over the DEFLATE of `body`, `tail` bytes after
/// the stream, `after` bytes after the blob.
CompressedColumn HandBuiltPayload(uint64_t declared,
                                  const std::vector<uint8_t>& body,
                                  size_t tail, size_t after,
                                  size_t cut = 0) {
  auto z = ZlibCompress(body.data(), body.size());
  EXPECT_TRUE(z.ok());
  std::vector<uint8_t> blob = *z;
  std::memcpy(blob.data(), &declared, sizeof(declared));
  blob.resize(blob.size() - cut);
  blob.insert(blob.end(), tail, 0x5A);
  ByteWriter w;
  w.PutU8(0);
  w.PutVarint(blob.size());
  w.PutRaw(blob.data(), blob.size());
  for (size_t i = 0; i < after; ++i) w.PutU8(0);
  CompressedColumn cc;
  cc.encoding = ColumnEncoding::kShuffleZlib;
  cc.payload = w.TakeData();
  return cc;
}

TEST(StreamingZlibTest, MalformedStreamsAreParseErrors) {
  const size_t n = 5000;
  ByteWriter good;
  good.PutVarint(n);
  for (size_t i = 0; i < n * 8; ++i) good.PutU8(static_cast<uint8_t>(i % 7));
  const std::vector<uint8_t>& body = good.data();
  const Field field{"x", DataType::kInt64, false};
  std::vector<uint8_t> longer = body;
  longer.push_back(1);
  std::vector<uint8_t> shorter(body.begin(), body.end() - 1);

  struct Case {
    const char* what;
    CompressedColumn cc;
    size_t rows;
    const char* message;
  };
  const Case cases[] = {
      {"truncated stream", HandBuiltPayload(body.size(), body, 0, 0, 9), n,
       "truncated zlib stream"},
      {"inflates to more than declared",
       HandBuiltPayload(body.size(), longer, 0, 0), n,
       "more bytes than declared"},
      {"inflates to fewer than declared",
       HandBuiltPayload(body.size(), shorter, 0, 0), n,
       "fewer bytes than declared"},
      {"header count above row count",
       HandBuiltPayload(body.size(), body, 0, 0), n - 1,
       "does not match row count"},
      {"header count below row count",
       HandBuiltPayload(body.size(), body, 0, 0), n + 1,
       "does not match row count"},
      {"trailing bytes after the stream",
       HandBuiltPayload(body.size(), body, 3, 0), n,
       "trailing bytes after zlib stream"},
      {"trailing bytes after the blob",
       HandBuiltPayload(body.size(), body, 0, 2), n,
       "trailing bytes after column payload"},
  };
  // The well-formed blob decodes, so each case fails for its own reason.
  ASSERT_TRUE(
      DecompressColumn(HandBuiltPayload(body.size(), body, 0, 0), field, n)
          .ok());
  for (const Case& c : cases) {
    auto back = DecompressColumn(c.cc, field, c.rows);
    ASSERT_FALSE(back.ok()) << c.what;
    EXPECT_EQ(back.status().code(), StatusCode::kParseError)
        << c.what << ": " << back.status().ToString();
    EXPECT_NE(back.status().message().find(c.message), std::string::npos)
        << c.what << ": " << back.status().ToString();
  }
}

TEST(StreamingZlibTest, ReaderNeverWritesPastTheDestination) {
  const size_t n = 3000;
  ByteWriter w;
  for (size_t i = 0; i < n * 8; ++i) w.PutU8(static_cast<uint8_t>(i * 31));
  ZlibInput input;
  input.data = w.data().data();
  input.n = n;
  input.width = 8;
  input.shuffle = true;
  std::vector<uint8_t> blob;
  ASSERT_TRUE(AppendZlibBlob(input, &blob).ok());
  // Declare one element fewer than the stream holds, then ask for them
  // all: the read must fail without touching the guard bytes.
  uint64_t declared = (n - 1) * 8;
  ByteReader header(blob);
  ASSERT_TRUE(header.GetVarint().ok());
  std::memcpy(blob.data() + header.position(), &declared, sizeof(declared));
  for (bool shuffled : {false, true}) {
    ByteReader in(blob);
    ZlibBlobReader reader;
    ASSERT_TRUE(reader.Open(&in).ok());
    std::vector<uint8_t> dst((n - 1) * 8 + 64, 0xCD);
    const Status st = shuffled ? reader.GetShuffled(dst.data(), n, 8)
                               : reader.GetRaw(dst.data(), n * 8);
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    for (size_t i = (n - 1) * 8; i < dst.size(); ++i) {
      ASSERT_EQ(dst[i], 0xCD) << i;
    }
  }
}

TEST(StreamingZlibTest, MutatedPayloadsNeverCrash) {
  // The image CRCs keep damaged payloads away from the decoders, so this
  // leans on the decoders' own bounds: every outcome but a crash is fine,
  // and an accepted payload still has the right row count.
  const size_t n = 3000;
  for (DataType type : {DataType::kInt64, DataType::kDouble,
                        DataType::kString, DataType::kBool}) {
    const Column c = MixedColumn(type, n, 9, 77);
    const Field field{"x", type, true};
    for (ColumnEncoding e : kAllEncodings) {
      auto cc = CompressColumn(c, e);
      if (!cc.ok()) continue;
      Rng rng(static_cast<uint64_t>(e) * 31 + static_cast<uint64_t>(type));
      for (int trial = 0; trial < 200; ++trial) {
        CompressedColumn bad = *cc;
        const size_t flips = 1 + rng.NextU64() % 4;
        for (size_t f = 0; f < flips; ++f) {
          const size_t bit = rng.NextU64() % (bad.payload.size() * 8);
          bad.payload[bit >> 3] ^= static_cast<uint8_t>(1u << (bit & 7));
        }
        if (trial % 5 == 0) {
          bad.payload.resize(rng.NextU64() % bad.payload.size());
        }
        auto back = DecompressColumn(bad, field, n);
        if (back.ok()) {
          EXPECT_EQ(back->size(), n);
        }
      }
    }
  }
}

// --- Semantic compression -----------------------------------------------

/// Builds a power-law grouped table y = p_g * x^a_g with noise, fits it,
/// and returns everything needed for semantic compression.
struct SemanticFixture {
  Table table{Schema{}};
  PowerLawModel model;
  GroupedFitSpec spec;
  GroupedFitOutput fits;
};

SemanticFixture MakeSemanticFixture(double noise_sd, uint64_t seed = 11) {
  SemanticFixture f;
  Rng rng(seed);
  Table t(Schema({Field{"g", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},
                  Field{"y", DataType::kDouble, false}}));
  for (int g = 1; g <= 20; ++g) {
    const double p = rng.Uniform(0.5, 2.0);
    const double a = rng.Uniform(-1.2, -0.4);
    for (int i = 0; i < 50; ++i) {
      const double x = rng.Uniform(0.1, 0.2);
      const double y =
          p * std::pow(x, a) * std::exp(rng.Normal(0.0, noise_sd));
      EXPECT_TRUE(t.AppendRow({Value::Int64(g), Value::Double(x),
                               Value::Double(y)})
                      .ok());
    }
  }
  f.table = std::move(t);
  f.spec.group_column = "g";
  f.spec.input_columns = {"x"};
  f.spec.output_column = "y";
  auto fits = FitGrouped(f.model, f.table, f.spec);
  EXPECT_TRUE(fits.ok());
  f.fits = std::move(*fits);
  return f;
}

TEST(SemanticCompressTest, LosslessRoundTripIsBitExact) {
  SemanticFixture f = MakeSemanticFixture(0.05);
  auto sc = SemanticCompress(f.table, f.model, f.fits, f.spec);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  auto back = SemanticDecompress(*sc);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), f.table.num_rows());
  const Column& y0 = *f.table.ColumnByName("y").value();
  const Column& y1 = *back->ColumnByName("y").value();
  for (size_t i = 0; i < y0.size(); ++i) {
    EXPECT_EQ(y1.DoubleAt(i), y0.DoubleAt(i)) << i;  // bit-exact
  }
  const Column& g0 = *f.table.ColumnByName("g").value();
  const Column& g1 = *back->ColumnByName("g").value();
  for (size_t i = 0; i < g0.size(); ++i) {
    EXPECT_EQ(g1.Int64At(i), g0.Int64At(i));
  }
}

TEST(SemanticCompressTest, LossyBoundsAbsoluteError) {
  SemanticFixture f = MakeSemanticFixture(0.05, 13);
  SemanticCompressionOptions opts;
  opts.lossless = false;
  opts.quantization_step = 1e-3;
  auto sc = SemanticCompress(f.table, f.model, f.fits, f.spec, opts);
  ASSERT_TRUE(sc.ok());
  auto back = SemanticDecompress(*sc);
  ASSERT_TRUE(back.ok());
  const Column& y0 = *f.table.ColumnByName("y").value();
  const Column& y1 = *back->ColumnByName("y").value();
  double max_err = 0.0;
  for (size_t i = 0; i < y0.size(); ++i) {
    max_err = std::max(max_err, std::fabs(y1.DoubleAt(i) - y0.DoubleAt(i)));
  }
  EXPECT_LE(max_err, opts.quantization_step / 2 + 1e-12);
}

TEST(SemanticCompressTest, LossyBeatsLosslessOnSize) {
  SemanticFixture f = MakeSemanticFixture(0.05, 17);
  auto lossless = SemanticCompress(f.table, f.model, f.fits, f.spec);
  SemanticCompressionOptions opts;
  opts.lossless = false;
  opts.quantization_step = 1e-2;
  auto lossy = SemanticCompress(f.table, f.model, f.fits, f.spec, opts);
  ASSERT_TRUE(lossless.ok());
  ASSERT_TRUE(lossy.ok());
  EXPECT_LT(lossy->residual_column.compressed_bytes(),
            lossless->residual_column.compressed_bytes());
}

TEST(SemanticCompressTest, GoodModelShrinksResiduals) {
  // With a near-perfect model, quantized residuals are near zero and the
  // output column compresses far below its raw size.
  SemanticFixture f = MakeSemanticFixture(0.001, 19);
  SemanticCompressionOptions opts;
  opts.lossless = false;
  opts.quantization_step = 1e-3;
  auto sc = SemanticCompress(f.table, f.model, f.fits, f.spec, opts);
  ASSERT_TRUE(sc.ok());
  const size_t raw_output_bytes = f.table.num_rows() * sizeof(double);
  EXPECT_LT(sc->residual_column.compressed_bytes(), raw_output_bytes / 4);
}

TEST(SemanticCompressTest, LossyRequiresPositiveStep) {
  SemanticFixture f = MakeSemanticFixture(0.05, 23);
  SemanticCompressionOptions opts;
  opts.lossless = false;
  opts.quantization_step = 0.0;
  EXPECT_FALSE(SemanticCompress(f.table, f.model, f.fits, f.spec, opts).ok());
}

TEST(SemanticCompressTest, UnfittedGroupsStillRoundTrip) {
  SemanticFixture f = MakeSemanticFixture(0.05, 29);
  // Drop half the fitted groups to simulate skipped/failed fits.
  f.fits.groups.resize(f.fits.groups.size() / 2);
  auto sc = SemanticCompress(f.table, f.model, f.fits, f.spec);
  ASSERT_TRUE(sc.ok());
  auto back = SemanticDecompress(*sc);
  ASSERT_TRUE(back.ok());
  const Column& y0 = *f.table.ColumnByName("y").value();
  const Column& y1 = *back->ColumnByName("y").value();
  for (size_t i = 0; i < y0.size(); ++i) {
    EXPECT_EQ(y1.DoubleAt(i), y0.DoubleAt(i));
  }
}

TEST(SemanticCompressTest, RecompressWithBetterModelShrinksBlob) {
  // Compress power-law data against a (wrong) global-linear fit, then
  // recompress against the right power-law fit: the residuals collapse.
  SemanticFixture f = MakeSemanticFixture(0.01, 37);
  LinearModel wrong(1);
  auto wrong_fits = FitGrouped(wrong, f.table, f.spec);
  ASSERT_TRUE(wrong_fits.ok());
  auto blob_wrong = SemanticCompress(f.table, wrong, *wrong_fits, f.spec);
  ASSERT_TRUE(blob_wrong.ok());

  auto blob_right =
      SemanticRecompress(*blob_wrong, f.model, f.fits, f.spec);
  ASSERT_TRUE(blob_right.ok()) << blob_right.status().ToString();
  // Still bit-exact after the round trip through the old blob.
  auto restored = SemanticDecompress(*blob_right);
  ASSERT_TRUE(restored.ok());
  const Column& y0 = *f.table.ColumnByName("y").value();
  const Column& y1 = *restored->ColumnByName("y").value();
  for (size_t i = 0; i < y0.size(); i += 17) {
    EXPECT_EQ(y1.DoubleAt(i), y0.DoubleAt(i));
  }
  // And the better model compresses the residual column harder.
  EXPECT_LT(blob_right->residual_column.compressed_bytes(),
            blob_wrong->residual_column.compressed_bytes());
}

TEST(SemanticCompressTest, RecompressRefusesLossyInput) {
  SemanticFixture f = MakeSemanticFixture(0.05, 41);
  SemanticCompressionOptions lossy;
  lossy.lossless = false;
  lossy.quantization_step = 1e-3;
  auto blob = SemanticCompress(f.table, f.model, f.fits, f.spec, lossy);
  ASSERT_TRUE(blob.ok());
  EXPECT_FALSE(SemanticRecompress(*blob, f.model, f.fits, f.spec).ok());
}

TEST(SemanticCompressTest, RejectsNonDoubleOutput) {
  SemanticFixture f = MakeSemanticFixture(0.05, 31);
  GroupedFitSpec bad = f.spec;
  bad.output_column = "g";  // INT64
  EXPECT_FALSE(SemanticCompress(f.table, f.model, f.fits, bad).ok());
}

}  // namespace
}  // namespace laws
