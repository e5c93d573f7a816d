#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"

namespace laws {
namespace {

// --- Status / Result ---------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table t");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table t");
  EXPECT_EQ(s.ToString(), "NotFound: table t");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::Unimplemented("").code(),   Status::Internal("").code(),
      Status::IOError("").code(),         Status::ParseError("").code(),
      Status::TypeMismatch("").code(),    Status::NumericError("").code(),
      Status::Aborted("").code()};
  EXPECT_EQ(codes.size(), 11u);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNumericError), "NumericError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  LAWS_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("x");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusIsRejected) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*DoublePositive(21), 42);
  EXPECT_FALSE(DoublePositive(-1).ok());
  EXPECT_EQ(DoublePositive(-1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// --- Rng ----------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ZipfBounded) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Zipf(100, 1.2);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
}

TEST(RngTest, ZipfIsSkewedTowardSmallValues) {
  Rng rng(23);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += rng.Zipf(1000, 1.5) == 1 ? 1 : 0;
  // Rank 1 should dominate under s=1.5.
  EXPECT_GT(ones, n / 4);
}

TEST(RngTest, PermutationIsBijective) {
  Rng rng(29);
  const auto perm = rng.Permutation(257);
  std::set<uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

// --- string_util ----------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split(",a,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "|"), "x|y|z");
  EXPECT_EQ(Join({}, "|"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("WHERE", "wher"));
  EXPECT_TRUE(StartsWith("power_law", "power"));
  EXPECT_FALSE(StartsWith("pow", "power"));
  EXPECT_TRUE(EndsWith("model.cc", ".cc"));
  EXPECT_FALSE(EndsWith(".cc", "model.cc"));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(11ull * 1024 * 1024), "11.0 MiB");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.6931471805599453, 4), "0.6931");
  EXPECT_EQ(FormatDouble(1e6, 3), "1e+06");
}

// --- bytes ------------------------------------------------------------

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutI64(-42);
  w.PutDouble(3.5);
  ByteReader r(w.data());
  EXPECT_EQ(*r.GetU8(), 7);
  EXPECT_EQ(*r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.GetI64(), -42);
  EXPECT_EQ(*r.GetDouble(), 3.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string(1000, 'x'));
  ByteReader r(w.data());
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_EQ(r.GetString()->size(), 1000u);
}

TEST(BytesTest, TruncatedReadsFail) {
  ByteWriter w;
  w.PutU8(1);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetU8().ok());
  EXPECT_FALSE(r.GetU64().ok());
  EXPECT_EQ(r.GetU64().status().code(), StatusCode::kParseError);
}

TEST(BytesTest, TruncatedStringFails) {
  ByteWriter w;
  w.PutVarint(100);  // claims 100 bytes follow
  w.PutU8('a');
  ByteReader r(w.data());
  EXPECT_FALSE(r.GetString().ok());
}

class VarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(VarintRoundTrip, Signed) {
  ByteWriter w;
  w.PutSignedVarint(GetParam());
  ByteReader r(w.data());
  EXPECT_EQ(*r.GetSignedVarint(), GetParam());
  EXPECT_TRUE(r.AtEnd());
}

TEST_P(VarintRoundTrip, UnsignedOfAbs) {
  const uint64_t v = static_cast<uint64_t>(GetParam());
  ByteWriter w;
  w.PutVarint(v);
  ByteReader r(w.data());
  EXPECT_EQ(*r.GetVarint(), v);
}

INSTANTIATE_TEST_SUITE_P(
    Extremes, VarintRoundTrip,
    ::testing::Values(0, 1, -1, 127, 128, -128, 300, -300, 1'000'000,
                      -1'000'000, INT64_MAX, INT64_MIN, INT64_MAX - 1,
                      INT64_MIN + 1));

TEST(BytesTest, RandomVarintProperty) {
  Rng rng(31);
  ByteWriter w;
  std::vector<int64_t> values;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextU64());
    values.push_back(v);
    w.PutSignedVarint(v);
  }
  ByteReader r(w.data());
  for (int64_t expected : values) EXPECT_EQ(*r.GetSignedVarint(), expected);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, MalformedVarintTooLong) {
  // 11 continuation bytes exceed the 64-bit budget.
  std::vector<uint8_t> bad(11, 0xFF);
  ByteReader r(bad.data(), bad.size());
  EXPECT_FALSE(r.GetVarint().ok());
}

TEST(BytesTest, HugeLengthPrefixDoesNotWrap) {
  // A corrupt length prefix near UINT64_MAX must fail cleanly: the naive
  // bound `pos_ + n > size_` wraps around and would admit the read.
  for (uint64_t n : {UINT64_MAX, UINT64_MAX - 1, UINT64_MAX - 7,
                     UINT64_MAX - 63, uint64_t{1} << 63}) {
    ByteWriter w;
    w.PutVarint(n);
    w.PutRaw("payload", 7);
    ByteReader r(w.data());
    EXPECT_FALSE(r.GetString().ok()) << n;
  }
}

TEST(BytesTest, HugeRawReadDoesNotWrap) {
  std::vector<uint8_t> buf(16, 0xAB);
  ByteReader r(buf.data(), buf.size());
  ASSERT_TRUE(r.GetU64().ok());  // pos_ = 8, so pos_ + SIZE_MAX wraps
  std::vector<uint8_t> out(32);
  EXPECT_FALSE(r.GetRaw(out.data(), SIZE_MAX).ok());
  EXPECT_FALSE(r.GetRaw(out.data(), SIZE_MAX - 4).ok());
  EXPECT_TRUE(r.GetRaw(out.data(), 8).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.GetU8().ok());
}

TEST(BytesTest, GetCountRejectsImplausibleCounts) {
  // 1000 claimed 8-byte elements against a 7-byte remainder.
  ByteWriter w;
  w.PutVarint(1000);
  w.PutRaw("1234567", 7);
  {
    ByteReader r(w.data());
    auto n = r.GetCount(8, "elems");
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), StatusCode::kParseError);
    EXPECT_NE(n.status().message().find("elems"), std::string::npos);
  }
  // The same count is fine when each element may be a single byte... but
  // not with only 7 bytes left; 7 elements pass.
  {
    ByteReader r(w.data());
    EXPECT_FALSE(r.GetCount(1, "elems").ok());
  }
  ByteWriter w2;
  w2.PutVarint(7);
  w2.PutRaw("1234567", 7);
  ByteReader r2(w2.data());
  auto n2 = r2.GetCount(1, "elems");
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 7u);
}

TEST(BytesTest, CheckAvailableGuardsOverflow) {
  std::vector<uint8_t> buf(64);
  ByteReader r(buf.data(), buf.size());
  EXPECT_TRUE(r.CheckAvailable(8, 8, "x").ok());
  EXPECT_FALSE(r.CheckAvailable(9, 8, "x").ok());
  // count * elem_bytes would overflow 64 bits; the division form must not.
  EXPECT_FALSE(r.CheckAvailable(UINT64_MAX / 2, 8, "x").ok());
  EXPECT_FALSE(r.CheckAvailable(UINT64_MAX, UINT64_MAX, "x").ok());
  EXPECT_TRUE(r.CheckAvailable(64, 1, "x").ok());
  EXPECT_TRUE(r.CheckAvailable(0, 0, "x").ok());
}

// --- Metrics -----------------------------------------------------------

TEST(MetricsTest, CounterAccumulatesAndResets) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name returns the same (stable) pointer.
  EXPECT_EQ(reg.GetCounter("test.counter"), c);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricsTest, HistogramSummaryStatsAreExact) {
  MetricsRegistry reg;
  MetricHistogram* h = reg.GetHistogram("test.hist");
  EXPECT_EQ(h->count(), 0u);
  for (double v : {1.0, 2.0, 3.0, 10.0}) h->Record(v);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 16.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 10.0);
  EXPECT_DOUBLE_EQ(h->Mean(), 4.0);
}

TEST(MetricsTest, HistogramQuantileIsWithinBucketResolution) {
  MetricsRegistry reg;
  MetricHistogram* h = reg.GetHistogram("test.q");
  for (int i = 0; i < 100; ++i) h->Record(100.0);
  h->Record(100000.0);
  // p50 sits in the bucket holding 100; the log2 midpoint is within 2x.
  const double p50 = h->Quantile(0.5);
  EXPECT_GE(p50, 50.0);
  EXPECT_LE(p50, 200.0);
  // Quantiles are clamped into [min, max].
  EXPECT_GE(h->Quantile(0.0), 100.0);
  EXPECT_LE(h->Quantile(1.0), 100000.0);
}

TEST(MetricsTest, SamplesSkipZeroEntriesAndSortByName) {
  MetricsRegistry reg;
  reg.GetCounter("b.nonzero")->Add(2);
  reg.GetCounter("a.zero");  // never incremented -> omitted
  reg.GetCounter("a.nonzero")->Add(1);
  auto counters = reg.CounterSamples();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].name, "a.nonzero");
  EXPECT_EQ(counters[1].name, "b.nonzero");
  reg.GetHistogram("empty.hist");  // empty -> omitted
  reg.GetHistogram("h")->Record(5.0);
  auto hists = reg.HistogramSamples();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].name, "h");
  EXPECT_EQ(hists[0].count, 1u);
}

TEST(MetricsTest, RenderAndJsonListNonZeroMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("query.executed")->Add(3);
  reg.GetHistogram("lat.micros")->Record(42.0);
  const std::string text = reg.Render();
  EXPECT_NE(text.find("query.executed"), std::string::npos);
  EXPECT_NE(text.find("lat.micros"), std::string::npos);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counter.query.executed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"histogram.lat.micros.count\": 1"),
            std::string::npos);
}

// --- Trace -------------------------------------------------------------

TEST(TraceTest, SpansRecordIntoThreadLocalSink) {
  TraceSink sink;
  {
    ScopedSpan outer("Outer");
    outer.SetRows(100, 10);
    {
      ScopedSpan inner("Inner");
      inner.SetDetail("x > 1");
    }
  }
  ASSERT_EQ(sink.spans().size(), 2u);
  const SpanRecord& outer = sink.spans()[0];
  const SpanRecord& inner = sink.spans()[1];
  EXPECT_STREQ(outer.name, "Outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_TRUE(outer.has_rows);
  EXPECT_EQ(outer.rows_in, 100u);
  EXPECT_EQ(outer.rows_out, 10u);
  EXPECT_STREQ(inner.name, "Inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.detail, "x > 1");
  // The outer span covers the inner one.
  EXPECT_GE(outer.micros, inner.micros);
}

TEST(TraceTest, EndIsIdempotentAndStopsUpdates) {
  TraceSink sink;
  ScopedSpan span("Phase");
  span.SetRows(1, 1);
  span.End();
  span.SetRows(99, 99);  // no-op after End
  span.End();            // double End is a no-op
  ASSERT_EQ(sink.spans().size(), 1u);
  EXPECT_EQ(sink.spans()[0].rows_in, 1u);
}

TEST(TraceTest, SinkStackRestoresPreviousSink) {
  EXPECT_EQ(TraceSink::Current(), nullptr);
  {
    TraceSink outer_sink;
    EXPECT_EQ(TraceSink::Current(), &outer_sink);
    {
      TraceSink inner_sink;
      EXPECT_EQ(TraceSink::Current(), &inner_sink);
      ScopedSpan span("OnlyInner");
      span.End();
      EXPECT_EQ(inner_sink.spans().size(), 1u);
      EXPECT_EQ(outer_sink.spans().size(), 0u);
    }
    EXPECT_EQ(TraceSink::Current(), &outer_sink);
  }
  EXPECT_EQ(TraceSink::Current(), nullptr);
}

TEST(TraceTest, CounterAddsCreditTheThreadsInnermostSink) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.trace.credited");
  const uint64_t before = c->value();
  TraceSink outer;
  c->Add(2);
  {
    TraceSink inner;
    c->Add(3);
    EXPECT_EQ(inner.Credited("test.trace.credited"), 3u);
  }
  std::thread([c] { c->Add(5); }).join();  // no sink on that thread
  EXPECT_EQ(outer.Credited("test.trace.credited"), 2u);
  EXPECT_EQ(outer.Credited("test.trace.never_added"), 0u);
  EXPECT_EQ(c->value(), before + 10);  // the global count sees every add
}

TEST(TraceTest, InactiveSpanIsANoOp) {
  ASSERT_EQ(TraceSink::Current(), nullptr);
  ASSERT_FALSE(TraceEnabled());
  ScopedSpan span("Idle");
  EXPECT_FALSE(span.active());
  span.SetRows(1, 1);  // must not crash
  span.End();
}

TEST(TraceTest, TraceGateFeedsSpanHistograms) {
  // The global gate routes span durations into span.<name>.micros.
  MetricsRegistry& reg = MetricsRegistry::Global();
  MetricHistogram* h = reg.GetHistogram("span.GatedPhase.micros");
  const uint64_t before = h->count();
  SetTraceEnabled(true);
  { ScopedSpan span("GatedPhase"); }
  SetTraceEnabled(false);
  EXPECT_EQ(h->count(), before + 1);
  { ScopedSpan span("GatedPhase"); }  // gate off, no sink -> not recorded
  EXPECT_EQ(h->count(), before + 1);
}

TEST(TraceTest, RenderShowsTreeRowsAndDetail) {
  TraceSink sink;
  {
    ScopedSpan outer("Query");
    ScopedSpan inner("Filter");
    inner.SetDetail("(x > 1)");
    inner.SetRows(10, 3);
  }
  const std::string text = sink.Render();
  EXPECT_NE(text.find("Query"), std::string::npos);
  EXPECT_NE(text.find("  Filter((x > 1))  rows=10->3"), std::string::npos);
  EXPECT_NE(text.find("time="), std::string::npos);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMicros(), t.ElapsedMillis());
  t.Restart();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace laws
