/// Corruption and crash-safety tests: CRC32C vectors, the deterministic
/// fault injector, the v2 checksummed image format, atomic save semantics,
/// quarantine-based graceful degradation, and a seeded corruption-fuzz
/// sweep over every load path. Run under ASan/UBSan by
/// tools/check_robustness.sh.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "anomaly/anomaly.h"
#include "anomaly/exploration.h"
#include "aqp/domain.h"
#include "aqp/hybrid.h"
#include "aqp/inverse.h"
#include "aqp/model_aqp.h"
#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "core/diagnose.h"
#include "core/persistence.h"
#include "core/session.h"
#include "query/executor.h"
#include "storage/catalog.h"
#include "storage/serialize.h"

namespace laws {
namespace {

/// Same shape as the core_test fixture: a linear table and a grouped
/// power-law table, with one captured model over each.
struct Fixture {
  Catalog data;
  ModelCatalog models;
  std::unique_ptr<Session> session;
  uint64_t lin_model_id = 0;
  uint64_t plaw_model_id = 0;

  Fixture() {
    Rng rng(1);
    auto lin = std::make_shared<Table>(
        Schema({Field{"x", DataType::kDouble, false},
                Field{"y", DataType::kDouble, false}}));
    for (int i = 0; i < 100; ++i) {
      const double x = rng.Uniform(0, 10);
      EXPECT_TRUE(lin->AppendRow({Value::Double(x),
                                  Value::Double(3.0 + 2.0 * x +
                                                rng.Normal(0, 0.05))})
                      .ok());
    }
    data.RegisterOrReplace("lin", lin);

    auto plaw = std::make_shared<Table>(
        Schema({Field{"g", DataType::kInt64, false},
                Field{"x", DataType::kDouble, false},
                Field{"y", DataType::kDouble, false}}));
    for (int g = 1; g <= 8; ++g) {
      for (int i = 0; i < 40; ++i) {
        const double x = rng.Uniform(0.1, 0.2);
        const double y = (0.5 + 0.1 * g) * std::pow(x, -0.5 - 0.05 * g) *
                         std::exp(rng.Normal(0, 0.02));
        EXPECT_TRUE(plaw->AppendRow({Value::Int64(g), Value::Double(x),
                                     Value::Double(y)})
                        .ok());
      }
    }
    data.RegisterOrReplace("plaw", plaw);
    session = std::make_unique<Session>(&data, &models);

    FitRequest lin_req;
    lin_req.table = "lin";
    lin_req.model_source = "linear(1)";
    lin_req.input_columns = {"x"};
    lin_req.output_column = "y";
    auto lin_fit = session->Fit(lin_req);
    EXPECT_TRUE(lin_fit.ok());
    lin_model_id = lin_fit->model_id;

    FitRequest plaw_req;
    plaw_req.table = "plaw";
    plaw_req.model_source = "power_law";
    plaw_req.input_columns = {"x"};
    plaw_req.output_column = "y";
    plaw_req.group_column = "g";
    auto plaw_fit = session->Fit(plaw_req);
    EXPECT_TRUE(plaw_fit.ok());
    plaw_model_id = plaw_fit->model_id;
  }
};

std::vector<uint8_t> MustSave(const Fixture& f) {
  auto bytes = SaveDatabaseToBytes(f.data, f.models);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return *bytes;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::vector<uint8_t> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

/// RAII guard: every test starts and ends with nothing armed (the
/// injector is process-wide).
struct FaultGuard {
  FaultGuard() { FaultInjector::Instance().DisarmAll(); }
  ~FaultGuard() { FaultInjector::Instance().DisarmAll(); }
};

// --- CRC32C ------------------------------------------------------------------

TEST(Crc32cTest, StandardVectors) {
  // RFC 3720 / common Castagnoli check values.
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("a", 1), 0xC1D04330u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string s = "The quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(s.data(), s.size());
  for (size_t cut = 0; cut <= s.size(); cut += 7) {
    const uint32_t part = Crc32c(s.data() + cut, s.size() - cut,
                                 Crc32c(s.data(), cut));
    EXPECT_EQ(part, whole) << "cut at " << cut;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::vector<uint8_t> buf(257);
  Rng rng(7);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  const uint32_t clean = Crc32c(buf.data(), buf.size());
  for (int i = 0; i < 100; ++i) {
    const size_t bit = rng.NextU64() % (buf.size() * 8);
    buf[bit >> 3] ^= static_cast<uint8_t>(1u << (bit & 7));
    EXPECT_NE(Crc32c(buf.data(), buf.size()), clean);
    buf[bit >> 3] ^= static_cast<uint8_t>(1u << (bit & 7));
  }
}

TEST(Crc32cTest, HardwareAndPortablePathsAgree) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "this CPU has no SSE4.2 crc32 instruction";
  }
  std::vector<uint8_t> buf((size_t{1} << 20) + 8);
  Rng rng(11);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  // Every length 0..64 at every alignment 0..7 covers the byte head, the
  // 8-byte body and the byte tail of both loops; a seed exercises the
  // incremental form.
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* p = buf.data() + align;
      ASSERT_EQ(Crc32cHardware(p, len), Crc32cPortable(p, len))
          << "align " << align << " len " << len;
      ASSERT_EQ(Crc32cHardware(p, len, 0xDEADBEEFu),
                Crc32cPortable(p, len, 0xDEADBEEFu))
          << "align " << align << " len " << len;
    }
  }
  EXPECT_EQ(Crc32cHardware(buf.data(), size_t{1} << 20),
            Crc32cPortable(buf.data(), size_t{1} << 20));
  EXPECT_EQ(Crc32cHardware("123456789", 9), 0xE3069283u);
}

// --- Fault injector ----------------------------------------------------------

TEST(FaultInjectorTest, ParseClause) {
  std::string site;
  FaultSpec spec;
  ASSERT_TRUE(FaultInjector::ParseClause("persist/rename=error", &site, &spec));
  EXPECT_EQ(site, "persist/rename");
  EXPECT_EQ(spec.kind, FaultSpec::Kind::kError);

  ASSERT_TRUE(FaultInjector::ParseClause("a/b=truncate:512", &site, &spec));
  EXPECT_EQ(spec.kind, FaultSpec::Kind::kTruncate);
  EXPECT_EQ(spec.arg, 512u);

  ASSERT_TRUE(FaultInjector::ParseClause("a/b=bitflip:3@42", &site, &spec));
  EXPECT_EQ(spec.kind, FaultSpec::Kind::kBitFlip);
  EXPECT_EQ(spec.arg, 3u);
  EXPECT_EQ(spec.seed, 42u);

  EXPECT_FALSE(FaultInjector::ParseClause("", &site, &spec));
  EXPECT_FALSE(FaultInjector::ParseClause("noequals", &site, &spec));
  EXPECT_FALSE(FaultInjector::ParseClause("=error", &site, &spec));
  EXPECT_FALSE(FaultInjector::ParseClause("a/b=explode", &site, &spec));
  EXPECT_FALSE(FaultInjector::ParseClause("a/b=truncate:", &site, &spec));
  EXPECT_FALSE(FaultInjector::ParseClause("a/b=error@", &site, &spec));
  EXPECT_FALSE(FaultInjector::ParseClause("a/b=truncate:12x", &site, &spec));
}

TEST(FaultInjectorTest, ArmFireDisarm) {
  FaultGuard guard;
  auto& fi = FaultInjector::Instance();
  EXPECT_FALSE(fi.active());
  EXPECT_TRUE(fi.Check("t/site").ok());

  fi.Arm("t/site", FaultSpec{});
  EXPECT_TRUE(fi.active());
  const Status st = fi.Check("t/site");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("t/site"), std::string::npos);
  EXPECT_TRUE(fi.Check("t/other").ok());

  fi.Disarm("t/site");
  EXPECT_FALSE(fi.active());
  EXPECT_TRUE(fi.Check("t/site").ok());
}

TEST(FaultInjectorTest, SkipHitsAndMaxTriggers) {
  FaultGuard guard;
  auto& fi = FaultInjector::Instance();
  FaultSpec spec;
  spec.skip_hits = 2;
  spec.max_triggers = 1;
  fi.Arm("t/skip", spec);
  EXPECT_TRUE(fi.Check("t/skip").ok());   // skipped
  EXPECT_TRUE(fi.Check("t/skip").ok());   // skipped
  EXPECT_FALSE(fi.Check("t/skip").ok());  // fires
  EXPECT_TRUE(fi.Check("t/skip").ok());   // max_triggers exhausted
  EXPECT_GE(fi.HitCount("t/skip"), 4u);
}

TEST(FaultInjectorTest, KindsDoNotCrossConsume) {
  FaultGuard guard;
  auto& fi = FaultInjector::Instance();
  FaultSpec flip;
  flip.kind = FaultSpec::Kind::kBitFlip;
  flip.max_triggers = 1;
  fi.Arm("t/kind", flip);
  // Error and truncate probes on the same site must not consume the
  // single bitflip trigger.
  EXPECT_TRUE(fi.Check("t/kind").ok());
  bool fail_after = true;
  EXPECT_EQ(fi.AllowedWriteBytes("t/kind", 100, &fail_after), 100u);
  EXPECT_FALSE(fail_after);
  std::vector<uint8_t> buf(16, 0);
  EXPECT_TRUE(fi.CorruptBuffer("t/kind", buf.data(), buf.size()));
}

TEST(FaultInjectorTest, BitFlipsAreSeededAndReplayable) {
  FaultGuard guard;
  auto& fi = FaultInjector::Instance();
  FaultSpec flip;
  flip.kind = FaultSpec::Kind::kBitFlip;
  flip.arg = 5;
  flip.seed = 99;
  fi.Arm("t/flip", flip);

  std::vector<uint8_t> buf(64, 0);
  ASSERT_TRUE(fi.CorruptBuffer("t/flip", buf.data(), buf.size()));
  EXPECT_NE(buf, std::vector<uint8_t>(64, 0));
  // Same seed, same size: the second pass flips the same bits, restoring
  // the buffer — the flips are fully deterministic.
  ASSERT_TRUE(fi.CorruptBuffer("t/flip", buf.data(), buf.size()));
  EXPECT_EQ(buf, std::vector<uint8_t>(64, 0));
}

TEST(FaultInjectorTest, TruncateLimitsWrites) {
  FaultGuard guard;
  auto& fi = FaultInjector::Instance();
  FaultSpec trunc;
  trunc.kind = FaultSpec::Kind::kTruncate;
  trunc.arg = 10;
  fi.Arm("t/trunc", trunc);
  bool fail_after = false;
  EXPECT_EQ(fi.AllowedWriteBytes("t/trunc", 100, &fail_after), 10u);
  EXPECT_TRUE(fail_after);
}

// --- Image format ------------------------------------------------------------

TEST(ImageFormatTest, InspectReportsSections) {
  Fixture f;
  const std::vector<uint8_t> bytes = MustSave(f);
  auto info = InspectImage(bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 2);
  EXPECT_TRUE(info->image_checksum_ok);
  EXPECT_EQ(info->file_bytes, bytes.size());
  // 2 tables + manifest + 2 models.
  ASSERT_EQ(info->sections.size(), 5u);
  size_t tables = 0, manifests = 0, model_sections = 0;
  for (const ImageSection& s : info->sections) {
    EXPECT_TRUE(s.crc_ok) << s.name;
    EXPECT_GT(s.length, 0u);
    switch (s.kind) {
      case ImageSectionKind::kTable:
        ++tables;
        break;
      case ImageSectionKind::kModelCatalog:
        ++manifests;
        break;
      case ImageSectionKind::kModel:
        ++model_sections;
        EXPECT_EQ(s.name.rfind("model/", 0), 0u) << s.name;
        break;
    }
  }
  EXPECT_EQ(tables, 2u);
  EXPECT_EQ(manifests, 1u);
  EXPECT_EQ(model_sections, 2u);
}

TEST(ImageFormatTest, RejectsForeignMagic) {
  std::vector<uint8_t> junk = {'L', 'W', 'S', '1', 2, 0, 0, 0, 0};
  Catalog d;
  ModelCatalog m;
  const Status st = LoadDatabaseFromBytes(junk, &d, &m);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not a LawsDB"), std::string::npos);
  EXPECT_FALSE(InspectImage(junk).ok());
}

TEST(ImageFormatTest, RejectsOldVersionWithClearMessage) {
  Fixture f;
  std::vector<uint8_t> bytes = MustSave(f);
  bytes[4] = 1;  // the version byte follows the 4-byte magic
  Catalog d;
  ModelCatalog m;
  const Status st = LoadDatabaseFromBytes(bytes, &d, &m);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("version 1"), std::string::npos);
  // tolerate_corruption cannot rescue a header-level failure.
  LoadOptions tolerant;
  tolerant.tolerate_corruption = true;
  EXPECT_FALSE(LoadDatabaseFromBytes(bytes, &d, &m, tolerant).ok());
}

TEST(ImageFormatTest, TrailerFlipFailsStrictLoadOnly) {
  Fixture f;
  std::vector<uint8_t> bytes = MustSave(f);
  bytes.back() ^= 0x01;  // inside the whole-image checksum itself
  Catalog d;
  ModelCatalog m;
  const Status strict = LoadDatabaseFromBytes(bytes, &d, &m);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.code(), StatusCode::kIOError);

  LoadOptions tolerant;
  tolerant.tolerate_corruption = true;
  Catalog d2;
  ModelCatalog m2;
  LoadReport report;
  ASSERT_TRUE(LoadDatabaseFromBytes(bytes, &d2, &m2, tolerant, &report).ok());
  EXPECT_FALSE(report.image_checksum_ok);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.tables_loaded, 2u);
  EXPECT_EQ(report.models_loaded, 2u);
  EXPECT_NE(report.Summary().find("FAILED"), std::string::npos);
}

TEST(ImageFormatTest, StrictLoadNamesCorruptSectionAndOffset) {
  Fixture f;
  std::vector<uint8_t> bytes = MustSave(f);
  auto info = InspectImage(bytes);
  ASSERT_TRUE(info.ok());
  const ImageSection* target = nullptr;
  for (const ImageSection& s : info->sections) {
    if (s.name == "model/" + std::to_string(f.lin_model_id)) target = &s;
  }
  ASSERT_NE(target, nullptr);
  bytes[target->offset + target->length / 2] ^= 0x10;

  Catalog d;
  ModelCatalog m;
  const Status st = LoadDatabaseFromBytes(bytes, &d, &m);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find(target->name), std::string::npos);
  EXPECT_NE(st.message().find(std::to_string(target->offset)),
            std::string::npos);
}

// --- Graceful degradation ----------------------------------------------------

TEST(QuarantineTest, CorruptModelFallsBackToExactAnswers) {
  Fixture f;
  std::vector<uint8_t> bytes = MustSave(f);
  auto info = InspectImage(bytes);
  ASSERT_TRUE(info.ok());
  const std::string victim = "model/" + std::to_string(f.lin_model_id);
  for (const ImageSection& s : info->sections) {
    if (s.name == victim) bytes[s.offset + s.length / 2] ^= 0x40;
  }

  LoadOptions tolerant;
  tolerant.tolerate_corruption = true;
  Catalog d;
  ModelCatalog m;
  LoadReport report;
  ASSERT_TRUE(LoadDatabaseFromBytes(bytes, &d, &m, tolerant, &report).ok());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].name, victim);
  EXPECT_EQ(report.tables_loaded, 2u);
  EXPECT_EQ(report.models_loaded, 1u);  // the plaw model survives
  EXPECT_FALSE(m.Get(f.lin_model_id).ok());
  EXPECT_TRUE(m.Get(f.plaw_model_id).ok());

  // The quarantined model is a cache miss: the hybrid engine answers the
  // query exactly, and the answer matches a pristine exact engine.
  DomainRegistry domains;
  ModelQueryEngine engine(&d, &m, &domains);
  HybridQueryEngine hybrid(&d, &engine);
  auto degraded = hybrid.Execute("SELECT AVG(y) FROM lin");
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->method, "exact");
  EXPECT_FALSE(degraded->approximate);

  ModelCatalog no_models;
  ModelQueryEngine baseline_engine(&f.data, &no_models, &domains);
  HybridQueryEngine baseline(&f.data, &baseline_engine);
  auto expected = baseline.Execute("SELECT AVG(y) FROM lin");
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(degraded->table.num_rows(), expected->table.num_rows());
  EXPECT_EQ(degraded->table.GetValue(0, 0), expected->table.GetValue(0, 0));
}

TEST(QuarantineTest, CorruptTableIsDroppedOthersSurvive) {
  Fixture f;
  std::vector<uint8_t> bytes = MustSave(f);
  auto info = InspectImage(bytes);
  ASSERT_TRUE(info.ok());
  for (const ImageSection& s : info->sections) {
    if (s.kind == ImageSectionKind::kTable && s.name == "lin") {
      bytes[s.offset + 3] ^= 0x02;
    }
  }
  LoadOptions tolerant;
  tolerant.tolerate_corruption = true;
  Catalog d;
  ModelCatalog m;
  LoadReport report;
  ASSERT_TRUE(LoadDatabaseFromBytes(bytes, &d, &m, tolerant, &report).ok());
  EXPECT_EQ(report.tables_loaded, 1u);
  EXPECT_FALSE(d.Contains("lin"));
  EXPECT_TRUE(d.Contains("plaw"));
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].name, "lin");
}

TEST(QuarantineTest, CorruptManifestStillLoadsModels) {
  Fixture f;
  std::vector<uint8_t> bytes = MustSave(f);
  auto info = InspectImage(bytes);
  ASSERT_TRUE(info.ok());
  for (const ImageSection& s : info->sections) {
    if (s.kind == ImageSectionKind::kModelCatalog) {
      bytes[s.offset] ^= 0x80;
    }
  }
  LoadOptions tolerant;
  tolerant.tolerate_corruption = true;
  Catalog d;
  ModelCatalog m;
  LoadReport report;
  ASSERT_TRUE(LoadDatabaseFromBytes(bytes, &d, &m, tolerant, &report).ok());
  EXPECT_EQ(report.models_loaded, 2u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].name, "model_catalog");
}

// --- Models that contradict their law ----------------------------------------

const std::vector<double> kBands = {0.12, 0.15, 0.16, 0.18};

/// t(g, x, y): three power-law groups observed four times in each band.
TablePtr PowerLawGroups() {
  auto t = std::make_shared<Table>(
      Schema({Field{"g", DataType::kInt64, false},
              Field{"x", DataType::kDouble, false},
              Field{"y", DataType::kDouble, false}}));
  for (int g = 1; g <= 3; ++g) {
    for (double nu : kBands) {
      for (int rep = 0; rep < 4; ++rep) {
        EXPECT_TRUE(t->AppendRow({Value::Int64(g), Value::Double(nu),
                                  Value::Double((0.5 + 0.1 * g) *
                                                std::pow(nu, -0.7) *
                                                (1.0 + 0.001 * rep))})
                        .ok());
      }
    }
  }
  return t;
}

Table ParameterTable(std::vector<Field> fields,
                     const std::vector<std::vector<Value>>& rows) {
  Table pt{Schema(std::move(fields))};
  for (const std::vector<Value>& row : rows) {
    EXPECT_TRUE(pt.AppendRow(row).ok());
  }
  return pt;
}

/// One hand-built power-law model over t whose parameters contradict its
/// law, and a query the model path would answer from it.
struct MalformedModelCase {
  std::string what;
  CapturedModel model;
  std::string sql;
};

std::vector<MalformedModelCase> MalformedModelCases(uint64_t data_version) {
  const Field key{"g", DataType::kInt64, false};
  const Field p{"p", DataType::kDouble, false};
  const Field alpha{"alpha", DataType::kDouble, false};
  const Field rse{"residual_se", DataType::kDouble, false};
  const Field r2{"r_squared", DataType::kDouble, false};
  const Field n_obs{"n_obs", DataType::kInt64, false};
  const std::vector<Field> layout = {key, p, alpha, rse, r2, n_obs};
  // A well-formed row of that layout.
  const auto row = [](Value k, Value pv) {
    return std::vector<Value>{k,
                              pv,
                              Value::Double(-0.7),
                              Value::Double(0.01),
                              Value::Double(0.99),
                              Value::Int64(16)};
  };

  CapturedModel ungrouped;
  ungrouped.table_name = "t";
  ungrouped.input_columns = {"x"};
  ungrouped.output_column = "y";
  ungrouped.model_source = "power_law";
  ungrouped.fitted_data_version = data_version;
  ungrouped.quality.r_squared = 0.99;
  ungrouped.quality.adjusted_r_squared = 0.99;
  ungrouped.quality.residual_standard_error = 0.01;
  ungrouped.quality.n_observations = 48;
  CapturedModel grouped = ungrouped;
  grouped.group_column = "g";
  grouped.grouped = true;
  grouped.num_groups = 3;
  grouped.median_r_squared = 0.99;
  grouped.median_residual_se = 0.01;
  grouped.parameter_table =
      ParameterTable(layout, {row(Value::Int64(1), Value::Double(0.6)),
                              row(Value::Int64(2), Value::Double(0.7)),
                              row(Value::Int64(3), Value::Double(0.8))});
  const std::string grouped_sql = "SELECT AVG(y) FROM t WHERE g = 1";

  std::vector<MalformedModelCase> cases;
  const auto add = [&](std::string what, CapturedModel m, std::string sql) {
    cases.push_back(
        MalformedModelCase{std::move(what), std::move(m), std::move(sql)});
  };
  {
    CapturedModel m = grouped;
    m.parameter_table = ParameterTable(
        {key, p}, {{Value::Int64(1), Value::Double(0.6)},
                   {Value::Int64(2), Value::Double(0.7)}});
    add("grouped power_law with table [g, p]", std::move(m), grouped_sql);
  }
  {
    CapturedModel m = grouped;
    m.parameter_table = ParameterTable(
        {key, rse, n_obs},
        {{Value::Int64(1), Value::Double(0.01), Value::Int64(16)},
         {Value::Int64(2), Value::Double(0.01), Value::Int64(16)}});
    add("grouped power_law with table [g, residual_se, n_obs]", std::move(m),
        grouped_sql);
  }
  {
    CapturedModel m = ungrouped;
    m.parameters = {0.6};
    add("ungrouped power_law with one parameter", std::move(m),
        "SELECT AVG(y) FROM t WHERE x > 0");
  }
  {
    CapturedModel m = ungrouped;
    m.input_columns.clear();
    m.parameters = {0.6, -0.7};
    add("ungrouped power_law with no input column", std::move(m),
        "SELECT AVG(y) FROM t");
  }
  {
    CapturedModel m = grouped;
    std::vector<Field> fields = layout;
    fields[0].type = DataType::kDouble;
    m.parameter_table =
        ParameterTable(fields, {row(Value::Double(1.0), Value::Double(0.6)),
                                row(Value::Double(2.0), Value::Double(0.7))});
    add("grouped power_law with a DOUBLE key column", std::move(m),
        grouped_sql);
  }
  {
    CapturedModel m = grouped;
    std::vector<Field> fields = layout;
    fields[1].nullable = true;
    m.parameter_table =
        ParameterTable(fields, {row(Value::Int64(1), Value::Null()),
                                row(Value::Int64(2), Value::Double(0.7))});
    add("grouped power_law with a NULL parameter", std::move(m), grouped_sql);
  }
  {
    CapturedModel m = grouped;
    m.parameter_table =
        ParameterTable(layout, {row(Value::Int64(2), Value::Double(0.7)),
                                row(Value::Int64(1), Value::Double(0.6)),
                                row(Value::Int64(3), Value::Double(0.8))});
    add("grouped power_law with unsorted keys", std::move(m), grouped_sql);
  }
  {
    CapturedModel m = grouped;
    m.model_source = "warp_drive";
    add("grouped model with an unknown model_source", std::move(m),
        grouped_sql);
  }
  return cases;
}

// Each model is saved with valid checksums, so only the check against its
// law can refuse it: a strict load fails naming its section, and a
// tolerant load quarantines it and the hybrid engine answers exactly.
TEST(MalformedModelTest, LoaderRefusesModelsThatContradictTheirLaw) {
  const TablePtr table = PowerLawGroups();
  Catalog data;
  data.RegisterOrReplace("t", table);
  for (MalformedModelCase& c : MalformedModelCases(table->data_version())) {
    SCOPED_TRACE(c.what);
    ModelCatalog models;
    const std::string section =
        "model/" + std::to_string(models.Store(std::move(c.model)));
    auto bytes = SaveDatabaseToBytes(data, models);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

    Catalog strict_data;
    ModelCatalog strict_models;
    const Status strict =
        LoadDatabaseFromBytes(*bytes, &strict_data, &strict_models);
    ASSERT_FALSE(strict.ok());
    EXPECT_NE(strict.message().find(section), std::string::npos)
        << strict.ToString();
    EXPECT_EQ(strict_models.size(), 0u);

    LoadOptions tolerant;
    tolerant.tolerate_corruption = true;
    Catalog d;
    ModelCatalog m;
    LoadReport report;
    ASSERT_TRUE(LoadDatabaseFromBytes(*bytes, &d, &m, tolerant, &report).ok());
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].name, section);
    EXPECT_EQ(report.tables_loaded, 1u);
    EXPECT_EQ(report.models_loaded, 0u);

    DomainRegistry domains;
    domains.Register("t", "x", ColumnDomain::Explicit(kBands));
    ModelQueryEngine engine(&d, &m, &domains);
    HybridQueryEngine hybrid(&d, &engine);
    auto answer = hybrid.Execute(c.sql);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->method, "exact");
    EXPECT_FALSE(answer->approximate);
    auto expected = ExecuteQuery(data, c.sql);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(answer->table.num_rows(), 1u);
    EXPECT_EQ(answer->table.GetValue(0, 0), expected->GetValue(0, 0));
  }
}

// --- Atomic save / fault matrix ----------------------------------------------

TEST(AtomicSaveTest, EverySavePathFaultLeavesPreviousImageIntact) {
  FaultGuard guard;
  Fixture f;
  const std::string path = "/tmp/lawsdb_robustness_atomic.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(SaveDatabase(f.data, f.models, path).ok());
  const std::vector<uint8_t> original = ReadFileBytes(path);

  // Grow the database so a successful re-save would change the file.
  auto table = *f.data.Get("lin");
  ASSERT_TRUE(table->AppendRow({Value::Double(5.0), Value::Double(13.0)}).ok());

  const char* kSites[] = {
      "persist/serialize_image", "persist/serialize_table",
      "persist/write_models",    "persist/open_tmp",
      "persist/write_image",     "persist/fsync_tmp",
      "persist/rename",
  };
  auto& fi = FaultInjector::Instance();
  for (const char* site : kSites) {
    fi.DisarmAll();
    fi.Arm(site, FaultSpec{});
    const Status st = SaveDatabase(f.data, f.models, path);
    ASSERT_FALSE(st.ok()) << site;
    // The old image is untouched: byte-identical and loadable.
    EXPECT_EQ(ReadFileBytes(path), original) << site;
    // No tmp litter.
    EXPECT_FALSE(FileExists(path + ".tmp." + std::to_string(::getpid())))
        << site;
    Catalog d;
    ModelCatalog m;
    ASSERT_TRUE(LoadDatabase(path, &d, &m).ok()) << site;
    EXPECT_EQ(m.size(), 2u) << site;
  }

  // Disarmed, the save goes through and the new image differs.
  fi.DisarmAll();
  ASSERT_TRUE(SaveDatabase(f.data, f.models, path).ok());
  EXPECT_NE(ReadFileBytes(path), original);
  std::remove(path.c_str());
}

TEST(AtomicSaveTest, TornWriteLeavesPreviousImageIntact) {
  FaultGuard guard;
  Fixture f;
  const std::string path = "/tmp/lawsdb_robustness_torn.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(SaveDatabase(f.data, f.models, path).ok());
  const std::vector<uint8_t> original = ReadFileBytes(path);

  FaultSpec trunc;
  trunc.kind = FaultSpec::Kind::kTruncate;
  trunc.arg = 100;  // the write is cut off after 100 bytes
  FaultInjector::Instance().Arm("persist/write_image", trunc);
  ASSERT_FALSE(SaveDatabase(f.data, f.models, path).ok());
  EXPECT_EQ(ReadFileBytes(path), original);
  std::remove(path.c_str());
}

TEST(AtomicSaveTest, BitRotDuringWriteIsCaughtAtLoad) {
  FaultGuard guard;
  Fixture f;
  const std::string path = "/tmp/lawsdb_robustness_bitrot.bin";
  std::remove(path.c_str());

  FaultSpec flip;
  flip.kind = FaultSpec::Kind::kBitFlip;
  flip.arg = 3;
  flip.seed = 7;
  FaultInjector::Instance().Arm("persist/write_image", flip);
  // The save itself "succeeds" — the corruption happened between memory
  // and disk, which is exactly what the checksums exist to catch.
  ASSERT_TRUE(SaveDatabase(f.data, f.models, path).ok());
  FaultInjector::Instance().DisarmAll();

  Catalog d;
  ModelCatalog m;
  EXPECT_FALSE(LoadDatabase(path, &d, &m).ok());
  std::remove(path.c_str());
}

TEST(AtomicSaveTest, ReadFaultSurfacesAsIOError) {
  FaultGuard guard;
  Fixture f;
  const std::string path = "/tmp/lawsdb_robustness_readfault.bin";
  ASSERT_TRUE(SaveDatabase(f.data, f.models, path).ok());
  FaultInjector::Instance().Arm("persist/read_image", FaultSpec{});
  Catalog d;
  ModelCatalog m;
  const Status st = LoadDatabase(path, &d, &m);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

// --- Corruption-fuzz sweep ---------------------------------------------------

/// Applies one seeded mutation (bit flips, truncation, or a random splice)
/// to a copy of `bytes`.
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& bytes, uint64_t seed) {
  Rng rng(seed * 2654435761u + 1);
  std::vector<uint8_t> out = bytes;
  switch (seed % 3) {
    case 0: {  // 1..8 bit flips anywhere
      const uint64_t flips = 1 + rng.NextU64() % 8;
      for (uint64_t i = 0; i < flips; ++i) {
        const uint64_t bit = rng.NextU64() % (out.size() * 8);
        out[bit >> 3] ^= static_cast<uint8_t>(1u << (bit & 7));
      }
      break;
    }
    case 1: {  // truncate to a random prefix
      out.resize(rng.NextU64() % out.size());
      break;
    }
    case 2: {  // splice a run of random bytes
      const size_t pos = rng.NextU64() % out.size();
      const size_t len =
          std::min<size_t>(1 + rng.NextU64() % 64, out.size() - pos);
      for (size_t i = 0; i < len; ++i) {
        out[pos + i] = static_cast<uint8_t>(rng.NextU64());
      }
      break;
    }
  }
  return out;
}

TEST(CorruptionSweepTest, MutatedImagesNeverCrashAndNeverLie) {
  Fixture f;
  const std::vector<uint8_t> bytes = MustSave(f);

  // The equality oracle: a clean load re-serializes to these bytes.
  Catalog base_data;
  ModelCatalog base_models;
  ASSERT_TRUE(LoadDatabaseFromBytes(bytes, &base_data, &base_models).ok());
  auto base_roundtrip = SaveDatabaseToBytes(base_data, base_models);
  ASSERT_TRUE(base_roundtrip.ok());

  LoadOptions tolerant;
  tolerant.tolerate_corruption = true;
  int strict_ok = 0;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    const std::vector<uint8_t> mutated = Mutate(bytes, seed);

    Catalog d;
    ModelCatalog m;
    const Status strict = LoadDatabaseFromBytes(mutated, &d, &m);
    if (strict.ok()) {
      // Accepting a mutation is only legal when the result is
      // bit-identical to the pristine database.
      ++strict_ok;
      auto roundtrip = SaveDatabaseToBytes(d, m);
      ASSERT_TRUE(roundtrip.ok()) << "seed " << seed;
      ASSERT_EQ(*roundtrip, *base_roundtrip) << "seed " << seed;
    }

    // Tolerant mode must also never crash; its Status is allowed to be
    // either (header damage fails, section damage degrades).
    Catalog d2;
    ModelCatalog m2;
    LoadReport report;
    (void)LoadDatabaseFromBytes(mutated, &d2, &m2, tolerant, &report);
  }
  // The checksums should reject essentially every real mutation; allow a
  // tiny number of identity mutations (e.g. a byte spliced to its own
  // value).
  EXPECT_LE(strict_ok, 20);
}

TEST(CorruptionSweepTest, MutatedRawTablesNeverCrash) {
  Fixture f;
  auto table = *f.data.Get("plaw");
  const std::vector<uint8_t> bytes = SerializeTableToBytes(*table);
  // The raw LWS1 stream has no checksums, so this leans entirely on the
  // parser hardening: any outcome is fine except a crash or OOM.
  for (uint64_t seed = 0; seed < 600; ++seed) {
    const std::vector<uint8_t> mutated = Mutate(bytes, seed);
    (void)DeserializeTableFromBytes(mutated);
  }
}

// Every model the loader accepts is safe to serve from: each reader of
// its parameters returns an answer or a typed error, never a crash.
TEST(CorruptionSweepTest, MutatedRawModelsNeverCrash) {
  Fixture f;
  const ColumnDomain x_domain = ColumnDomain::Explicit({0.1, 0.15, 0.2});
  DomainRegistry domains;
  domains.Register("lin", "x", x_domain);
  domains.Register("plaw", "x", x_domain);
  const ModelQueryEngine engine(&f.data, &f.models, &domains);
  size_t accepted = 0;
  for (const uint64_t id : {f.lin_model_id, f.plaw_model_id}) {
    const CapturedModel* model = *f.models.Get(id);
    const TablePtr table = *f.data.Get(model->table_name);
    ByteWriter w;
    SerializeCapturedModel(*model, &w);
    const std::vector<uint8_t> bytes = w.data();
    for (uint64_t seed = 0; seed < 600; ++seed) {
      const std::vector<uint8_t> mutated = Mutate(bytes, seed);
      ByteReader r(mutated);
      auto m = DeserializeCapturedModel(&r);
      if (!m.ok()) continue;
      ++accepted;
      (void)engine.ReconstructTable(*m, {});
      (void)InversePredict(*m, x_domain, 0.0, 10.0);
      (void)FindHighGradientRegions(*m, x_domain, 5);
      (void)DiagnoseModel(*table, *m, /*group_key=*/1);
      if (m->grouped) {
        (void)ScoreGroups(*m);
        (void)DetectOutlierTuples(*table, *m, 3.0);
      }
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace laws
