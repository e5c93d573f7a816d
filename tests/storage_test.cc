#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/csv.h"
#include "storage/schema.h"
#include "storage/serialize.h"
#include "storage/table.h"
#include "storage/types.h"

namespace laws {
namespace {

Schema TestSchema() {
  return Schema({Field{"id", DataType::kInt64, false},
                 Field{"value", DataType::kDouble, true},
                 Field{"tag", DataType::kString, true},
                 Field{"flag", DataType::kBool, true}});
}

Table MakeTestTable(size_t rows, uint64_t seed = 1) {
  Rng rng(seed);
  Table t(TestSchema());
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.push_back(Value::Int64(static_cast<int64_t>(i)));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Double(rng.Normal()));
    row.push_back(Value::String(rng.Bernoulli(0.5) ? "red" : "blue"));
    row.push_back(Value::Bool(rng.Bernoulli(0.3)));
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

// --- Value / types ------------------------------------------------------

TEST(ValueTest, NullAndTypes) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Int64(3).is_int64());
  EXPECT_TRUE(Value::Double(3.5).is_double());
  EXPECT_TRUE(Value::String("x").is_string());
  EXPECT_TRUE(Value::Bool(true).is_bool());
  EXPECT_EQ(Value::Int64(3).int64(), 3);
  EXPECT_EQ(Value::String("x").str(), "x");
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_DOUBLE_EQ(*Value::Int64(7).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(*Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(*Value::Bool(true).AsDouble(), 1.0);
  EXPECT_FALSE(Value::Null().AsDouble().ok());
  EXPECT_FALSE(Value::String("7").AsDouble().ok());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Double(1.5).ToString(), "1.5");
}

TEST(TypesTest, DataTypeRoundTrip) {
  for (DataType t : {DataType::kInt64, DataType::kDouble, DataType::kString,
                     DataType::kBool}) {
    auto parsed = DataTypeFromString(DataTypeToString(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_EQ(*DataTypeFromString("BIGINT"), DataType::kInt64);
  EXPECT_EQ(*DataTypeFromString("real"), DataType::kDouble);
  EXPECT_EQ(*DataTypeFromString("VarChar"), DataType::kString);
  EXPECT_FALSE(DataTypeFromString("blob").ok());
}

// --- Schema -------------------------------------------------------------

TEST(SchemaTest, FieldLookupCaseInsensitive) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.FieldIndex("ID"), 0u);
  EXPECT_EQ(*s.FieldIndex("Value"), 1u);
  EXPECT_FALSE(s.FieldIndex("missing").ok());
  EXPECT_TRUE(s.HasField("tag"));
  EXPECT_FALSE(s.HasField("nope"));
}

TEST(SchemaTest, ToStringListsFields) {
  const std::string repr = TestSchema().ToString();
  EXPECT_NE(repr.find("id INT64 NOT NULL"), std::string::npos);
  EXPECT_NE(repr.find("value DOUBLE"), std::string::npos);
}

// --- Column ---------------------------------------------------------------

TEST(ColumnTest, Int64AppendAndRead) {
  Column c(DataType::kInt64);
  c.AppendInt64(1);
  c.AppendInt64(-99);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Int64At(1), -99);
  EXPECT_FALSE(c.IsNull(0));
}

TEST(ColumnTest, NullTracking) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.0);
  EXPECT_TRUE(c.AppendNull().ok());
  c.AppendDouble(3.0);
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnTest, NonNullableRejectsNull) {
  Column c(DataType::kInt64, /*nullable=*/false);
  EXPECT_FALSE(c.AppendNull().ok());
}

TEST(ColumnTest, StringDictionaryDeduplicates) {
  Column c(DataType::kString);
  for (int i = 0; i < 100; ++i) c.AppendString(i % 2 == 0 ? "a" : "b");
  EXPECT_EQ(c.dictionary().size(), 2u);
  EXPECT_EQ(c.StringAt(0), "a");
  EXPECT_EQ(c.StringAt(1), "b");
  EXPECT_EQ(*c.DictionaryCode("a"), 0u);
  EXPECT_EQ(*c.DictionaryCode("b"), 1u);
  EXPECT_FALSE(c.DictionaryCode("c").ok());
}

TEST(ColumnTest, AppendValueTypeChecking) {
  Column c(DataType::kInt64);
  EXPECT_TRUE(c.AppendValue(Value::Int64(1)).ok());
  EXPECT_FALSE(c.AppendValue(Value::Double(1.0)).ok());
  EXPECT_FALSE(c.AppendValue(Value::String("x")).ok());
  // Double columns accept int values (widening).
  Column d(DataType::kDouble);
  EXPECT_TRUE(d.AppendValue(Value::Int64(2)).ok());
  EXPECT_DOUBLE_EQ(d.DoubleAt(0), 2.0);
}

TEST(ColumnTest, ToDoubleVectorSkipsNulls) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.0);
  ASSERT_TRUE(c.AppendNull().ok());
  c.AppendDouble(3.0);
  auto v = c.ToDoubleVector();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (std::vector<double>{1.0, 3.0}));
  Column s(DataType::kString);
  s.AppendString("x");
  EXPECT_FALSE(s.ToDoubleVector().ok());
}

TEST(ColumnTest, GatherPreservesValuesAndNulls) {
  Column c(DataType::kInt64);
  for (int i = 0; i < 10; ++i) {
    if (i == 5) {
      ASSERT_TRUE(c.AppendNull().ok());
    } else {
      c.AppendInt64(i);
    }
  }
  Result<Column> gathered = c.Gather({9, 5, 0});
  ASSERT_TRUE(gathered.ok());
  const Column& g = *gathered;
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.Int64At(0), 9);
  EXPECT_TRUE(g.IsNull(1));
  EXPECT_EQ(g.Int64At(2), 0);
}

TEST(ColumnTest, MemoryBytesScalesWithData) {
  Column c(DataType::kDouble);
  const size_t empty = c.MemoryBytes();
  for (int i = 0; i < 1000; ++i) c.AppendDouble(i);
  EXPECT_GE(c.MemoryBytes(), empty + 1000 * sizeof(double));
}

TEST(ColumnTest, NumericAtCoercions) {
  Column b(DataType::kBool);
  b.AppendBool(true);
  EXPECT_DOUBLE_EQ(*b.NumericAt(0), 1.0);
  Column s(DataType::kString);
  s.AppendString("x");
  EXPECT_FALSE(s.NumericAt(0).ok());
}

TEST(ColumnTest, GatherNumericAllTypes) {
  Column i64(DataType::kInt64);
  Column dbl(DataType::kDouble);
  Column bl(DataType::kBool);
  for (int i = 0; i < 6; ++i) {
    i64.AppendInt64(i * 10);
    dbl.AppendDouble(i * 0.5);
    bl.AppendBool(i % 2 == 0);
  }
  const std::vector<uint32_t> rows = {5, 0, 3};
  double out[3];
  ASSERT_TRUE(i64.GatherNumeric(rows.data(), rows.size(), out).ok());
  EXPECT_DOUBLE_EQ(out[0], 50.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 30.0);
  ASSERT_TRUE(dbl.GatherNumeric(rows.data(), rows.size(), out).ok());
  EXPECT_DOUBLE_EQ(out[0], 2.5);
  EXPECT_DOUBLE_EQ(out[2], 1.5);
  ASSERT_TRUE(bl.GatherNumeric(rows.data(), rows.size(), out).ok());
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);

  Column s(DataType::kString);
  s.AppendString("a");
  const uint32_t zero = 0;
  EXPECT_FALSE(s.GatherNumeric(&zero, 1, out).ok());
}

TEST(ColumnTest, GatherNumericTransformedFusesLog) {
  Column dbl(DataType::kDouble);
  Column i64(DataType::kInt64);
  for (int i = 1; i <= 6; ++i) {
    dbl.AppendDouble(i * 0.5);
    i64.AppendInt64(i * 10);
  }
  const std::vector<uint32_t> rows = {4, 0, 2};
  double out[3];
  ASSERT_TRUE(dbl.GatherNumericTransformed(rows.data(), rows.size(), out,
                                           NumericTransform::kLog)
                  .ok());
  EXPECT_DOUBLE_EQ(out[0], std::log(2.5));
  EXPECT_DOUBLE_EQ(out[1], std::log(0.5));
  EXPECT_DOUBLE_EQ(out[2], std::log(1.5));
  ASSERT_TRUE(i64.GatherNumericTransformed(rows.data(), rows.size(), out,
                                           NumericTransform::kLog)
                  .ok());
  EXPECT_DOUBLE_EQ(out[0], std::log(50.0));
  EXPECT_DOUBLE_EQ(out[1], std::log(10.0));
  EXPECT_DOUBLE_EQ(out[2], std::log(30.0));
  // Identity delegates to the plain gather.
  ASSERT_TRUE(dbl.GatherNumericTransformed(rows.data(), rows.size(), out,
                                           NumericTransform::kIdentity)
                  .ok());
  EXPECT_DOUBLE_EQ(out[0], 2.5);
  Column s(DataType::kString);
  s.AppendString("a");
  const uint32_t zero = 0;
  EXPECT_FALSE(s.GatherNumericTransformed(&zero, 1, out,
                                          NumericTransform::kLog)
                   .ok());
}

TEST(ColumnTest, GatherNumericTransformedOutOfDomainSentinels) {
  // Out-of-domain values must land as -inf/NaN (the caller's domain
  // check), not trap or silently clamp.
  Column dbl(DataType::kDouble);
  dbl.AppendDouble(0.0);
  dbl.AppendDouble(-2.0);
  dbl.AppendDouble(4.0);
  const std::vector<uint32_t> rows = {0, 1, 2};
  double out[3];
  ASSERT_TRUE(dbl.GatherNumericTransformed(rows.data(), rows.size(), out,
                                           NumericTransform::kLog)
                  .ok());
  EXPECT_TRUE(std::isinf(out[0]) && out[0] < 0.0);
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_DOUBLE_EQ(out[2], std::log(4.0));
  // Bool: true -> log(1) = 0, false -> -inf.
  Column bl(DataType::kBool);
  bl.AppendBool(true);
  bl.AppendBool(false);
  const std::vector<uint32_t> brows = {0, 1};
  ASSERT_TRUE(bl.GatherNumericTransformed(brows.data(), brows.size(), out,
                                          NumericTransform::kLog)
                  .ok());
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_TRUE(std::isinf(out[1]) && out[1] < 0.0);
}

TEST(ColumnTest, GatherNumericMatchesNumericAt) {
  Column c(DataType::kDouble);
  for (int i = 0; i < 100; ++i) c.AppendDouble(std::sin(i));
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < 100; i += 3) rows.push_back(i);
  std::vector<double> out(rows.size());
  ASSERT_TRUE(c.GatherNumeric(rows.data(), rows.size(), out.data()).ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i], *c.NumericAt(rows[i]));
  }
}

TEST(ColumnTest, GatherNumericMaskedFlagsNulls) {
  Column c(DataType::kDouble, /*nullable=*/true);
  c.AppendDouble(1.5);
  ASSERT_TRUE(c.AppendNull().ok());
  c.AppendDouble(2.5);
  ASSERT_TRUE(c.AppendNull().ok());
  const std::vector<uint32_t> rows = {0, 1, 2, 3};
  std::vector<double> out(4);
  std::vector<uint8_t> mask(4, 9);
  auto non_null =
      c.GatherNumericMasked(rows.data(), rows.size(), out.data(), mask.data());
  ASSERT_TRUE(non_null.ok());
  EXPECT_EQ(*non_null, 2u);
  EXPECT_DOUBLE_EQ(out[0], 1.5);
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_DOUBLE_EQ(out[2], 2.5);
  EXPECT_TRUE(std::isnan(out[3]));
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 1);
  EXPECT_EQ(mask[2], 0);
  EXPECT_EQ(mask[3], 1);

  // Mask is optional; non-nullable columns report everything valid.
  Column nn(DataType::kInt64, /*nullable=*/false);
  nn.AppendInt64(7);
  const uint32_t zero = 0;
  double v = 0;
  auto all = nn.GatherNumericMasked(&zero, 1, &v, nullptr);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 1u);
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(ColumnTest, FromVectorBulkConstruction) {
  Column i64 = Column::FromInt64Vector({3, 1, 4, 1, 5});
  EXPECT_EQ(i64.size(), 5u);
  EXPECT_EQ(i64.type(), DataType::kInt64);
  EXPECT_FALSE(i64.nullable());
  EXPECT_EQ(i64.null_count(), 0u);
  EXPECT_EQ(i64.Int64At(2), 4);

  Column dbl = Column::FromDoubleVector({0.5, -1.25});
  EXPECT_EQ(dbl.size(), 2u);
  EXPECT_EQ(dbl.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(dbl.DoubleAt(1), -1.25);
  EXPECT_FALSE(dbl.IsNull(0));
}

// --- Table -----------------------------------------------------------------

TEST(TableTest, AppendRowAndRead) {
  Table t = MakeTestTable(10);
  EXPECT_EQ(t.num_rows(), 10u);
  EXPECT_EQ(t.num_columns(), 4u);
  EXPECT_EQ(t.GetValue(3, 0).int64(), 3);
}

TEST(TableTest, AppendRowArityMismatch) {
  Table t(TestSchema());
  EXPECT_FALSE(t.AppendRow({Value::Int64(1)}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, AppendRowTypeMismatchLeavesTableUnchanged) {
  Table t(TestSchema());
  const auto status = t.AppendRow({Value::String("oops"), Value::Double(1.0),
                                   Value::String("t"), Value::Bool(false)});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(t.num_rows(), 0u);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(t.column(c).size(), 0u);
  }
}

TEST(TableTest, NonNullableEnforced) {
  Table t(TestSchema());
  EXPECT_FALSE(t.AppendRow({Value::Null(), Value::Double(1.0),
                            Value::String("t"), Value::Bool(false)})
                   .ok());
}

TEST(TableTest, DataVersionBumpsOnMutation) {
  Table t = MakeTestTable(1);
  const uint64_t v = t.data_version();
  ASSERT_TRUE(t.AppendRow({Value::Int64(99), Value::Double(1.0),
                           Value::String("t"), Value::Bool(true)})
                  .ok());
  EXPECT_GT(t.data_version(), v);
}

TEST(TableTest, ColumnByName) {
  Table t = MakeTestTable(3);
  ASSERT_TRUE(t.ColumnByName("VALUE").ok());
  EXPECT_FALSE(t.ColumnByName("ghost").ok());
}

TEST(TableTest, GatherRowsReordersAndSubsets) {
  Table t = MakeTestTable(10);
  Result<Table> gathered = t.GatherRows({7, 2, 2});
  ASSERT_TRUE(gathered.ok());
  const Table& g = *gathered;
  EXPECT_EQ(g.num_rows(), 3u);
  EXPECT_EQ(g.GetValue(0, 0).int64(), 7);
  EXPECT_EQ(g.GetValue(1, 0).int64(), 2);
  EXPECT_EQ(g.GetValue(2, 0).int64(), 2);
}

TEST(TableTest, FromColumnsValidation) {
  Schema s({Field{"a", DataType::kInt64, false}});
  Column good(DataType::kInt64, false);
  good.AppendInt64(1);
  auto t = Table::FromColumns(s, {good});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
  // Type mismatch.
  Column bad(DataType::kDouble);
  EXPECT_FALSE(Table::FromColumns(s, {bad}).ok());
  // Ragged columns.
  Schema s2({Field{"a", DataType::kInt64, false},
             Field{"b", DataType::kInt64, false}});
  Column shorter(DataType::kInt64, false);
  EXPECT_FALSE(Table::FromColumns(s2, {good, shorter}).ok());
}

TEST(TableTest, SyncRowCountAfterBulkLoad) {
  Table t(Schema({Field{"a", DataType::kInt64, false},
                  Field{"b", DataType::kDouble, false}}));
  for (int i = 0; i < 5; ++i) {
    t.mutable_column(0)->AppendInt64(i);
    t.mutable_column(1)->AppendDouble(i * 2.0);
  }
  ASSERT_TRUE(t.SyncRowCount().ok());
  EXPECT_EQ(t.num_rows(), 5u);
  // Ragged bulk load is rejected.
  t.mutable_column(0)->AppendInt64(9);
  EXPECT_FALSE(t.SyncRowCount().ok());
}

TEST(TableTest, ToStringTruncates) {
  Table t = MakeTestTable(30);
  const std::string repr = t.ToString(5);
  EXPECT_NE(repr.find("[25 more rows]"), std::string::npos);
}

// --- Catalog ----------------------------------------------------------------

TEST(CatalogTest, RegisterGetDrop) {
  Catalog cat;
  auto t = std::make_shared<Table>(MakeTestTable(3));
  ASSERT_TRUE(cat.Register("obs", t).ok());
  EXPECT_TRUE(cat.Contains("OBS"));  // case-insensitive
  auto got = cat.Get("Obs");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->num_rows(), 3u);
  EXPECT_FALSE(cat.Register("OBS", t).ok());  // duplicate
  EXPECT_TRUE(cat.Drop("obs").ok());
  EXPECT_FALSE(cat.Get("obs").ok());
  EXPECT_FALSE(cat.Drop("obs").ok());
}

TEST(CatalogTest, RegisterOrReplace) {
  Catalog cat;
  cat.RegisterOrReplace("t", std::make_shared<Table>(MakeTestTable(1)));
  cat.RegisterOrReplace("t", std::make_shared<Table>(MakeTestTable(2)));
  EXPECT_EQ((*cat.Get("t"))->num_rows(), 2u);
  EXPECT_EQ(cat.size(), 1u);
}

TEST(CatalogTest, ListTablesSorted) {
  Catalog cat;
  cat.RegisterOrReplace("zeta", std::make_shared<Table>(MakeTestTable(1)));
  cat.RegisterOrReplace("alpha", std::make_shared<Table>(MakeTestTable(1)));
  const auto names = cat.ListTables();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(CatalogTest, NullTableRejected) {
  Catalog cat;
  EXPECT_FALSE(cat.Register("t", nullptr).ok());
}

// --- CSV ------------------------------------------------------------------

TEST(CsvTest, RoundTrip) {
  Table t = MakeTestTable(25);
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out).ok());
  auto parsed = ReadCsvString(out.str(), t.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(parsed->GetValue(r, 0), t.GetValue(r, 0));
    EXPECT_EQ(parsed->GetValue(r, 2), t.GetValue(r, 2));
    EXPECT_EQ(parsed->GetValue(r, 3), t.GetValue(r, 3));
    if (t.GetValue(r, 1).is_null()) {
      EXPECT_TRUE(parsed->GetValue(r, 1).is_null());
    } else {
      EXPECT_NEAR(parsed->GetValue(r, 1).dbl(), t.GetValue(r, 1).dbl(),
                  1e-9);
    }
  }
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndQuotes) {
  Schema s({Field{"name", DataType::kString, false},
            Field{"n", DataType::kInt64, false}});
  const std::string csv = "name,n\n\"a,b\",1\n\"say \"\"hi\"\"\",2\n";
  auto t = ReadCsvString(csv, s);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->GetValue(0, 0).str(), "a,b");
  EXPECT_EQ(t->GetValue(1, 0).str(), "say \"hi\"");
}

TEST(CsvTest, HeaderMismatchFails) {
  Schema s({Field{"a", DataType::kInt64, false}});
  EXPECT_FALSE(ReadCsvString("b\n1\n", s).ok());
}

TEST(CsvTest, BadValuesCarryLineNumbers) {
  Schema s({Field{"a", DataType::kInt64, false}});
  auto r = ReadCsvString("a\nnot_a_number\n", s);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(CsvTest, ArityMismatchFails) {
  Schema s({Field{"a", DataType::kInt64, false},
            Field{"b", DataType::kInt64, false}});
  EXPECT_FALSE(ReadCsvString("a,b\n1\n", s).ok());
}

TEST(CsvTest, NullTokenHandling) {
  Schema s({Field{"a", DataType::kDouble, true}});
  auto t = ReadCsvString("a\n\n1.5\n", s);  // empty line skipped
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
  CsvOptions opts;
  opts.null_token = "NA";
  auto t2 = ReadCsvString("a\nNA\n2.5\n", s, opts);
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(t2->GetValue(0, 0).is_null());
  EXPECT_DOUBLE_EQ(t2->GetValue(1, 0).dbl(), 2.5);
}

TEST(CsvTest, FileRoundTripAndSchemaSpec) {
  Table t = MakeTestTable(40);
  const std::string path = "/tmp/lawsdb_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(path, t.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 40u);
  EXPECT_FALSE(ReadCsvFile("/tmp/nope_no_such.csv", t.schema()).ok());

  auto schema = ParseSchemaSpec("id:bigint, value?:double, tag?:varchar");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(schema->num_fields(), 3u);
  EXPECT_EQ(schema->field(0).type, DataType::kInt64);
  EXPECT_FALSE(schema->field(0).nullable);
  EXPECT_TRUE(schema->field(1).nullable);
  EXPECT_EQ(schema->field(2).type, DataType::kString);
  EXPECT_FALSE(ParseSchemaSpec("").ok());
  EXPECT_FALSE(ParseSchemaSpec("a:blob").ok());
  EXPECT_FALSE(ParseSchemaSpec("justaname").ok());
}

// --- Serialization -----------------------------------------------------------

class SerializeRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(SerializeRoundTrip, BitExact) {
  Table t = MakeTestTable(GetParam(), /*seed=*/GetParam() + 7);
  const auto bytes = SerializeTableToBytes(t);
  auto back = DeserializeTableFromBytes(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  ASSERT_EQ(back->schema().num_fields(), t.schema().num_fields());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(back->GetValue(r, c), t.GetValue(r, c))
          << "row " << r << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerializeRoundTrip,
                         ::testing::Values(0, 1, 7, 8, 9, 63, 64, 65, 1000));

TEST(SerializeTest, RejectsGarbage) {
  std::vector<uint8_t> garbage = {'X', 'X', 'X', 'X', 0, 0};
  EXPECT_FALSE(DeserializeTableFromBytes(garbage).ok());
}

TEST(SerializeTest, RejectsTruncated) {
  Table t = MakeTestTable(100);
  auto bytes = SerializeTableToBytes(t);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeTableFromBytes(bytes).ok());
}

// --- Typed gather on lanes ---------------------------------------------------

/// The reference Column::Gather: per-row appends.
Column AppendGather(const Column& src, const std::vector<uint32_t>& rows) {
  Column out(src.type(), src.nullable());
  for (const uint32_t r : rows) {
    if (src.IsNull(r)) {
      EXPECT_TRUE(out.AppendNull().ok());
      continue;
    }
    switch (src.type()) {
      case DataType::kInt64:
        out.AppendInt64(src.Int64At(r));
        break;
      case DataType::kDouble:
        out.AppendDouble(src.DoubleAt(r));
        break;
      case DataType::kString:
        out.AppendString(src.StringAt(r));
        break;
      case DataType::kBool:
        out.AppendBool(src.BoolAt(r));
        break;
    }
  }
  return out;
}

/// Byte-for-byte equality: type, nullability, NULL count, validity bytes
/// (padding included), backing vectors (doubles by bits) and dictionary.
void ExpectSameColumn(const Column& got, const Column& want,
                      const std::string& what) {
  ASSERT_EQ(got.type(), want.type()) << what;
  EXPECT_EQ(got.nullable(), want.nullable()) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got.null_count(), want.null_count()) << what;
  EXPECT_EQ(got.validity(), want.validity()) << what;
  EXPECT_EQ(got.int64_data(), want.int64_data()) << what;
  ASSERT_EQ(got.double_data().size(), want.double_data().size()) << what;
  if (!got.double_data().empty()) {
    EXPECT_EQ(0, std::memcmp(got.double_data().data(),
                             want.double_data().data(),
                             got.double_data().size() * sizeof(double)))
        << what;
  }
  EXPECT_EQ(got.bool_data(), want.bool_data()) << what;
  EXPECT_EQ(got.string_codes(), want.string_codes()) << what;
  EXPECT_EQ(got.dictionary(), want.dictionary()) << what;
}

/// 300,000 rows of each type, nullable (every 5th row NULL) and not; the
/// doubles include NaN and -0.0.
Table GatherSource() {
  constexpr size_t kRows = 300000;
  std::vector<Field> fields;
  std::vector<Column> cols;
  for (const bool nullable : {false, true}) {
    const std::string suffix = nullable ? "_n" : "";
    Column i64(DataType::kInt64, nullable);
    Column f64(DataType::kDouble, nullable);
    Column b8(DataType::kBool, nullable);
    Column str(DataType::kString, nullable);
    for (size_t i = 0; i < kRows; ++i) {
      if (nullable && i % 5 == 2) {
        EXPECT_TRUE(i64.AppendNull().ok());
        EXPECT_TRUE(f64.AppendNull().ok());
        EXPECT_TRUE(b8.AppendNull().ok());
        EXPECT_TRUE(str.AppendNull().ok());
        continue;
      }
      i64.AppendInt64(static_cast<int64_t>(i * 2654435761u) - 7);
      f64.AppendDouble(i % 97 == 0   ? std::nan("")
                       : i % 89 == 0 ? -0.0
                                     : static_cast<double>(i) / 3.0);
      b8.AppendBool(i % 3 == 0);
      str.AppendString("s" + std::to_string(i % 41));
    }
    fields.push_back(Field{"i" + suffix, DataType::kInt64, nullable});
    fields.push_back(Field{"d" + suffix, DataType::kDouble, nullable});
    fields.push_back(Field{"b" + suffix, DataType::kBool, nullable});
    fields.push_back(Field{"s" + suffix, DataType::kString, nullable});
    cols.push_back(std::move(i64));
    cols.push_back(std::move(f64));
    cols.push_back(std::move(b8));
    cols.push_back(std::move(str));
  }
  Result<Table> t = Table::FromColumns(Schema(fields), std::move(cols));
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return std::move(t).value();
}

TEST(GatherLanesTest, EqualsPerRowAppendsAtOneTwoAndFourLanes) {
  const Table source = GatherSource();
  const uint32_t n = static_cast<uint32_t>(source.num_rows());
  std::vector<std::pair<std::string, std::vector<uint32_t>>> cases;
  cases.push_back({"none", {}});
  cases.push_back({"one", {n - 3}});
  std::vector<uint32_t> scattered(200000);
  for (size_t i = 0; i < scattered.size(); ++i) {
    scattered[i] = static_cast<uint32_t>((i * 7919) % n);
  }
  cases.push_back({"scattered", scattered});
  std::vector<uint32_t> repeated(200000);
  for (size_t i = 0; i < repeated.size(); ++i) {
    repeated[i] = static_cast<uint32_t>((i / 3) % 1000);
  }
  cases.push_back({"repeated", repeated});
  std::vector<uint32_t> descending(200000);
  for (size_t i = 0; i < descending.size(); ++i) {
    descending[i] = static_cast<uint32_t>(n - 1 - i);
  }
  cases.push_back({"descending", descending});

  for (const size_t lanes : {1, 2, 4}) {
    ThreadPool::SetGlobalThreadCount(lanes);
    for (const auto& [name, rows] : cases) {
      Result<Table> table = source.GatherRows(rows);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ASSERT_EQ(table->num_rows(), rows.size());
      for (size_t c = 0; c < source.num_columns(); ++c) {
        const std::string what = name + " " + source.schema().field(c).name +
                                 " lanes=" + std::to_string(lanes);
        const Column want = AppendGather(source.column(c), rows);
        Result<Column> got = source.column(c).Gather(rows);
        ASSERT_TRUE(got.ok()) << what;
        ExpectSameColumn(*got, want, what);
        ExpectSameColumn(table->column(c), want, what + " (GatherRows)");
      }
    }
  }
  ThreadPool::SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace laws
