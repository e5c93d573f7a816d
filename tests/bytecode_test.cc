// Unit tests for the expression engine (DESIGN.md §13): golden programs
// out of the compiler, constant folding / CSE / type specialization, the
// table of static errors, §11 semantics parity against the reference
// oracle (numeric and string lanes), and the batch/scratch mechanics of
// the VM.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "query/bytecode.h"
#include "query/expr_eval.h"
#include "query/parser.h"
#include "query/vector_eval.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "testing/reference_oracle.h"

namespace laws {
namespace {

Schema TestSchema() {
  return Schema({Field{"ia", DataType::kInt64, true},
                 Field{"ib", DataType::kInt64, true},
                 Field{"da", DataType::kDouble, true},
                 Field{"db", DataType::kDouble, true},
                 Field{"ba", DataType::kBool, true},
                 Field{"sa", DataType::kString, true}});
}

// Parses the expression of `SELECT <expr> FROM t` (the form the oracle
// runs, so both sides see the same tree).
std::unique_ptr<Expr> ParseExpr(const std::string& text) {
  auto stmt = ParseSelect("SELECT " + text + " FROM t");
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status().ToString();
  if (!stmt.ok()) return nullptr;
  return std::move(stmt->select_list[0].expr);
}

Result<CompiledExpr> Compile(const std::string& text) {
  auto expr = ParseExpr(text);
  if (expr == nullptr) return Status::InvalidArgument("unparsable " + text);
  return CompileExpr(*expr, TestSchema());
}

/// Five rows salted with the §11 edge cases: NaN, -0.0, 2^53 + 1, NULLs,
/// and for `sa` the empty string, the text 'NULL' and a real NULL.
Table SmallTable() {
  Table t{TestSchema()};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto row = [&](Value ia, Value ib, Value da, Value db, Value ba,
                 Value sa) {
    EXPECT_TRUE(t.AppendRow({std::move(ia), std::move(ib), std::move(da),
                             std::move(db), std::move(ba), std::move(sa)})
                    .ok());
  };
  row(Value::Int64(1), Value::Int64(10), Value::Double(1.5),
      Value::Double(2.0), Value::Bool(true), Value::String("b"));
  row(Value::Int64(-7), Value::Int64(3), Value::Double(-0.0),
      Value::Double(0.5), Value::Bool(false), Value::String(""));
  row(Value::Null(), Value::Int64(5), Value::Double(nan),
      Value::Double(-3.25), Value::Null(), Value::Null());
  row(Value::Int64(9007199254740993LL),  // 2^53 + 1: comparison horizon
      Value::Int64(9007199254740992LL), Value::Double(9007199254740992.0),
      Value::Double(100.0), Value::Bool(true), Value::String("NULL"));
  row(Value::Int64(0), Value::Null(), Value::Null(), Value::Double(0.25),
      Value::Bool(false), Value::String("ab"));
  return t;
}

Result<Column> RunEngine(const std::string& text, const Table& table,
                         BatchEvaluator& ev) {
  auto expr = ParseExpr(text);
  if (expr == nullptr) return Status::InvalidArgument("unparsable " + text);
  LAWS_ASSIGN_OR_RETURN(const CompiledExpr program,
                        CompileExpr(*expr, table.schema()));
  return ev.Run(program, table);
}

/// The reference: the oracle's answer to `SELECT <text> FROM t`.
testing::OracleResult RunOracle(const std::string& text, const Table& table) {
  Catalog catalog;
  catalog.RegisterOrReplace("t", std::make_shared<Table>(table));
  auto stmt = ParseSelect("SELECT " + text + " FROM t");
  EXPECT_TRUE(stmt.ok()) << text;
  return testing::OracleExecuteSelect(catalog, *stmt);
}

// The engine must match the oracle on whether the expression errors and,
// when it does not, on the result type, NULLs and every value's bits
// (NaNs one class).
void ExpectParity(const std::string& text, const Table& table,
                  BatchEvaluator& ev) {
  const testing::OracleResult want = RunOracle(text, table);
  const Result<Column> got = RunEngine(text, table, ev);
  ASSERT_EQ(want.status.ok(), got.ok())
      << text << ": oracle " << want.status.ToString() << " vs engine "
      << (got.ok() ? "OK" : got.status().ToString());
  if (!got.ok()) return;
  ASSERT_EQ(want.table.num_columns(), 1u) << text;
  const Column& ref = want.table.column(0);
  ASSERT_EQ(ref.size(), got->size()) << text;
  ASSERT_EQ(ref.type(), got->type()) << text;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.IsNull(i), got->IsNull(i)) << text << " row " << i;
    if (ref.IsNull(i)) continue;
    switch (ref.type()) {
      case DataType::kDouble: {
        const double a = ref.DoubleAt(i), b = got->DoubleAt(i);
        if (std::isnan(a) || std::isnan(b)) {
          EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << text << " row " << i;
        } else {
          uint64_t ba, bb;
          std::memcpy(&ba, &a, 8);
          std::memcpy(&bb, &b, 8);
          EXPECT_EQ(ba, bb) << text << " row " << i << ": " << a << " vs "
                            << b;
        }
        break;
      }
      case DataType::kInt64:
        EXPECT_EQ(ref.Int64At(i), got->Int64At(i)) << text << " row " << i;
        break;
      case DataType::kBool:
        EXPECT_EQ(ref.BoolAt(i), got->BoolAt(i)) << text << " row " << i;
        break;
      case DataType::kString:
        EXPECT_EQ(ref.StringAt(i), got->StringAt(i)) << text << " row " << i;
        break;
    }
  }
}

void ExpectParity(const std::string& text, const Table& table) {
  BatchEvaluator ev;
  ExpectParity(text, table, ev);
}

// --- Golden programs ------------------------------------------------------

TEST(BytecodeCompilerTest, GoldenIntAdd) {
  auto p = Compile("ia + 1");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.i64(ia); s1=const.i64(1); s1=add.i64(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kInt64);
  EXPECT_EQ(p->num_slots, 2);
}

TEST(BytecodeCompilerTest, GoldenMixedPromotesToDouble) {
  auto p = Compile("ia * da");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.i64(ia); s1=loadcol.f64(da); s0=cast.i64.f64(s0); "
            "s1=mul.f64(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kDouble);
}

TEST(BytecodeCompilerTest, GoldenComparisonIsDoubleTyped) {
  // §11: every numeric comparison goes through double coercion, even
  // int64-vs-int64 (the 2^53 horizon is intentional, shared semantics).
  auto p = Compile("ia < ib");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.i64(ia); s1=loadcol.i64(ib); s0=cast.i64.f64(s0); "
            "s1=cast.i64.f64(s1); s1=cmplt.f64(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kBool);
}

TEST(BytecodeCompilerTest, GoldenStringCompare) {
  auto p = Compile("sa >= 'x'");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.str(sa); s1=const.str('x'); s1=cmpge.str(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kBool);
}

// --- Constant folding and CSE ---------------------------------------------

TEST(BytecodeCompilerTest, ConstantSubtreeFoldsToOneLoad) {
  auto p = Compile("da + (1 + 2 * 3)");
  ASSERT_TRUE(p.ok());
  // The column-free subtree becomes a single constant instruction.
  size_t consts = 0;
  for (const auto& ins : p->code) {
    consts += ins.op == OpCode::kConstI64 || ins.op == OpCode::kConstF64;
  }
  EXPECT_EQ(consts, 1u) << p->ToString();
  EXPECT_EQ(p->constants.size(), 1u);
  EXPECT_TRUE(p->constants[0].is_int64());
  EXPECT_EQ(p->constants[0].int64(), 7);
}

TEST(BytecodeCompilerTest, ConstantStringSubtreeFolds) {
  auto p = Compile("coalesce('x', 'y') = sa");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=const.str('x'); s1=loadcol.str(sa); s1=cmpeq.str(s0,s1)");
}

TEST(BytecodeCompilerTest, FoldTimeErrorVetoesTheFold) {
  // 1/0 errors at evaluation time. Folding it at compile time would move
  // the error; the compiler must leave the division in the program.
  auto p = Compile("da + 1 / 0");
  ASSERT_TRUE(p.ok());
  bool has_div = false;
  for (const auto& ins : p->code) has_div |= ins.op == OpCode::kDivF64;
  EXPECT_TRUE(has_div) << p->ToString();
}

TEST(BytecodeCompilerTest, NullFoldKeepsTheOperatorsType) {
  // nullif(1, 1) is NULL; folded to a NULL literal it would type as
  // DOUBLE, so the program keeps the INT64 nullif instead.
  auto p = Compile("nullif(1, 1)");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->result_type, DataType::kInt64) << p->ToString();
  ExpectParity("nullif(1, 1)", SmallTable());
  // A vetoed operand does not stop its parent from folding: NULL + 1
  // stays in the program only until the coalesce over it folds to 2.0.
  auto q = Compile("coalesce(NULL + 1, 2)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ToString(), "s0=const.f64(2)");
  ExpectParity("coalesce(NULL + 1, 2)", SmallTable());
}

TEST(BytecodeCompilerTest, SharedSubexpressionCompilesOnce) {
  auto p = Compile("(da * db) + (da * db)");
  ASSERT_TRUE(p.ok());
  size_t muls = 0;
  for (const auto& ins : p->code) muls += ins.op == OpCode::kMulF64;
  EXPECT_EQ(muls, 1u) << p->ToString();
  // Without CSE this is 2 loads + mul twice; with it, the add reads the
  // pinned mul slot for both operands.
  const Instruction& last = p->code.back();
  EXPECT_EQ(last.op, OpCode::kAddF64);
  EXPECT_EQ(last.a, last.b);
}

TEST(BytecodeCompilerTest, NearEqualLiteralsDoNotShareARegister) {
  // Regression (30k-sweep seeds 13278/19263): %.10g renders
  // 1.0000000000001 as "1", so a CSE key built from Expr::ToString()
  // conflated it with the integer literal 1 and rewired the second
  // occurrence onto the first one's register — the comparison then ran
  // against the wrong constant.
  const Table t = SmallTable();
  ExpectParity("((-1.0000000000001 * db) >= coalesce(-1, db, ib))", t);
  ExpectParity(
      "(ba = 1) OR (((ib / 1.0000000000001) >= ib) AND "
      "((ib / 1.0000000000001) <= ib))",
      t);
}

TEST(BytecodeCompilerTest, LiteralTypeCollisionKeepsCaseInt64) {
  // int64 0 and double 0.0 both print "0"; under a text-keyed CSE the
  // ELSE 0 inherited the double constant's register and type, promoting
  // the CASE to DOUBLE where it must stay INT64 (seed 21765).
  const std::string text = "CASE WHEN da >= 0.0 THEN ia ELSE 0 END";
  auto p = Compile(text);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->result_type, DataType::kInt64) << p->ToString();
  ExpectParity(text, SmallTable());
}

// --- Static errors ----------------------------------------------------------

TEST(BytecodeCompilerTest, StaticErrorsCarryTheirCodeAndMessage) {
  struct Case {
    const char* text;
    StatusCode code;
    const char* message;
  };
  const Case cases[] = {
      {"-sa", StatusCode::kTypeMismatch, "cannot negate a string"},
      {"NOT da", StatusCode::kTypeMismatch, "NOT requires a boolean operand"},
      {"ia AND ba", StatusCode::kTypeMismatch,
       "AND/OR require boolean operands"},
      {"ba OR sa", StatusCode::kTypeMismatch,
       "AND/OR require boolean operands"},
      {"sa + 1", StatusCode::kTypeMismatch,
       "arithmetic on non-numeric operand"},
      {"sa = 1", StatusCode::kTypeMismatch,
       "cannot compare string with numeric"},
      {"sa < NULL", StatusCode::kTypeMismatch,
       "cannot compare string with numeric"},
      {"sqrt(da, db)", StatusCode::kInvalidArgument,
       "sqrt() takes one argument"},
      {"abs()", StatusCode::kInvalidArgument, "abs() takes one argument"},
      {"ln(sa)", StatusCode::kTypeMismatch,
       "ln() requires a numeric argument"},
      {"pow(da)", StatusCode::kInvalidArgument, "pow() takes two arguments"},
      {"power(sa, 2)", StatusCode::kTypeMismatch,
       "pow() requires numeric arguments"},
      {"nullif(ia)", StatusCode::kInvalidArgument,
       "nullif() takes two arguments"},
      {"coalesce()", StatusCode::kInvalidArgument,
       "coalesce() needs arguments"},
      {"coalesce(sa, 1)", StatusCode::kTypeMismatch,
       "coalesce() mixes strings and numerics"},
      {"frobnicate(da)", StatusCode::kInvalidArgument,
       "unknown function: frobnicate"},
      {"nosuchcol + 1", StatusCode::kNotFound,
       "no field named 'nosuchcol'"},
      {"CASE WHEN ia THEN 1 END", StatusCode::kTypeMismatch,
       "CASE WHEN condition is not boolean"},
      {"CASE WHEN ba THEN sa ELSE 1 END", StatusCode::kTypeMismatch,
       "CASE mixes strings and numerics"},
      {"COUNT(*) + 1", StatusCode::kInvalidArgument,
       "aggregate in scalar context (missing GROUP BY handling?)"},
  };
  const Table t = SmallTable();
  for (const Case& c : cases) {
    Result<CompiledExpr> p = Compile(c.text);
    ASSERT_FALSE(p.ok()) << c.text;
    EXPECT_EQ(p.status().code(), c.code) << c.text;
    EXPECT_EQ(p.status().message(), c.message) << c.text;
    // The oracle agrees that the statement errors (an aggregate is only
    // an error in scalar context; as a SELECT item it is a global
    // aggregate).
    if (!ParseExpr(c.text)->ContainsAggregate()) {
      EXPECT_FALSE(RunOracle(c.text, t).status.ok()) << c.text;
    }
  }
  Result<CompiledExpr> star = CompileExpr(*Expr::MakeStar(), TestSchema());
  ASSERT_FALSE(star.ok());
  EXPECT_EQ(star.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(star.status().message(), "* outside COUNT(*)");
}

TEST(BytecodeCompilerTest, StaticErrorWinsOverDataError) {
  // da / (ia - ia) divides by zero on the first row; NOT of a double is
  // a static error. The static one is reported, before any row runs.
  const Table t = SmallTable();
  Result<Column> data = EvaluateExpr(*ParseExpr("da / (ia - ia)"), t);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kNumericError);
  Result<Column> both = EvaluateExpr(*ParseExpr("NOT (da / (ia - ia))"), t);
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(both.status().message(), "NOT requires a boolean operand");
}

// --- EvaluateConstant -------------------------------------------------------

TEST(EvaluateConstantTest, LiteralsSkipTheCompiler) {
  Counter* compiled = MetricsRegistry::Global().GetCounter("expr.compiled");
  const uint64_t before = compiled->value();
  Result<Value> lit = EvaluateConstant(*ParseExpr("'abc'"));
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ(lit->str(), "abc");
  Result<Value> folded = EvaluateConstant(*ParseExpr("-(1 + 2) * 4"));
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->int64(), -12);
  // Neither the literal nor the composite counts as a compiled query
  // expression.
  EXPECT_EQ(compiled->value(), before);
}

TEST(EvaluateConstantTest, FoldVetoesSurfaceAtEvaluation) {
  // 1/0 vetoes the fold; evaluating the constant then raises the error.
  Result<Value> div = EvaluateConstant(*ParseExpr("1 / 0"));
  ASSERT_FALSE(div.ok());
  EXPECT_EQ(div.status().code(), StatusCode::kNumericError);
  EXPECT_EQ(div.status().message(), "division by zero");
  // A NULL result vetoes the fold too; the value is still NULL.
  Result<Value> null = EvaluateConstant(*ParseExpr("nullif(1, 1)"));
  ASSERT_TRUE(null.ok());
  EXPECT_TRUE(null->is_null());
  // Column references are not constant.
  EXPECT_EQ(EvaluateConstant(*ParseExpr("ia + 1")).status().code(),
            StatusCode::kNotFound);
}

// --- §11 semantics parity -------------------------------------------------

TEST(BytecodeSemanticsTest, ArithmeticParity) {
  const Table t = SmallTable();
  ExpectParity("ia + ib", t);
  ExpectParity("da * db - ia", t);
  ExpectParity("da / db", t);
  ExpectParity("ia % ib", t);
  ExpectParity("-da", t);
  ExpectParity("-ia", t);
  ExpectParity("abs(ia)", t);
  ExpectParity("abs(da)", t);
  ExpectParity("ln(db)", t);       // negative db rows produce NaN
  ExpectParity("sqrt(da)", t);     // negative/-0.0 rows
  ExpectParity("pow(da, 2)", t);
}

TEST(BytecodeSemanticsTest, NaNComparisonClasses) {
  // The NaN row must land in the same truth bucket as the oracle's:
  // NaN > x and NaN >= x are TRUE, ==/</<= FALSE (three-way compare puts
  // NaN in the "greater" class).
  const Table t = SmallTable();
  for (const char* cmp : {"=", "<>", "<", "<=", ">", ">="}) {
    ExpectParity(std::string("da ") + cmp + " db", t);
    ExpectParity(std::string("da ") + cmp + " 0.0", t);
  }
}

TEST(BytecodeSemanticsTest, SignedZeroSurvives) {
  const Table t = SmallTable();
  // Row 1 has da = -0.0; the bit pattern must round-trip (ExpectParity
  // compares raw bits, not ==).
  ExpectParity("da", t);
  ExpectParity("da * 1.0", t);
  ExpectParity("-da", t);
}

TEST(BytecodeSemanticsTest, CheckedInt64Overflow) {
  Table t{Schema({Field{"ia", DataType::kInt64, true}})};
  ASSERT_TRUE(t.AppendRow({Value::Int64(INT64_MAX)}).ok());
  ExpectParity("ia + 1", t);
  Result<Column> r = EvaluateExpr(*ParseExpr("ia + 1"), t);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNumericError);
  EXPECT_EQ(r.status().message(), "integer overflow in arithmetic");
}

TEST(BytecodeSemanticsTest, Int64MinEdgeCases) {
  Table t{Schema({Field{"ia", DataType::kInt64, true},
                  Field{"ib", DataType::kInt64, true}})};
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(INT64_MIN), Value::Int64(-1)}).ok());
  // INT64_MIN % -1 is defined as 0 (not a trap).
  ExpectParity("ia % ib", t);
  // -INT64_MIN and abs(INT64_MIN) error.
  ExpectParity("-ia", t);
  ExpectParity("abs(ia)", t);
  EXPECT_EQ(EvaluateExpr(*ParseExpr("-ia"), t).status().message(),
            "integer overflow in negation");
  EXPECT_EQ(EvaluateExpr(*ParseExpr("abs(ia)"), t).status().message(),
            "integer overflow in abs()");
}

TEST(BytecodeSemanticsTest, DivisionByZeroSkipsNullLanes) {
  // The divisor is NULL on one row and 0.0 on none; no error may fire
  // for the NULL lane's scratch contents.
  Table t{Schema({Field{"da", DataType::kDouble, true},
                  Field{"db", DataType::kDouble, true}})};
  ASSERT_TRUE(t.AppendRow({Value::Double(1.0), Value::Double(2.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Double(1.0), Value::Null()}).ok());
  ExpectParity("da / db", t);
  ExpectParity("da % db", t);
  // And a real 0.0 divisor on a non-NULL lane errors.
  ASSERT_TRUE(t.AppendRow({Value::Double(1.0), Value::Double(0.0)}).ok());
  ExpectParity("da / db", t);
  EXPECT_EQ(EvaluateExpr(*ParseExpr("da / db"), t).status().message(),
            "division by zero");
}

TEST(BytecodeSemanticsTest, ThreeValuedLogicParity) {
  const Table t = SmallTable();
  ExpectParity("ba AND da > 0", t);
  ExpectParity("ba OR da > 0", t);
  ExpectParity("NOT ba", t);
  ExpectParity("(da > 0 AND db > 0) OR ba", t);
}

TEST(BytecodeSemanticsTest, CaseCoalesceNullifParity) {
  const Table t = SmallTable();
  ExpectParity("CASE WHEN da > 0 THEN ia ELSE ib END", t);
  ExpectParity("CASE WHEN da > 0 THEN 1 WHEN db > 0 THEN 2 END", t);
  ExpectParity("CASE WHEN ba THEN da ELSE ia END", t);  // mixed -> double
  ExpectParity("coalesce(da, db)", t);
  ExpectParity("coalesce(ia, ib)", t);
  ExpectParity("coalesce(da, ia, 0)", t);
  ExpectParity("nullif(ia, 1)", t);
  ExpectParity("nullif(da, db)", t);
}

TEST(BytecodeSemanticsTest, ComparisonHorizonAt2Pow53) {
  // 2^53 + 1 == 2^53 compares TRUE through double coercion — the shared
  // (documented) horizon, not a divergence.
  const Table t = SmallTable();
  ExpectParity("ia = ib", t);
  ExpectParity("ia = da", t);
}

// --- String lanes ---------------------------------------------------------

/// Every string shape the VM runs: the six comparisons against the empty
/// string, the text 'NULL' and another column value, IN lists, string
/// COALESCE / CASE / NULLIF, and comparisons over their NULL-bearing
/// results, over `sa`'s '', 'NULL' and real NULLs.
std::vector<std::string> StringExpressions() {
  std::vector<std::string> out = {"sa",
                                  "'lit'",
                                  "sa IN ('', 'NULL', 'ab')",
                                  "NOT (sa IN ('b'))",
                                  "sa BETWEEN 'a' AND 'b'",
                                  "coalesce(sa, 'none')",
                                  "coalesce(nullif(sa, ''), sa, 'x')",
                                  "nullif(sa, 'NULL')",
                                  "nullif(sa, sa)",
                                  "CASE WHEN sa = '' THEN 'empty' "
                                  "WHEN sa > 'a' THEN sa END",
                                  "CASE WHEN ba THEN sa ELSE 'no' END",
                                  "sa = 'NULL' OR sa = ''",
                                  "nullif(sa, 'b') < 'c'",
                                  "CASE WHEN ba THEN sa END >= ''"};
  for (const char* cmp : {"=", "<>", "<", "<=", ">", ">="}) {
    out.push_back(std::string("sa ") + cmp + " ''");
    out.push_back(std::string("sa ") + cmp + " 'NULL'");
    out.push_back(std::string("sa ") + cmp + " 'ab'");
    out.push_back(std::string("'b' ") + cmp + " sa");
  }
  return out;
}

TEST(BytecodeStringTest, ParityAtEveryBatchWidth) {
  const Table t = SmallTable();
  for (const size_t width : {size_t{1}, size_t{2}, size_t{3}, kExprBatchSize}) {
    BatchEvaluator ev(width);
    for (const std::string& text : StringExpressions()) {
      SCOPED_TRACE("batch " + std::to_string(width));
      ExpectParity(text, t, ev);
    }
  }
}

TEST(BytecodeStringTest, ScratchReuseAcrossProgramsAndTables) {
  // One evaluator alternates string and numeric programs over tables
  // whose dictionaries differ; no lane may leak from one run to the next,
  // not even from a table destroyed while views into its dictionary may
  // still sit in the scratch.
  const Table t = SmallTable();
  Table other = SmallTable();
  ASSERT_TRUE(other
                  .AppendRow({Value::Int64(2), Value::Int64(2),
                              Value::Double(2.0), Value::Double(2.0),
                              Value::Bool(true), Value::String("zz")})
                  .ok());
  BatchEvaluator ev(2);
  {
    const Table gone = other;
    for (const std::string& text : StringExpressions()) {
      ExpectParity(text, gone, ev);
    }
  }
  for (const std::string& text : StringExpressions()) {
    ExpectParity(text, t, ev);
    ExpectParity("coalesce(da, ia, -1)", other, ev);
    ExpectParity(text, other, ev);
  }
}

TEST(BytecodeStringTest, BareColumnIsCopiedNotReinterned) {
  const Table t = SmallTable();
  Result<Column> c = EvaluateExpr(*ParseExpr("sa"), t);
  ASSERT_TRUE(c.ok());
  const Column& src = t.column(5);
  EXPECT_EQ(c->dictionary(), src.dictionary());
  EXPECT_EQ(c->string_codes(), src.string_codes());
  EXPECT_EQ(c->null_count(), src.null_count());
}

TEST(BytecodeStringTest, NullifStringAgainstNumberErrorsPerRow) {
  // nullif(sa, ia) is a type error only on rows where both sides are
  // non-NULL: a table whose rows each have one side NULL evaluates.
  Table t{TestSchema()};
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value::Null(),
                           Value::Null(), Value::Null(), Value::String("a")})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value::Int64(1), Value::Null(), Value::Null(),
                           Value::Null(), Value::Null(), Value::Null()})
                  .ok());
  for (const char* text : {"nullif(sa, ia)", "nullif(ia, sa)"}) {
    ExpectParity(text, t);
    Result<Column> ok = EvaluateExpr(*ParseExpr(text), t);
    ASSERT_TRUE(ok.ok()) << text << ": " << ok.status().ToString();
  }
  Result<Column> ok = EvaluateExpr(*ParseExpr("nullif(sa, ia)"), t);
  EXPECT_EQ(ok->StringAt(0), "a");
  EXPECT_TRUE(ok->IsNull(1));
  // One row with both sides set makes the whole statement fail.
  ASSERT_TRUE(t.AppendRow({Value::Int64(2), Value::Null(), Value::Null(),
                           Value::Null(), Value::Null(), Value::String("b")})
                  .ok());
  for (const char* text : {"nullif(sa, ia)", "nullif(ia, sa)"}) {
    ExpectParity(text, t);
    Result<Column> bad = EvaluateExpr(*ParseExpr(text), t);
    ASSERT_FALSE(bad.ok()) << text;
    EXPECT_EQ(bad.status().code(), StatusCode::kTypeMismatch);
    EXPECT_EQ(bad.status().message(), "nullif() type mismatch");
  }
}

// --- VM mechanics ---------------------------------------------------------

TEST(BytecodeVmTest, TinyBatchesCrossBoundariesCorrectly) {
  // batch_size 3 over 5 rows: 2 batches, the second partial.
  const Table t = SmallTable();
  BatchEvaluator tiny(3);
  ExpectParity("da * 2.0 + ia", t, tiny);
  ExpectParity("coalesce(ia, ib) % 4", t, tiny);
}

TEST(BytecodeVmTest, ScratchReuseIsBitIdenticalAcrossRuns) {
  // One evaluator, many runs over different programs: stale scratch from
  // run N must never leak into run N+1.
  const Table t = SmallTable();
  BatchEvaluator eval;
  auto run = [&](const std::string& text) {
    Result<Column> c = RunEngine(text, t, eval);
    EXPECT_TRUE(c.ok()) << text;
    return std::move(c).value();
  };
  const Column first = run("da + db");
  run("coalesce(da, ia, -1)");  // different program dirties the slots
  run("ia - ib");  // (ia * ib would overflow on the 2^53 row)
  const Column again = run("da + db");
  ASSERT_EQ(first.size(), again.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first.IsNull(i), again.IsNull(i)) << i;
    if (first.IsNull(i)) continue;
    uint64_t ba, bb;
    const double a = first.DoubleAt(i), b = again.DoubleAt(i);
    std::memcpy(&ba, &a, 8);
    std::memcpy(&bb, &b, 8);
    EXPECT_EQ(ba, bb) << i;
  }
}

/// Row ids the oracle's `SELECT rid FROM t WHERE <pred>` selects, over
/// `table` numbered with a `rid` column.
Result<std::vector<uint32_t>> OracleSelection(const std::string& pred,
                                              const Table& table) {
  std::vector<Field> fields = table.schema().fields();
  fields.push_back(Field{"rid", DataType::kInt64, false});
  std::vector<Column> cols;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    cols.push_back(table.column(c));
  }
  std::vector<int64_t> ids(table.num_rows());
  std::iota(ids.begin(), ids.end(), int64_t{0});
  cols.push_back(Column::FromInt64Vector(std::move(ids)));
  LAWS_ASSIGN_OR_RETURN(Table numbered,
                        Table::FromColumns(Schema(fields), std::move(cols)));
  Catalog catalog;
  catalog.RegisterOrReplace("t", std::make_shared<Table>(std::move(numbered)));
  LAWS_ASSIGN_OR_RETURN(SelectStatement stmt,
                        ParseSelect("SELECT rid FROM t WHERE " + pred));
  const testing::OracleResult r = testing::OracleExecuteSelect(catalog, stmt);
  if (!r.status.ok()) return r.status;
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < r.table.num_rows(); ++i) {
    rows.push_back(static_cast<uint32_t>(r.table.column(0).Int64At(i)));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(BytecodeVmTest, FilterMatchesOracleSelection) {
  const Table t = SmallTable();
  for (const char* pred :
       {"da > 0 AND ia < 100", "sa >= 'NULL'", "sa IN ('', 'ab') OR ba",
        "NOT (sa <> 'b')", "coalesce(sa, 'NULL') = 'NULL'"}) {
    Result<std::vector<uint32_t>> want = OracleSelection(pred, t);
    ASSERT_TRUE(want.ok()) << pred << ": " << want.status().ToString();
    Result<std::vector<uint32_t>> got = FilterRows(*ParseExpr(pred), t);
    ASSERT_TRUE(got.ok()) << pred << ": " << got.status().ToString();
    EXPECT_EQ(*want, *got) << pred;
  }
}

TEST(BytecodeVmTest, NonBooleanFilterFailsLikeOracle) {
  // A predicate that is not boolean is a static error: it fails before
  // any row is read, and the oracle rejects the statement too.
  const Table t = SmallTable();
  for (const char* pred : {"da + db", "sa", "coalesce(ia, 1)"}) {
    EXPECT_FALSE(OracleSelection(pred, t).ok()) << pred;
    Result<std::vector<uint32_t>> got = FilterRows(*ParseExpr(pred), t);
    ASSERT_FALSE(got.ok()) << pred;
    EXPECT_EQ(got.status().code(), StatusCode::kTypeMismatch) << pred;
    EXPECT_EQ(got.status().message(), "WHERE predicate is not boolean")
        << pred;
  }
}

// --- FilterRows on lanes ---------------------------------------------------

/// `rows` rows over TestSchema: ia cycles through 0..96 with every 7th row
/// NULL, da through [0, 1) with every 11th row NaN and every 13th NULL,
/// ba TRUE on every third row.
Table LaneTable(size_t rows) {
  std::vector<int64_t> ia(rows), ib(rows);
  std::vector<double> da(rows), db(rows);
  std::vector<uint8_t> ba(rows);
  std::vector<uint8_t> ia_valid((rows + 7) / 8, 0xFF);
  std::vector<uint8_t> da_valid((rows + 7) / 8, 0xFF);
  for (size_t i = 0; i < rows; ++i) {
    ia[i] = static_cast<int64_t>(i % 97);
    ib[i] = static_cast<int64_t>(i % 5) - 2;
    da[i] = i % 11 == 0 ? std::numeric_limits<double>::quiet_NaN()
                        : static_cast<double>((i * 7919) % 1000) / 1000.0;
    db[i] = static_cast<double>(i % 3) + 0.5;
    ba[i] = i % 3 == 0 ? 1 : 0;
    if (i % 7 == 3) ia_valid[i / 8] &= static_cast<uint8_t>(~(1u << (i % 8)));
    if (i % 13 == 5) da_valid[i / 8] &= static_cast<uint8_t>(~(1u << (i % 8)));
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64Vector(std::move(ia)));
  cols.back().SetValidity(std::move(ia_valid));
  cols.push_back(Column::FromInt64Vector(std::move(ib)));
  cols.back().SetValidity({});
  cols.push_back(Column::FromDoubleVector(std::move(da)));
  cols.back().SetValidity(std::move(da_valid));
  cols.push_back(Column::FromDoubleVector(std::move(db)));
  cols.back().SetValidity({});
  cols.push_back(Column::FromBoolVector(std::move(ba)));
  cols.back().SetValidity({});
  Column sa(DataType::kString);
  for (size_t i = 0; i < rows; ++i) sa.AppendString(i % 2 == 0 ? "x" : "y");
  cols.push_back(std::move(sa));
  Result<Table> t = Table::FromColumns(TestSchema(), std::move(cols));
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return std::move(t).value();
}

/// FilterRows at `lanes` lanes; restores the default pool.
Result<std::vector<uint32_t>> FilterAt(size_t lanes, const Expr& pred,
                                       const Table& t,
                                       const std::vector<RowRange>* ranges) {
  ThreadPool::SetGlobalThreadCount(lanes);
  Result<std::vector<uint32_t>> rows = FilterRows(pred, t, nullptr, ranges);
  ThreadPool::SetGlobalThreadCount(0);
  return rows;
}

// Morsels run on lanes and compact in morsel order, so the selection is
// the 1-lane one at every lane count, on every size around the batch and
// morsel edges, over all rows and over ranges that start off a batch
// boundary, for predicates that see NULLs and NaNs. The 1-lane run must
// itself agree with the evaluated mask.
TEST(FilterLanesTest, SameIdsAtOneTwoAndFourLanes) {
  const char* preds[] = {
      "da > 0.5",                            // NaN > x is TRUE (§11)
      "da BETWEEN 0.25 AND 0.75",            // two compares + and.3vl
      "ia % 3 = 0 AND da < 0.9",             // NULLs on both sides
      "coalesce(ia, -1) < 0 OR NOT (da <> da)",
      "ba OR ib > 1"};
  for (const size_t rows :
       {0, 1, 1023, 1024, 16383, 16384, 16385, 200000}) {
    const Table t = LaneTable(rows);
    const std::vector<RowRange> off_batch = {
        {std::min<size_t>(5, rows), std::min<size_t>(1500, rows)},
        {std::min<size_t>(1501, rows), std::min<size_t>(40001, rows)},
        {std::min<size_t>(50003, rows), rows}};
    for (const char* text : preds) {
      const std::unique_ptr<Expr> pred = ParseExpr(text);
      ASSERT_NE(pred, nullptr);
      Result<Column> mask = EvaluateExpr(*pred, t);
      ASSERT_TRUE(mask.ok()) << text << ": " << mask.status().ToString();
      for (const std::vector<RowRange>* ranges :
           {static_cast<const std::vector<RowRange>*>(nullptr), &off_batch}) {
        std::vector<uint32_t> want;
        const std::vector<RowRange> whole = {{0, rows}};
        for (const RowRange& r : ranges != nullptr ? *ranges : whole) {
          for (size_t i = r.begin; i < r.end; ++i) {
            if (!mask->IsNull(i) && mask->BoolAt(i)) {
              want.push_back(static_cast<uint32_t>(i));
            }
          }
        }
        const Result<std::vector<uint32_t>> one = FilterAt(1, *pred, t, ranges);
        ASSERT_TRUE(one.ok()) << text << ": " << one.status().ToString();
        EXPECT_EQ(*one, want) << text << " rows=" << rows;
        for (const size_t lanes : {2, 4}) {
          const Result<std::vector<uint32_t>> got =
              FilterAt(lanes, *pred, t, ranges);
          ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
          EXPECT_EQ(*got, *one)
              << text << " rows=" << rows << " lanes=" << lanes
              << (ranges != nullptr ? " ranges" : " all rows");
        }
      }
    }
  }
}

// A data error is the one a serial sweep raises first: the lowest failing
// morsel's. `1 / da` fails on a zero, `1.0 % db` on a zero; with both
// planted the earlier row decides, whichever morsel the lanes reach first.
TEST(FilterLanesTest, SameErrorAtOneTwoAndFourLanes) {
  constexpr size_t kRows = 200000;  // 13 morsels
  constexpr size_t kMorsel = 16384;
  struct Plant {
    const char* name;
    std::vector<size_t> da_zero;
    std::vector<size_t> db_zero;
    const char* message;
  };
  const std::vector<Plant> plants = {
      {"first morsel", {5}, {}, "division by zero"},
      {"last morsel", {kRows - 1}, {}, "division by zero"},
      {"two morsels, division first",
       {3 * kMorsel + 100},
       {9 * kMorsel + 7},
       "division by zero"},
      {"two morsels, modulo first",
       {9 * kMorsel + 7},
       {3 * kMorsel + 100},
       "modulo by zero"},
  };
  const std::unique_ptr<Expr> pred = ParseExpr("1 / da + 1.0 % db > 0");
  ASSERT_NE(pred, nullptr);
  for (const Plant& plant : plants) {
    Table base = LaneTable(kRows);
    std::vector<double> da = base.column(2).double_data();
    std::vector<double> db = base.column(3).double_data();
    for (double& v : da) v = std::isnan(v) || v == 0.0 ? 0.5 : v;
    for (const size_t r : plant.da_zero) da[r] = 0.0;
    for (const size_t r : plant.db_zero) db[r] = 0.0;
    std::vector<Column> cols;
    for (size_t c = 0; c < base.num_columns(); ++c) {
      cols.push_back(base.column(c));
    }
    cols[2] = Column::FromDoubleVector(std::move(da));
    cols[3] = Column::FromDoubleVector(std::move(db));
    std::vector<Field> fields = TestSchema().fields();
    fields[2].nullable = false;
    fields[3].nullable = false;
    Result<Table> t = Table::FromColumns(Schema(fields), std::move(cols));
    ASSERT_TRUE(t.ok()) << t.status().ToString();

    const Result<std::vector<uint32_t>> one = FilterAt(1, *pred, *t, nullptr);
    ASSERT_FALSE(one.ok()) << plant.name;
    EXPECT_EQ(one.status().code(), StatusCode::kNumericError) << plant.name;
    EXPECT_EQ(one.status().message(), plant.message) << plant.name;
    for (const size_t lanes : {2, 4}) {
      const Result<std::vector<uint32_t>> got =
          FilterAt(lanes, *pred, *t, nullptr);
      ASSERT_FALSE(got.ok()) << plant.name << " lanes=" << lanes;
      EXPECT_EQ(got.status().code(), one.status().code()) << plant.name;
      EXPECT_EQ(got.status().message(), one.status().message())
          << plant.name << " lanes=" << lanes;
    }
  }
}

}  // namespace
}  // namespace laws
