#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "query/executor.h"
#include "query/expr_eval.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "testing/differential.h"
#include "testing/reference_oracle.h"

namespace laws {
namespace {

/// A small fixed table:
///  id | score | tag  | ok
///   1 |  10.0 | red  | true
///   2 |  20.0 | blue | false
///   3 |  NULL | red  | true
///   4 |  40.0 | blue | true
///   5 |  50.0 | red  | false
Catalog MakeCatalog() {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"id", DataType::kInt64, false},
              Field{"score", DataType::kDouble, true},
              Field{"tag", DataType::kString, false},
              Field{"ok", DataType::kBool, false}}));
  auto add = [&](int64_t id, Value score, const char* tag, bool ok) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(id), std::move(score),
                              Value::String(tag), Value::Bool(ok)})
                    .ok());
  };
  add(1, Value::Double(10.0), "red", true);
  add(2, Value::Double(20.0), "blue", false);
  add(3, Value::Null(), "red", true);
  add(4, Value::Double(40.0), "blue", true);
  add(5, Value::Double(50.0), "red", false);
  cat.RegisterOrReplace("t", t);
  return cat;
}

// --- Lexer --------------------------------------------------------------

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a, 1, 2.5, 'it''s' FROM t WHERE x <> 3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "a");
  EXPECT_EQ((*tokens)[3].type, TokenType::kIntegerLit);
  EXPECT_EQ((*tokens)[5].type, TokenType::kDoubleLit);
  EXPECT_EQ((*tokens)[7].type, TokenType::kStringLit);
  EXPECT_EQ((*tokens)[7].text, "it's");
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(LexerTest, ScientificNotationAndComments) {
  auto tokens = Tokenize("1e3 2.5E-2 -- trailing comment\n7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kDoubleLit);
  EXPECT_EQ((*tokens)[1].type, TokenType::kDoubleLit);
  EXPECT_EQ((*tokens)[2].text, "7");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT @").ok());
}

// --- Parser -----------------------------------------------------------

TEST(ParserTest, FullStatementRoundTrip) {
  auto stmt = ParseSelect(
      "SELECT tag, COUNT(*) AS n, AVG(score) FROM t WHERE score > 5 "
      "GROUP BY tag HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->select_list.size(), 3u);
  EXPECT_EQ(stmt->select_list[1].alias, "n");
  EXPECT_EQ(stmt->from_table, "t");
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_NE(stmt->having, nullptr);
  EXPECT_EQ(stmt->order_by.size(), 1u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSelect("SELECT 1 + 2 * 3 FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select_list[0].expr->ToString(), "(1 + (2 * 3))");
  auto stmt2 = ParseSelect("SELECT (1 + 2) * 3 FROM t");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(stmt2->select_list[0].expr->ToString(), "((1 + 2) * 3)");
}

TEST(ParserTest, AndOrPrecedence) {
  auto stmt = ParseSelect("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt.ok());
  // AND binds tighter than OR.
  EXPECT_EQ(stmt->where->ToString(), "((a = 1) OR ((b = 2) AND (c = 3)))");
}

TEST(ParserTest, BetweenDesugarsToRange) {
  auto stmt = ParseSelect("SELECT * FROM t WHERE x BETWEEN 1 AND 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->ToString(), "((x >= 1) AND (x <= 5))");
}

TEST(ParserTest, InDesugarsToDisjunction) {
  auto stmt = ParseSelect("SELECT * FROM t WHERE x IN (1, 2, 3)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->ToString(),
            "(((x = 1) OR (x = 2)) OR (x = 3))");
}

TEST(ParserTest, ImplicitAlias) {
  auto stmt = ParseSelect("SELECT score total FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select_list[0].alias, "total");
}

TEST(ParserTest, CountStarOnlyForCount) {
  EXPECT_TRUE(ParseSelect("SELECT COUNT(*) FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM t").ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());                 // no FROM
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());    // no predicate
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());  // bad limit
  EXPECT_FALSE(ParseSelect("SELECT a FROM t garbage").ok());  // trailing
  EXPECT_FALSE(ParseSelect("UPDATE t SET a = 1").ok());
}

TEST(ParserTest, GarbageNeverCrashesOnlyErrors) {
  // Fuzz-ish sweep: deterministic pseudo-random token soup must always
  // come back as a ParseError (or parse), never crash or hang.
  const char* fragments[] = {"SELECT", "FROM",  "WHERE", "(",    ")",
                             ",",      "*",     "+",     "-",    "'x'",
                             "1",      "2.5",   "t",     "a",    "=",
                             "<",      "AND",   "OR",    "NOT",  "JOIN",
                             "ON",     "GROUP", "BY",    "LIMIT"};
  uint64_t state = 12345;
  for (int trial = 0; trial < 500; ++trial) {
    std::string sql;
    const int len = 1 + static_cast<int>(state % 12);
    for (int i = 0; i < len; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      sql += fragments[(state >> 33) % (sizeof(fragments) /
                                        sizeof(fragments[0]))];
      sql += ' ';
    }
    auto result = ParseSelect(sql);  // must not crash
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError) << sql;
    }
  }
}

TEST(ParserTest, StandaloneExpression) {
  auto e = ParseExpression("wavelength < 0.15 AND source = 42");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE((*e)->ToString().find("wavelength") != std::string::npos);
  EXPECT_FALSE(ParseExpression("1 +").ok());
}

// --- Expression evaluation --------------------------------------------------

TEST(ExprEvalTest, ArithmeticTyping) {
  Catalog cat = MakeCatalog();
  auto t = *cat.Get("t");
  auto e = ParseExpression("id * 2 + 1");
  ASSERT_TRUE(e.ok());
  auto col = EvaluateExpr(**e, *t);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->type(), DataType::kInt64);  // int ops stay int
  EXPECT_EQ(col->Int64At(0), 3);
  EXPECT_EQ(col->Int64At(4), 11);
  // Division promotes to double.
  auto d = EvaluateExpr(**ParseExpression("id / 2"), *t);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(d->DoubleAt(0), 0.5);
}

TEST(ExprEvalTest, NullPropagationInArithmetic) {
  Catalog cat = MakeCatalog();
  auto t = *cat.Get("t");
  auto col = EvaluateExpr(**ParseExpression("score + 1"), *t);
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE(col->IsNull(0));
  EXPECT_TRUE(col->IsNull(2));  // row 3 has NULL score
}

TEST(ExprEvalTest, ComparisonAndThreeValuedLogic) {
  Catalog cat = MakeCatalog();
  auto t = *cat.Get("t");
  // score > 15 is NULL for row 3; NULL OR true = true; NULL AND true = NULL.
  auto or_col = EvaluateExpr(**ParseExpression("score > 15 OR ok"), *t);
  ASSERT_TRUE(or_col.ok());
  EXPECT_TRUE(or_col->BoolAt(2));  // ok=true dominates NULL
  auto and_col = EvaluateExpr(**ParseExpression("score > 15 AND ok"), *t);
  ASSERT_TRUE(and_col.ok());
  EXPECT_TRUE(and_col->IsNull(2));
  auto and_false =
      EvaluateExpr(**ParseExpression("score > 15 AND NOT ok"), *t);
  ASSERT_TRUE(and_false.ok());
  EXPECT_FALSE(and_false->IsNull(4));  // row5: 50>15 && !false = true
  EXPECT_TRUE(and_false->BoolAt(4));
}

TEST(ExprEvalTest, StringComparison) {
  Catalog cat = MakeCatalog();
  auto t = *cat.Get("t");
  auto col = EvaluateExpr(**ParseExpression("tag = 'red'"), *t);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE(col->BoolAt(0));
  EXPECT_FALSE(col->BoolAt(1));
  // Cross-type comparison errors.
  EXPECT_FALSE(EvaluateExpr(**ParseExpression("tag = 1"), *t).ok());
}

TEST(ExprEvalTest, Functions) {
  Catalog cat = MakeCatalog();
  auto t = *cat.Get("t");
  auto abs_col = EvaluateExpr(**ParseExpression("abs(0 - id)"), *t);
  ASSERT_TRUE(abs_col.ok());
  EXPECT_EQ(abs_col->Int64At(4), 5);
  auto pow_col = EvaluateExpr(**ParseExpression("pow(id, 2)"), *t);
  ASSERT_TRUE(pow_col.ok());
  EXPECT_DOUBLE_EQ(pow_col->DoubleAt(2), 9.0);
  auto log_col = EvaluateExpr(**ParseExpression("ln(exp(1))"), *t);
  ASSERT_TRUE(log_col.ok());
  EXPECT_NEAR(log_col->DoubleAt(0), 1.0, 1e-12);
  EXPECT_FALSE(EvaluateExpr(**ParseExpression("nosuchfn(1)"), *t).ok());
  EXPECT_FALSE(EvaluateExpr(**ParseExpression("sqrt(1, 2)"), *t).ok());
}

TEST(ExprEvalTest, CoalesceAndNullif) {
  Catalog cat = MakeCatalog();
  auto t = *cat.Get("t");
  // Row 3 has NULL score; coalesce falls back to -1.
  auto c = EvaluateExpr(**ParseExpression("coalesce(score, -1.0)"), *t);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_DOUBLE_EQ(c->DoubleAt(0), 10.0);
  EXPECT_DOUBLE_EQ(c->DoubleAt(2), -1.0);
  // Chained fallbacks.
  auto c2 = EvaluateExpr(
      **ParseExpression("coalesce(nullif(score, 10.0), 0.0)"), *t);
  ASSERT_TRUE(c2.ok());
  EXPECT_DOUBLE_EQ(c2->DoubleAt(0), 0.0);  // 10 nulled out, coalesced to 0
  EXPECT_DOUBLE_EQ(c2->DoubleAt(1), 20.0);
  // nullif yields NULL where equal.
  auto n = EvaluateExpr(**ParseExpression("nullif(tag, 'red')"), *t);
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(n->IsNull(0));
  EXPECT_EQ(n->StringAt(1), "blue");
  // Type mixing rejected.
  EXPECT_FALSE(EvaluateExpr(**ParseExpression("coalesce(tag, 1)"), *t).ok());
  EXPECT_FALSE(EvaluateExpr(**ParseExpression("coalesce()"), *t).ok());
}

TEST(ExprEvalTest, DivisionByZeroIsError) {
  Catalog cat = MakeCatalog();
  auto t = *cat.Get("t");
  EXPECT_EQ(EvaluateExpr(**ParseExpression("1 / (id - id)"), *t)
                .status()
                .code(),
            StatusCode::kNumericError);
  EXPECT_EQ(EvaluateExpr(**ParseExpression("id % (id - id)"), *t)
                .status()
                .code(),
            StatusCode::kNumericError);
}

TEST(ExprEvalTest, EvaluateConstantFoldsComposites) {
  auto v = EvaluateConstant(**ParseExpression("-(1 + 2) * 4"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int64(), -12);
  EXPECT_FALSE(EvaluateConstant(**ParseExpression("id + 1")).ok());
}

TEST(ExprEvalTest, FilterRowsExcludesNullAndFalse) {
  Catalog cat = MakeCatalog();
  auto t = *cat.Get("t");
  auto rows = FilterRows(**ParseExpression("score > 15"), *t);
  ASSERT_TRUE(rows.ok());
  // Rows 2 (20), 4 (40), 5 (50); row 3 (NULL) excluded.
  EXPECT_EQ(*rows, (std::vector<uint32_t>{1, 3, 4}));
  EXPECT_FALSE(FilterRows(**ParseExpression("id + 1"), *t).ok());
}

// --- Executor ---------------------------------------------------------------

TEST(ExecutorTest, SelectStarPreservesEverything) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(cat, "SELECT * FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 5u);
  EXPECT_EQ(result->num_columns(), 4u);
  EXPECT_EQ(result->schema().field(0).name, "id");
}

TEST(ExecutorTest, ProjectionWithExpressionsAndAliases) {
  Catalog cat = MakeCatalog();
  auto result =
      ExecuteQuery(cat, "SELECT id, score * 2 AS doubled FROM t WHERE id = 2");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->schema().field(1).name, "doubled");
  EXPECT_DOUBLE_EQ(result->GetValue(0, 1).dbl(), 40.0);
}

TEST(ExecutorTest, WhereFiltersAndNullsDrop) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(cat, "SELECT id FROM t WHERE score >= 20");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3u);  // NULL row excluded
}

TEST(ExecutorTest, GlobalAggregates) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT COUNT(*), COUNT(score), SUM(score), AVG(score), "
           "MIN(score), MAX(score) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->GetValue(0, 0).int64(), 5);   // COUNT(*)
  EXPECT_EQ(result->GetValue(0, 1).int64(), 4);   // COUNT skips NULL
  EXPECT_DOUBLE_EQ(result->GetValue(0, 2).dbl(), 120.0);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 3).dbl(), 30.0);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 4).dbl(), 10.0);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 5).dbl(), 50.0);
}

TEST(ExecutorTest, EmptyInputAggregates) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT COUNT(*), SUM(score) FROM t WHERE id > 100");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->GetValue(0, 0).int64(), 0);
  EXPECT_TRUE(result->GetValue(0, 1).is_null());  // SUM of nothing is NULL
}

TEST(ExecutorTest, GroupByWithHaving) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat,
      "SELECT tag, COUNT(*) AS n, AVG(score) AS mean FROM t "
      "GROUP BY tag HAVING COUNT(*) >= 2 ORDER BY tag");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->GetValue(0, 0).str(), "blue");
  EXPECT_EQ(result->GetValue(0, 1).int64(), 2);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 2).dbl(), 30.0);
  EXPECT_EQ(result->GetValue(1, 0).str(), "red");
  EXPECT_EQ(result->GetValue(1, 1).int64(), 3);
  EXPECT_DOUBLE_EQ(result->GetValue(1, 2).dbl(), 30.0);  // (10+50)/2
}

TEST(ExecutorTest, ExpressionsOverAggregates) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT SUM(score) / COUNT(score) AS manual_avg FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->GetValue(0, 0).dbl(), 30.0);
}

TEST(ExecutorTest, GroupByExpressionKey) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT id % 2 AS parity, COUNT(*) FROM t GROUP BY id % 2 "
           "ORDER BY parity");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->GetValue(0, 1).int64(), 2);  // ids 2, 4
  EXPECT_EQ(result->GetValue(1, 1).int64(), 3);  // ids 1, 3, 5
}

TEST(ExecutorTest, OrderByMultipleKeysAndLimit) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT id, tag FROM t ORDER BY tag ASC, id DESC LIMIT 3");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->GetValue(0, 0).int64(), 4);  // blue, id desc
  EXPECT_EQ(result->GetValue(1, 0).int64(), 2);
  EXPECT_EQ(result->GetValue(2, 0).int64(), 5);  // red starts
}

TEST(ExecutorTest, OrderByNullsLastAscending) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(cat, "SELECT id, score FROM t ORDER BY score");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->GetValue(4, 1).is_null());
  EXPECT_DOUBLE_EQ(result->GetValue(0, 1).dbl(), 10.0);
}

TEST(ExecutorTest, OrderByAliasFromSelectList) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT id, score * -1 AS neg FROM t WHERE score > 0 "
           "ORDER BY neg");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->GetValue(0, 0).int64(), 5);  // -50 smallest
}

TEST(ExecutorTest, LimitZeroAndOversized) {
  Catalog cat = MakeCatalog();
  auto zero = ExecuteQuery(cat, "SELECT id FROM t LIMIT 0");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->num_rows(), 0u);
  auto big = ExecuteQuery(cat, "SELECT id FROM t LIMIT 100");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->num_rows(), 5u);
}

TEST(ExecutorTest, PaperQueriesShapeCheck) {
  // The two motivating queries from §2, over a stand-in table.
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"source", DataType::kInt64, false},
              Field{"wavelength", DataType::kDouble, false},
              Field{"intensity", DataType::kDouble, false}}));
  for (int s = 1; s <= 50; ++s) {
    for (double w : {0.12, 0.14, 0.16}) {
      ASSERT_TRUE(t->AppendRow({Value::Int64(s), Value::Double(w),
                                Value::Double(s * w)})
                      .ok());
    }
  }
  cat.RegisterOrReplace("measurements", t);
  auto q1 = ExecuteQuery(cat,
                         "SELECT intensity FROM measurements WHERE source = "
                         "42 AND wavelength = 0.14");
  ASSERT_TRUE(q1.ok());
  ASSERT_EQ(q1->num_rows(), 1u);
  EXPECT_NEAR(q1->GetValue(0, 0).dbl(), 42 * 0.14, 1e-12);
  auto q2 = ExecuteQuery(cat,
                         "SELECT source, intensity FROM measurements WHERE "
                         "wavelength = 0.14 AND intensity > 3.0");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->num_rows(), 29u);  // sources 22..50
}

TEST(ExecutorTest, ErrorsPropagate) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteQuery(cat, "SELECT x FROM t").ok());
  EXPECT_FALSE(ExecuteQuery(cat, "SELECT id FROM missing").ok());
  EXPECT_FALSE(ExecuteQuery(cat, "SELECT * FROM t GROUP BY tag").ok());
  EXPECT_FALSE(ExecuteQuery(cat, "SELECT id FROM t WHERE score").ok());
}

// --- CASE expressions -----------------------------------------------------

TEST(CaseTest, SearchedCaseWithElse) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat,
      "SELECT id, CASE WHEN score >= 40 THEN 'high' WHEN score >= 20 THEN "
      "'mid' ELSE 'low' END AS band FROM t ORDER BY id");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->GetValue(0, 1).str(), "low");   // 10
  EXPECT_EQ(result->GetValue(1, 1).str(), "mid");   // 20
  EXPECT_EQ(result->GetValue(2, 1).str(), "low");   // NULL -> no WHEN, ELSE
  EXPECT_EQ(result->GetValue(3, 1).str(), "high");  // 40
  EXPECT_EQ(result->GetValue(4, 1).str(), "high");  // 50
}

TEST(CaseTest, MissingElseYieldsNull) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat,
      "SELECT CASE WHEN score > 45 THEN 1 END AS top FROM t ORDER BY id");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->GetValue(0, 0).is_null());
  EXPECT_EQ(result->GetValue(4, 0).int64(), 1);
}

TEST(CaseTest, NumericPromotionAndGroupedUse) {
  Catalog cat = MakeCatalog();
  // CASE inside an aggregate: count rows per condition (pivot idiom).
  auto result = ExecuteQuery(
      cat,
      "SELECT SUM(CASE WHEN tag = 'red' THEN 1 ELSE 0 END) AS reds, "
      "SUM(CASE WHEN tag = 'blue' THEN 1.0 ELSE 0.0 END) AS blues FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->GetValue(0, 0).dbl(), 3.0);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 1).dbl(), 2.0);
}

TEST(CaseTest, ValidationErrors) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteQuery(cat, "SELECT CASE END FROM t").ok());
  EXPECT_FALSE(
      ExecuteQuery(cat, "SELECT CASE WHEN id THEN 1 END FROM t").ok());
  EXPECT_FALSE(ExecuteQuery(cat,
                            "SELECT CASE WHEN ok THEN 'x' ELSE 1 END FROM t")
                   .ok());
  EXPECT_FALSE(
      ExecuteQuery(cat, "SELECT CASE WHEN ok THEN 1 FROM t").ok());
}

TEST(CaseTest, ToStringRoundTrips) {
  auto e = ParseExpression(
      "CASE WHEN a > 1 THEN 'x' WHEN a > 0 THEN 'y' ELSE 'z' END");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(),
            "CASE WHEN (a > 1) THEN 'x' WHEN (a > 0) THEN 'y' ELSE 'z' END");
  auto clone = (*e)->Clone();
  EXPECT_EQ(clone->ToString(), (*e)->ToString());
}

// --- VARIANCE / STDDEV -----------------------------------------------------

TEST(VarianceTest, GlobalAndGrouped) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT VARIANCE(score), STDDEV(score) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // scores 10, 20, 40, 50 (NULL skipped): mean 30, var = (400+100+100+400)/3.
  EXPECT_NEAR(result->GetValue(0, 0).dbl(), 1000.0 / 3.0, 1e-9);
  EXPECT_NEAR(result->GetValue(0, 1).dbl(), std::sqrt(1000.0 / 3.0), 1e-9);
  auto grouped = ExecuteQuery(
      cat,
      "SELECT tag, STDDEV(score) FROM t GROUP BY tag ORDER BY tag");
  ASSERT_TRUE(grouped.ok());
  // blue: 20, 40 -> sd = sqrt(200); red: 10, 50 -> sqrt(800).
  EXPECT_NEAR(grouped->GetValue(0, 1).dbl(), std::sqrt(200.0), 1e-9);
  EXPECT_NEAR(grouped->GetValue(1, 1).dbl(), std::sqrt(800.0), 1e-9);
}

TEST(VarianceTest, SingleValueIsNull) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT VARIANCE(score) FROM t WHERE id = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->GetValue(0, 0).is_null());
}

TEST(VarianceTest, AliasesParse) {
  Catalog cat = MakeCatalog();
  EXPECT_TRUE(ExecuteQuery(cat, "SELECT VAR_SAMP(score) FROM t").ok());
  EXPECT_TRUE(ExecuteQuery(cat, "SELECT STDDEV_SAMP(score) FROM t").ok());
}

// --- JOIN and DISTINCT -------------------------------------------------

/// Adds a small dimension table keyed by tag.
void AddDimension(Catalog* cat) {
  auto dim = std::make_shared<Table>(
      Schema({Field{"tag", DataType::kString, false},
              Field{"weight", DataType::kDouble, false}}));
  ASSERT_TRUE(
      dim->AppendRow({Value::String("red"), Value::Double(1.5)}).ok());
  ASSERT_TRUE(
      dim->AppendRow({Value::String("blue"), Value::Double(2.0)}).ok());
  ASSERT_TRUE(
      dim->AppendRow({Value::String("green"), Value::Double(9.0)}).ok());
  cat->RegisterOrReplace("dim", dim);
}

TEST(JoinTest, InnerEquiJoinBasics) {
  Catalog cat = MakeCatalog();
  AddDimension(&cat);
  auto result = ExecuteQuery(
      cat, "SELECT id, weight FROM t JOIN dim ON tag = tag ORDER BY id");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every t row has a matching dim row (red/blue both present).
  ASSERT_EQ(result->num_rows(), 5u);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 1).dbl(), 1.5);  // id 1 red
  EXPECT_DOUBLE_EQ(result->GetValue(1, 1).dbl(), 2.0);  // id 2 blue
}

TEST(JoinTest, CollidingColumnNamesArePrefixed) {
  Catalog cat = MakeCatalog();
  // Second table also has a column 'tag' plus its own 'id'.
  auto other = std::make_shared<Table>(
      Schema({Field{"tag", DataType::kString, false},
              Field{"id", DataType::kInt64, false}}));
  ASSERT_TRUE(
      other->AppendRow({Value::String("red"), Value::Int64(100)}).ok());
  cat.RegisterOrReplace("other", other);
  auto result = ExecuteQuery(
      cat, "SELECT id, other_id FROM t JOIN other ON tag = tag");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);  // three red rows in t
  EXPECT_EQ(result->GetValue(0, 1).int64(), 100);
}

TEST(JoinTest, JoinThenAggregate) {
  Catalog cat = MakeCatalog();
  AddDimension(&cat);
  auto result = ExecuteQuery(
      cat,
      "SELECT tag, SUM(score * weight) AS weighted FROM t JOIN dim ON tag "
      "= tag GROUP BY tag ORDER BY tag");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  // blue: (20+40)*2.0 = 120; red: (10+50)*1.5 = 90 (NULL score skipped).
  EXPECT_DOUBLE_EQ(result->GetValue(0, 1).dbl(), 120.0);
  EXPECT_DOUBLE_EQ(result->GetValue(1, 1).dbl(), 90.0);
}

TEST(JoinTest, NullKeysNeverMatch) {
  Catalog cat;
  auto a = std::make_shared<Table>(
      Schema({Field{"k", DataType::kInt64, true},
              Field{"v", DataType::kInt64, false}}));
  ASSERT_TRUE(a->AppendRow({Value::Int64(1), Value::Int64(10)}).ok());
  ASSERT_TRUE(a->AppendRow({Value::Null(), Value::Int64(20)}).ok());
  auto b = std::make_shared<Table>(
      Schema({Field{"kk", DataType::kInt64, true},
              Field{"w", DataType::kInt64, false}}));
  ASSERT_TRUE(b->AppendRow({Value::Int64(1), Value::Int64(100)}).ok());
  ASSERT_TRUE(b->AppendRow({Value::Null(), Value::Int64(200)}).ok());
  cat.RegisterOrReplace("a", a);
  cat.RegisterOrReplace("b", b);
  auto result = ExecuteQuery(cat, "SELECT v, w FROM a JOIN b ON k = kk");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);  // NULL = NULL does not match
  EXPECT_EQ(result->GetValue(0, 1).int64(), 100);
}

TEST(JoinTest, TypeMismatchAndMissingTableErrors) {
  Catalog cat = MakeCatalog();
  AddDimension(&cat);
  EXPECT_FALSE(
      ExecuteQuery(cat, "SELECT id FROM t JOIN dim ON id = tag").ok());
  EXPECT_FALSE(
      ExecuteQuery(cat, "SELECT id FROM t JOIN ghost ON tag = tag").ok());
  EXPECT_FALSE(ExecuteQuery(cat, "SELECT id FROM t JOIN dim").ok());
}

TEST(DistinctTest, DeduplicatesProjectedRows) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(cat, "SELECT DISTINCT tag FROM t ORDER BY tag");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->GetValue(0, 0).str(), "blue");
  EXPECT_EQ(result->GetValue(1, 0).str(), "red");
}

TEST(DistinctTest, DistinctWithLimitAppliesAfterDedup) {
  Catalog cat = MakeCatalog();
  auto result =
      ExecuteQuery(cat, "SELECT DISTINCT tag FROM t ORDER BY tag LIMIT 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->GetValue(0, 0).str(), "blue");
}

TEST(DistinctTest, DistinctOverExpression) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT DISTINCT id % 2 AS parity FROM t ORDER BY parity");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->GetValue(0, 0).int64(), 0);
  EXPECT_EQ(result->GetValue(1, 0).int64(), 1);
}

// --- EXPLAIN ---------------------------------------------------------------

TEST(ExplainTest, ShowsPipelineOutsideIn) {
  Catalog cat = MakeCatalog();
  auto plan = ExplainQuery(
      cat,
      "SELECT tag, COUNT(*) FROM t WHERE score > 5 GROUP BY tag "
      "HAVING COUNT(*) > 1 ORDER BY tag LIMIT 3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Outermost first, scan last; each operator once, in the statement's
  // own text.
  EXPECT_EQ(*plan,
            "Limit(3)\n"
            "  Project(tag, COUNT(*))\n"
            "    Sort(tag ASC | top 3)\n"
            "      Filter[having]((COUNT(*) > 1))\n"
            "        HashAggregate(tag)\n"
            "          Filter((score > 5))\n"
            "            Scan(t, 5 rows)\n");
}

TEST(ExplainTest, JoinAndDistinctAppear) {
  Catalog cat = MakeCatalog();
  AddDimension(&cat);
  auto plan = ExplainQuery(
      cat, "SELECT DISTINCT id FROM t JOIN dim ON tag = tag");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Distinct"), std::string::npos);
  EXPECT_NE(plan->find("HashJoin"), std::string::npos);
  EXPECT_NE(plan->find("tag = tag"), std::string::npos);
  EXPECT_FALSE(ExplainQuery(cat, "SELECT x FROM missing").ok());
}

/// One operator of an EXPLAIN text or of a trace: its name and detail.
struct PlanLine {
  std::string name;
  std::string detail;
};

/// EXPLAIN's lines, outermost first: `name` or `name(detail)`, indented.
std::vector<PlanLine> ParseExplain(const std::string& text) {
  std::vector<PlanLine> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    line.erase(0, line.find_first_not_of(' '));
    const size_t open = line.find('(');
    if (open == std::string::npos) {
      out.push_back({line, ""});
    } else {
      out.push_back(
          {line.substr(0, open), line.substr(open + 1, line.size() - open - 2)});
    }
  }
  return out;
}

// EXPLAIN prints the plan the executor runs: the operators EXPLAIN
// ANALYZE's spans record, outermost first where the spans run innermost
// first, and each EXPLAIN detail starts the span's detail (the scan's
// EXPLAIN line carries the table's row count instead).
TEST(ExplainTest, PrintsTheOperatorsTheExecutorRuns) {
  Catalog cat = MakeCatalog();
  auto pairs = std::make_shared<Table>(
      Schema({Field{"tag", DataType::kString, false},
              Field{"id", DataType::kInt64, false},
              Field{"weight", DataType::kDouble, false}}));
  ASSERT_TRUE(pairs->AppendRow({Value::String("red"), Value::Int64(1),
                                Value::Double(1.5)})
                  .ok());
  ASSERT_TRUE(pairs->AppendRow({Value::String("blue"), Value::Int64(2),
                                Value::Double(2.0)})
                  .ok());
  cat.RegisterOrReplace("pairs", pairs);
  const char* kStatements[] = {
      "SELECT id, score FROM t WHERE score > 15",
      "SELECT id, weight FROM t JOIN pairs ON tag = tag AND id = id",
      "SELECT tag, COUNT(*) AS n FROM t WHERE ok GROUP BY tag "
      "HAVING n > 1 ORDER BY n DESC LIMIT 5",
      "SELECT id, score FROM t ORDER BY score DESC LIMIT 2",
      "SELECT id + 1 AS next FROM t ORDER BY score DESC LIMIT 2",
      "SELECT DISTINCT tag FROM t",
      "SELECT * FROM t",
      "SELECT COUNT(*), AVG(score) FROM t",
  };
  for (const char* sql : kStatements) {
    SCOPED_TRACE(sql);
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto plan = ExplainSelect(cat, *stmt);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->find("__"), std::string::npos) << *plan;
    TraceSink sink;
    auto result = ExecuteSelect(cat, *stmt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<PlanLine> lines = ParseExplain(*plan);
    const std::vector<SpanRecord>& spans = sink.spans();
    ASSERT_EQ(lines.size(), spans.size()) << *plan << sink.Render();
    for (size_t i = 0; i < spans.size(); ++i) {
      const PlanLine& line = lines[lines.size() - 1 - i];
      EXPECT_EQ(line.name, spans[i].name) << *plan << sink.Render();
      if (line.name == "Scan") continue;
      EXPECT_EQ(spans[i].detail.rfind(line.detail, 0), 0u)
          << "EXPLAIN: " << line.detail << "\nspan: " << spans[i].detail;
    }
  }
  // A statement the planner rejects fails EXPLAIN with the same error.
  const std::string bad = "SELECT * FROM t GROUP BY tag";
  auto explained = ExplainQuery(cat, bad);
  ASSERT_FALSE(explained.ok());
  EXPECT_EQ(explained.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(explained.status().ToString(),
            ExecuteQuery(cat, bad).status().ToString());
}

TEST(ExecutorTest, CountStarOnEmptyGroupedInputYieldsNoRows) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat, "SELECT tag, COUNT(*) FROM t WHERE id > 99 GROUP BY tag");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

// An operator that evaluates a computed expression under a WHERE gathers
// only the columns it reads at the selection and runs the VM on those
// rows: a row the WHERE excludes cannot raise an error, and a selected
// row raises the error it raises without the WHERE. Computed aggregate
// arguments, group keys, sort keys (top-k and full) and projections all
// take that path; the answers equal the reference oracle's at 1 and 4
// lanes over 200,000 rows.
TEST(ExecutorTest, ComputedExpressionsUnderWhereSeeOnlySelectedRows) {
  auto t = std::make_shared<Table>(
      Schema({Field{"id", DataType::kInt64, false},
              Field{"x", DataType::kInt64, false},
              Field{"g", DataType::kString, false}}));
  for (int64_t r = 0; r < 200000; ++r) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(r), Value::Int64(r % 5 - 2),
                              Value::String(r % 3 == 0 ? "a" : "b")})
                    .ok());
  }
  Catalog cat;
  cat.RegisterOrReplace("z", t);
  const char* fine[] = {
      "SELECT SUM(1 / x), AVG(10 / x), COUNT(*) FROM z WHERE x <> 0",
      "SELECT g, SUM(id / x), MAX(x) FROM z WHERE x <> 0 GROUP BY g",
      "SELECT 12 / x AS q, COUNT(*) FROM z WHERE x <> 0 GROUP BY 12 / x",
      "SELECT id, g FROM z WHERE x <> 0 ORDER BY 1.0 / x DESC, id LIMIT 5",
      "SELECT id FROM z WHERE x <> 0 AND id < 1000 ORDER BY 6 / x, id",
      "SELECT id, 100 / x FROM z WHERE x <> 0 AND id % 7 = 1",
      "SELECT g, COUNT(*) FROM z WHERE x <> 0 GROUP BY g "
      "HAVING SUM(1 / x) > -1000",
  };
  for (const char* sql : fine) {
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const testing::OracleResult want = testing::OracleExecuteSelect(cat, *stmt);
    ASSERT_TRUE(want.status.ok()) << sql << ": " << want.status.ToString();
    for (size_t lanes : {size_t{1}, size_t{4}}) {
      ThreadPool::SetGlobalThreadCount(lanes);
      auto got = ExecuteSelect(cat, *stmt);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      std::string why;
      EXPECT_TRUE(testing::TablesEquivalent(want.table, *got,
                                            /*order_sensitive=*/true, &why))
          << sql << " at " << lanes << " lanes: " << why;
    }
  }
  ThreadPool::SetGlobalThreadCount(0);
  // The same expressions over selections that keep x = 0 rows.
  const std::pair<const char*, const char*> failing[] = {
      {"SELECT SUM(1 / x) FROM z WHERE x >= 0", "SELECT SUM(1 / x) FROM z"},
      {"SELECT 12 / x AS q, COUNT(*) FROM z WHERE id > 5 GROUP BY 12 / x",
       "SELECT 12 / x AS q, COUNT(*) FROM z GROUP BY 12 / x"},
      {"SELECT id FROM z WHERE x <= 0 ORDER BY 1.0 / x LIMIT 5",
       "SELECT id FROM z ORDER BY 1.0 / x LIMIT 5"},
      {"SELECT 100 / x FROM z WHERE id % 5 = 2",
       "SELECT 100 / x FROM z"},
  };
  for (const auto& [sql, unfiltered] : failing) {
    auto got = ExecuteQuery(cat, sql);
    ASSERT_FALSE(got.ok()) << sql;
    EXPECT_EQ(got.status().code(), StatusCode::kNumericError) << sql;
    EXPECT_EQ(got.status().ToString(),
              ExecuteQuery(cat, unfiltered).status().ToString())
        << sql;
  }
}

// --- NaN ordering, grouping and aggregation ----------------------------
//
// NaN values are reachable through CSV import and the fused gather's NaN
// domain sentinels, so the executor must give them a total order (numbers
// < NaN < NULL ascending) and a single GROUP BY identity. These tests pin
// that contract; the ordering ones fail on a comparator that returns the
// same sign for NaN compared in either direction.

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// id | v                      (v nullable double, NaN in two sign forms)
Catalog MakeNanCatalog() {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"id", DataType::kInt64, false},
              Field{"v", DataType::kDouble, true}}));
  auto add = [&](int64_t id, Value v) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(id), std::move(v)}).ok());
  };
  const double neg_nan = std::copysign(kNan, -1.0);
  add(1, Value::Double(3.0));
  add(2, Value::Double(kNan));
  add(3, Value::Double(1.0));
  add(4, Value::Null());
  add(5, Value::Double(2.0));
  add(6, Value::Double(neg_nan));
  cat.RegisterOrReplace("n", t);
  return cat;
}

TEST(NanOrderTest, AscendingNumbersThenNanThenNull) {
  Catalog cat = MakeNanCatalog();
  auto result = ExecuteQuery(cat, "SELECT id, v FROM n ORDER BY v");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 6u);
  // 1.0, 2.0, 3.0, NaN, NaN (stable: id 2 before id 6), NULL.
  EXPECT_EQ(result->GetValue(0, 0).int64(), 3);
  EXPECT_EQ(result->GetValue(1, 0).int64(), 5);
  EXPECT_EQ(result->GetValue(2, 0).int64(), 1);
  EXPECT_EQ(result->GetValue(3, 0).int64(), 2);
  EXPECT_EQ(result->GetValue(4, 0).int64(), 6);
  EXPECT_EQ(result->GetValue(5, 0).int64(), 4);
  EXPECT_TRUE(std::isnan(result->GetValue(3, 1).dbl()));
  EXPECT_TRUE(result->GetValue(5, 1).is_null());
}

TEST(NanOrderTest, DescendingNullThenNanThenNumbers) {
  Catalog cat = MakeNanCatalog();
  auto result = ExecuteQuery(cat, "SELECT id FROM n ORDER BY v DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 6u);
  // DESC is the exact reversal of the total order, except ties keep their
  // stable (table) order: NULL, NaN (id 2 then 6), 3.0, 2.0, 1.0.
  EXPECT_EQ(result->GetValue(0, 0).int64(), 4);
  EXPECT_EQ(result->GetValue(1, 0).int64(), 2);
  EXPECT_EQ(result->GetValue(2, 0).int64(), 6);
  EXPECT_EQ(result->GetValue(3, 0).int64(), 1);
  EXPECT_EQ(result->GetValue(4, 0).int64(), 5);
  EXPECT_EQ(result->GetValue(5, 0).int64(), 3);
}

TEST(NanOrderTest, MultiKeySortWithNanInSecondaryKey) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"g", DataType::kInt64, false},
              Field{"v", DataType::kDouble, true},
              Field{"id", DataType::kInt64, false}}));
  auto add = [&](int64_t g, Value v, int64_t id) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int64(g), std::move(v), Value::Int64(id)}).ok());
  };
  add(2, Value::Double(kNan), 1);
  add(1, Value::Double(5.0), 2);
  add(2, Value::Double(4.0), 3);
  add(1, Value::Double(kNan), 4);
  add(1, Value::Null(), 5);
  add(2, Value::Double(6.0), 6);
  cat.RegisterOrReplace("m", t);
  auto result =
      ExecuteQuery(cat, "SELECT id FROM m ORDER BY g ASC, v DESC, id ASC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // g=1: NULL, NaN, 5.0 -> ids 5, 4, 2; g=2: NaN, 6.0, 4.0 -> ids 1, 6, 3.
  const int64_t expect[] = {5, 4, 2, 1, 6, 3};
  ASSERT_EQ(result->num_rows(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result->GetValue(i, 0).int64(), expect[i]) << "row " << i;
  }
}

TEST(NanOrderTest, ComparatorIsATotalOrder) {
  const Value nan = Value::Double(kNan);
  const Value neg_nan = Value::Double(std::copysign(kNan, -1.0));
  const Value one = Value::Double(1.0);
  const Value null = Value::Null();
  // numbers < NaN < NULL, NaN == NaN regardless of bit pattern.
  EXPECT_EQ(CompareOrderValues(one, nan), -1);
  EXPECT_EQ(CompareOrderValues(nan, one), 1);
  EXPECT_EQ(CompareOrderValues(nan, neg_nan), 0);
  EXPECT_EQ(CompareOrderValues(nan, null), -1);
  EXPECT_EQ(CompareOrderValues(null, nan), 1);
  EXPECT_EQ(CompareOrderValues(null, null), 0);
  // int64/bool coerce to double for cross-type numeric comparison.
  EXPECT_EQ(CompareOrderValues(Value::Int64(2), Value::Double(1.5)), 1);
  EXPECT_EQ(CompareOrderValues(Value::Bool(true), Value::Int64(1)), 0);
}

TEST(NanOrderTest, StringsRankAfterNumbersAndNanBeforeNull) {
  // A string has no numeric order against a number; the comparator still
  // ranks the families (numbers < NaN < strings < NULL) so the order stays
  // total and transitive. The comparator used to return 0 ("equal") when
  // AsDouble() failed, silently sorting such keys as ties.
  EXPECT_EQ(CompareOrderValues(Value::Double(1.0), Value::String("a")), -1);
  EXPECT_EQ(CompareOrderValues(Value::String("a"), Value::Double(1.0)), 1);
  EXPECT_EQ(CompareOrderValues(Value::String("a"), Value::String("b")), -1);
  EXPECT_EQ(CompareOrderValues(Value::String("a"), Value::Null()), -1);
  EXPECT_EQ(CompareOrderValues(Value::Double(kNan), Value::String("a")), -1);
}

TEST(GroupByNanTest, AllNanBitPatternsFormOneGroup) {
  Catalog cat = MakeNanCatalog();  // two NaNs with opposite sign bits
  auto result =
      ExecuteQuery(cat, "SELECT v, COUNT(v) AS c FROM n GROUP BY v");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Groups: 3.0, 1.0, 2.0, NaN (both rows), NULL — never one group per
  // NaN row and never split by the sign bit ("nan" vs "-nan").
  EXPECT_EQ(result->num_rows(), 5u);
  size_t nan_groups = 0;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    const Value key = result->GetValue(r, 0);
    if (key.is_double() && std::isnan(key.dbl())) {
      ++nan_groups;
      EXPECT_EQ(result->GetValue(r, 1).int64(), 2);
    }
  }
  EXPECT_EQ(nan_groups, 1u);
}

TEST(GroupByNanTest, NegativeZeroFoldsIntoPositiveZero) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"v", DataType::kDouble, false}}));
  ASSERT_TRUE(t->AppendRow({Value::Double(-0.0)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Double(0.0)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Double(1.0)}).ok());
  cat.RegisterOrReplace("z", t);
  auto result =
      ExecuteQuery(cat, "SELECT v, COUNT(v) AS c FROM z GROUP BY v");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // -0.0 == 0.0, so they must share a group (and the emitted key must be
  // the canonical +0.0, not a first-seen "-0").
  ASSERT_EQ(result->num_rows(), 2u);
  bool saw_zero = false;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    const double key = result->GetValue(r, 0).dbl();
    if (key == 0.0) {
      saw_zero = true;
      EXPECT_FALSE(std::signbit(key));
      EXPECT_EQ(result->GetValue(r, 1).int64(), 2);
    }
  }
  EXPECT_TRUE(saw_zero);
}

TEST(NanAggregateTest, MinMaxSkipNanWhileSumAvgVariancePoison) {
  // Pinned semantics (documented in DESIGN.md "Observability" / README):
  // MIN/MAX ignore NaN — a NaN never wins an ordered comparison, so the
  // extrema of the non-NaN values are returned; SUM/AVG/VARIANCE/STDDEV
  // propagate NaN (the arithmetic poisons), and COUNT counts NaN as a
  // present (non-NULL) value.
  Catalog cat = MakeNanCatalog();
  auto result = ExecuteQuery(
      cat,
      "SELECT MIN(v), MAX(v), AVG(v), SUM(v), COUNT(v), STDDEV(v) FROM n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 0).dbl(), 1.0);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 1).dbl(), 3.0);
  EXPECT_TRUE(std::isnan(result->GetValue(0, 2).dbl()));
  EXPECT_TRUE(std::isnan(result->GetValue(0, 3).dbl()));
  EXPECT_EQ(result->GetValue(0, 4).int64(), 5);  // 5 non-NULL, 2 of them NaN
  EXPECT_TRUE(std::isnan(result->GetValue(0, 5).dbl()));
}

TEST(NanAggregateTest, NanFirstDoesNotPoisonMinMax) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"v", DataType::kDouble, false}}));
  ASSERT_TRUE(t->AppendRow({Value::Double(kNan)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Double(5.0)}).ok());
  cat.RegisterOrReplace("w", t);
  auto result = ExecuteQuery(cat, "SELECT MIN(v), MAX(v) FROM w");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->GetValue(0, 0).dbl(), 5.0);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 1).dbl(), 5.0);
}

// --- EXPLAIN ANALYZE ---------------------------------------------------

TEST(ExplainAnalyzeTest, RendersStageTreeWithRowsAndTimings) {
  Catalog cat = MakeNanCatalog();
  auto text = ExplainAnalyzeQuery(
      cat, "SELECT v, COUNT(id) FROM n WHERE id > 1 GROUP BY v ORDER BY v");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // Every executed stage appears with measured rows and wall time. The
  // two NaN rows (ids 2 and 6) canonicalize into one group: 5 input rows
  // -> groups {1.0, 2.0, NaN, NULL}.
  EXPECT_NE(text->find("Parse"), std::string::npos);
  EXPECT_NE(text->find("Scan  rows=6->6"), std::string::npos);
  // The filter stage carries its compiled bytecode program (§13).
  EXPECT_NE(text->find("Filter((id > 1) | bytecode: "), std::string::npos);
  EXPECT_NE(text->find("cmpgt.f64"), std::string::npos);
  EXPECT_NE(text->find("rows=6->5"), std::string::npos);
  // The aggregate names the grouping that ran.
  EXPECT_NE(text->find("HashAggregate(v | 4 groups in 64 partitions)  "
                       "rows=5->4"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("Sort(v ASC | full)  rows=4->4"), std::string::npos);
  EXPECT_NE(text->find("time="), std::string::npos);
  // Expression-engine accounting rides below the tree.
  EXPECT_NE(text->find("expr: compiled="), std::string::npos);
  EXPECT_NE(text->find(" batches="), std::string::npos);
  EXPECT_NE(text->find("4 rows in"), std::string::npos);
}

TEST(ExplainAnalyzeTest, AggregateNamesTheGroupingThatRan) {
  Catalog cat = MakeNanCatalog();
  // Without GROUP BY the statement is one group and nothing is hashed.
  auto global = ExplainAnalyzeQuery(cat, "SELECT COUNT(*) FROM n WHERE id > 1");
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  EXPECT_NE(global->find("HashAggregate(<global> | one group)  rows=5->1"),
            std::string::npos)
      << *global;
  // DISTINCT rides on the same grouping: NaN rows are one class.
  auto distinct = ExplainAnalyzeQuery(cat, "SELECT DISTINCT v FROM n");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_NE(distinct->find("Distinct  rows=6->5"), std::string::npos)
      << *distinct;
}

// The filter's morsels count their batches and the calling thread adds
// the sum once, so EXPLAIN ANALYZE prints the serial count at any lane
// count: 200,000 rows are 196 batches of 1,024, and the projection over
// the aggregate's one row compiles a second program and runs one more.
TEST(ExplainAnalyzeTest, FilterBatchCountIsTheSameAtOneAndFourLanes) {
  constexpr size_t kRows = 200000;
  std::vector<int64_t> ids(kRows);
  for (size_t i = 0; i < kRows; ++i) ids[i] = static_cast<int64_t>(i);
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64Vector(std::move(ids)));
  auto table = Table::FromColumns(
      Schema({Field{"id", DataType::kInt64, false}}), std::move(cols));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Catalog cat;
  cat.RegisterOrReplace("m", std::make_shared<Table>(std::move(*table)));
  // The zone maps decline `%`, so the VM evaluates every row.
  const char* sql = "SELECT COUNT(*) FROM m WHERE id % 7 = 3";
  auto expr_line = [&](size_t lanes) {
    ThreadPool::SetGlobalThreadCount(lanes);
    auto text = ExplainAnalyzeQuery(cat, sql);
    ThreadPool::SetGlobalThreadCount(0);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    if (!text.ok()) return std::string();
    const size_t at = text->find("expr: compiled=");
    EXPECT_NE(at, std::string::npos) << *text;
    if (at == std::string::npos) return std::string();
    return text->substr(at, text->find('\n', at) - at);
  };
  const std::string one = expr_line(1);
  EXPECT_EQ(one, "expr: compiled=2 batches=197");
  EXPECT_EQ(expr_line(4), one);
}

TEST(ExplainAnalyzeTest, ReportsErrorsInsteadOfATree) {
  Catalog cat = MakeNanCatalog();
  auto text = ExplainAnalyzeQuery(cat, "SELECT v FROM missing_table");
  EXPECT_FALSE(text.ok());
}

// --- Integer edges (differential-harness satellites) --------------------

TEST(IntegerEdgeTest, ArithmeticOverflowErrorsInsteadOfWrapping) {
  Catalog cat = MakeCatalog();
  for (const char* sql : {
           "SELECT 9223372036854775807 + 1 FROM t",
           "SELECT -(9223372036854775807) - 2 FROM t",
           "SELECT 4611686018427387904 * 2 FROM t",
           "SELECT -(-(9223372036854775807) - 1) FROM t",            // -MIN
           "SELECT abs(-(9223372036854775807) - 1) FROM t",          // |MIN|
       }) {
    auto result = ExecuteQuery(cat, sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kNumericError) << sql;
  }
  // Non-overflowing neighbors still work, and stay INT64.
  auto ok = ExecuteQuery(
      cat, "SELECT 9223372036854775806 + 1 FROM t LIMIT 1");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->GetValue(0, 0).int64(),
            std::numeric_limits<int64_t>::max());
  // INT64_MIN % -1 is defined as 0 (the mathematical remainder), not a
  // hardware trap.
  auto rem = ExecuteQuery(
      cat, "SELECT (-(9223372036854775807) - 1) % -(1) FROM t LIMIT 1");
  ASSERT_TRUE(rem.ok()) << rem.status().ToString();
  EXPECT_EQ(rem->GetValue(0, 0).int64(), 0);
}

TEST(IntegerEdgeTest, IntDoubleComparisonCoercesThroughDoubleAt2Pow53) {
  Catalog cat = MakeCatalog();
  // 2^53 + 1 is not representable as a double; the coercion rounds it to
  // 2^53, so the comparison sees equal values. Pinned semantics: mixed
  // INT64/DOUBLE comparisons go through double, precision loss included.
  auto result = ExecuteQuery(
      cat,
      "SELECT 9007199254740993 = 9007199254740992.0, "
      "9007199254740993 > 9007199254740992.0 FROM t LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->GetValue(0, 0).boolean());
  EXPECT_FALSE(result->GetValue(0, 1).boolean());
  // INT64-INT64 comparisons take the same coercion path, so they share
  // the 2^53 horizon — pinned so the reference oracle can mirror it.
  auto exact = ExecuteQuery(
      cat, "SELECT 9007199254740993 = 9007199254740992 FROM t LIMIT 1");
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->GetValue(0, 0).boolean());
  // Below the horizon, INT64 comparisons are exact.
  auto below = ExecuteQuery(
      cat, "SELECT 9007199254740991 = 9007199254740990 FROM t LIMIT 1");
  ASSERT_TRUE(below.ok());
  EXPECT_FALSE(below->GetValue(0, 0).boolean());
}

// --- NaN through conditional functions ----------------------------------

TEST(NanConditionalTest, CoalesceAndNullifTreatNanAsAValue) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"d", DataType::kDouble, true}}));
  ASSERT_TRUE(t->AppendRow({Value::Double(kNan)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Null()}).ok());
  cat.RegisterOrReplace("c", t);
  // NaN is non-NULL: COALESCE keeps it. NULLIF(NaN, NaN) compares with
  // =, where NaN equals nothing — so the NaN survives.
  auto result = ExecuteQuery(
      cat, "SELECT COALESCE(d, 7.0), NULLIF(d, d), NULLIF(d, 0.0) FROM c");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_TRUE(std::isnan(result->GetValue(0, 0).dbl()));
  EXPECT_TRUE(std::isnan(result->GetValue(0, 1).dbl()));
  EXPECT_TRUE(std::isnan(result->GetValue(0, 2).dbl()));
  EXPECT_DOUBLE_EQ(result->GetValue(1, 0).dbl(), 7.0);
  EXPECT_TRUE(result->GetValue(1, 1).is_null());
  EXPECT_TRUE(result->GetValue(1, 2).is_null());
}

TEST(HavingTest, UnaggregatedColumnInHavingErrorsNotCrashes) {
  Catalog cat = MakeCatalog();
  // `score` is neither a group key nor inside an aggregate; after the
  // aggregate rewrite it names no intermediate column. Must be a clean
  // error, never UB or a crash.
  auto result = ExecuteQuery(
      cat, "SELECT tag, COUNT(*) FROM t GROUP BY tag HAVING score > 10");
  EXPECT_FALSE(result.ok());
}

// --- Regressions found by the differential harness ----------------------

/// Before the canonical binary key encoding, group/distinct/join keys were
/// built by joining cell texts with '|' — so ('x|', 'y') and ('x', '|y')
/// collided into one group, and a string cell "NULL" collided with SQL
/// NULL.
TEST(KeyEncodingRegressionTest, SeparatorInStringsDoesNotMergeGroups) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"a", DataType::kString, false},
              Field{"b", DataType::kString, false}}));
  ASSERT_TRUE(t->AppendRow({Value::String("x|"), Value::String("y")}).ok());
  ASSERT_TRUE(t->AppendRow({Value::String("x"), Value::String("|y")}).ok());
  cat.RegisterOrReplace("s", t);
  auto grouped =
      ExecuteQuery(cat, "SELECT a, b, COUNT(*) FROM s GROUP BY a, b");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->num_rows(), 2u);
  auto distinct = ExecuteQuery(cat, "SELECT DISTINCT a, b FROM s");
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->num_rows(), 2u);
}

TEST(KeyEncodingRegressionTest, StringNullLiteralIsNotSqlNull) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"s", DataType::kString, true}}));
  ASSERT_TRUE(t->AppendRow({Value::String("NULL")}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Null()}).ok());
  cat.RegisterOrReplace("q", t);
  auto result = ExecuteQuery(cat, "SELECT s, COUNT(*) FROM q GROUP BY s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 2u);
}

/// Join keys used the same text encoding: two NaN cells rendered as "nan"
/// and (incorrectly) matched, while -0.0 vs +0.0 rendered differently and
/// (incorrectly) failed to match. SQL `=` semantics: NaN matches nothing,
/// signed zeros are equal.
TEST(JoinKeyRegressionTest, NanNeverMatchesAndSignedZerosDo) {
  Catalog cat;
  auto l = std::make_shared<Table>(
      Schema({Field{"k", DataType::kDouble, true}}));
  auto r = std::make_shared<Table>(
      Schema({Field{"j", DataType::kDouble, true}}));
  ASSERT_TRUE(l->AppendRow({Value::Double(kNan)}).ok());
  ASSERT_TRUE(l->AppendRow({Value::Double(0.0)}).ok());
  ASSERT_TRUE(l->AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(r->AppendRow({Value::Double(kNan)}).ok());
  ASSERT_TRUE(r->AppendRow({Value::Double(-0.0)}).ok());
  ASSERT_TRUE(r->AppendRow({Value::Null()}).ok());
  cat.RegisterOrReplace("l", l);
  cat.RegisterOrReplace("r", r);
  auto result = ExecuteQuery(cat, "SELECT k, j FROM l JOIN r ON k = j");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Only 0.0 = -0.0 joins; NaN and NULL keys never match anything.
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 0).dbl(), 0.0);
}

/// MIN/MAX skip NaN, but a group containing *only* NaN used to leak the
/// +/-infinity accumulator seeds into the result.
TEST(NanAggregateTest, AllNanGroupYieldsNanNotInfinity) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"v", DataType::kDouble, false}}));
  ASSERT_TRUE(t->AppendRow({Value::Double(kNan)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Double(kNan)}).ok());
  cat.RegisterOrReplace("g", t);
  auto result = ExecuteQuery(cat, "SELECT MIN(v), MAX(v) FROM g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(std::isnan(result->GetValue(0, 0).dbl()));
  EXPECT_TRUE(std::isnan(result->GetValue(0, 1).dbl()));
}

/// COALESCE/CASE with a BOOL/INT64 branch mix used to type the output
/// after the first branch while reading another branch's backing vector —
/// an out-of-bounds read under ASan. The family mix now unifies to
/// DOUBLE like every other numeric promotion.
TEST(TypeUnificationRegressionTest, CoalesceAndCaseUnifyBoolIntToDouble) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteQuery(
      cat,
      "SELECT COALESCE(ok, id), CASE WHEN ok THEN id ELSE ok END "
      "FROM t ORDER BY id LIMIT 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Row 1: ok=true -> 1.0; CASE takes id -> 1.0.
  EXPECT_DOUBLE_EQ(result->GetValue(0, 0).dbl(), 1.0);
  EXPECT_DOUBLE_EQ(result->GetValue(0, 1).dbl(), 1.0);
  // Row 2: ok=false -> 0.0; CASE takes ELSE ok -> 0.0.
  EXPECT_DOUBLE_EQ(result->GetValue(1, 0).dbl(), 0.0);
  EXPECT_DOUBLE_EQ(result->GetValue(1, 1).dbl(), 0.0);
}

/// SUM/AVG/VARIANCE/STDDEV over a string column used to fail only when a
/// non-NULL row was actually swept (data-dependent). The check is now a
/// deterministic planning-time type error, matching the oracle.
TEST(TypeUnificationRegressionTest, NumericAggregateOverStringAlwaysErrors) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"s", DataType::kString, true}}));
  // All-NULL column: no string value is ever swept.
  ASSERT_TRUE(t->AppendRow({Value::Null()}).ok());
  cat.RegisterOrReplace("e", t);
  for (const char* sql :
       {"SELECT SUM(s) FROM e", "SELECT AVG(s) FROM e",
        "SELECT VARIANCE(s) FROM e", "SELECT STDDEV(s) FROM e"}) {
    auto result = ExecuteQuery(cat, sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kTypeMismatch) << sql;
  }
  // MIN/MAX over strings stay legal.
  auto ok = ExecuteQuery(cat, "SELECT MIN(s), MAX(s) FROM e");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// --- ORDER BY over normalized keys, and top-k ORDER BY ... LIMIT ----------

constexpr int64_t k2Pow53 = int64_t{1} << 53;

/// Twelve rows salted with every ordering edge (DESIGN.md §11):
///   id  INT64 NOT NULL  row id, 0..11
///   d   DOUBLE          NaN of both signs, NULL, +0.0 and -0.0, repeats
///   i   INT64           2^53 and 2^53 + 1 (equal as doubles), 2^53 - 1
///   b   BOOL            true/false/NULL
///   s   STRING          dictionary (insertion) order != text order
Catalog MakeOrderEdgeCatalog() {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"id", DataType::kInt64, false},
              Field{"d", DataType::kDouble, true},
              Field{"i", DataType::kInt64, true},
              Field{"b", DataType::kBool, true},
              Field{"s", DataType::kString, true}}));
  const double neg_nan = std::copysign(kNan, -1.0);
  const Value null = Value::Null();
  const std::vector<std::vector<Value>> rows = {
      {Value::Double(kNan), Value::Int64(k2Pow53 + 1), Value::Bool(true),
       Value::String("zeta")},
      {Value::Double(-0.0), Value::Int64(k2Pow53), Value::Bool(false),
       Value::String("alpha")},
      {null, Value::Int64(k2Pow53 - 1), null, Value::String("Beta")},
      {Value::Double(1.5), Value::Int64(k2Pow53 + 1), Value::Bool(true), null},
      {Value::Double(0.0), null, Value::Bool(false), Value::String("")},
      {Value::Double(neg_nan), Value::Int64(k2Pow53), Value::Bool(true),
       Value::String("alpha")},
      {Value::Double(-2.0), Value::Int64(-3), null, Value::String("mid")},
      {Value::Double(-0.0), Value::Int64(k2Pow53 + 1), Value::Bool(false),
       Value::String("zeta")},
      {null, Value::Int64(k2Pow53), Value::Bool(true), Value::String("")},
      {Value::Double(1.5), null, Value::Bool(false), Value::String("Beta")},
      {Value::Double(kNan), Value::Int64(-3), Value::Bool(true), null},
      {Value::Double(0.0), Value::Int64(k2Pow53 - 1), null,
       Value::String("alpha")},
  };
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<Value> row = {Value::Int64(static_cast<int64_t>(r))};
    row.insert(row.end(), rows[r].begin(), rows[r].end());
    EXPECT_TRUE(t->AppendRow(row).ok());
  }
  cat.RegisterOrReplace("k", t);
  return cat;
}

/// `n` rows shaped like MakeOrderEdgeCatalog's, whose keys repeat a few
/// edge values: NaN of both signs, ±0.0 and NULL doubles; 2^53 - 1, 2^53,
/// 2^53 + 1, -3 and NULL integers; NULL booleans; a handful of
/// dictionary strings. Ties therefore straddle every chunk boundary of
/// the lane top-k.
Catalog MakeTiedOrderCatalog(size_t n) {
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"id", DataType::kInt64, false},
              Field{"d", DataType::kDouble, true},
              Field{"i", DataType::kInt64, true},
              Field{"b", DataType::kBool, true},
              Field{"s", DataType::kString, true}}));
  const Value null = Value::Null();
  const Value doubles[] = {Value::Double(kNan),
                           Value::Double(std::copysign(kNan, -1.0)),
                           Value::Double(0.0),
                           Value::Double(-0.0),
                           Value::Double(1.5),
                           Value::Double(-2.0),
                           null};
  const Value ints[] = {Value::Int64(k2Pow53 - 1), Value::Int64(k2Pow53),
                        Value::Int64(k2Pow53 + 1), Value::Int64(-3), null};
  const Value bools[] = {Value::Bool(true), Value::Bool(false), null};
  const Value strings[] = {Value::String("zeta"), Value::String("alpha"),
                           Value::String("Beta"), Value::String(""), null};
  uint64_t state = 12345;
  const auto pick = [&state](size_t size) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<size_t>((state >> 33) % size);
  };
  for (size_t r = 0; r < n; ++r) {
    EXPECT_TRUE(t->AppendRow({Value::Int64(static_cast<int64_t>(r)),
                              doubles[pick(7)], ints[pick(5)], bools[pick(3)],
                              strings[pick(5)]})
                    .ok());
  }
  cat.RegisterOrReplace("t", t);
  return cat;
}

std::vector<int64_t> ColumnInts(const Table& t, size_t col) {
  std::vector<int64_t> out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out.push_back(t.GetValue(r, col).int64());
  }
  return out;
}

TEST(OrderByTest, FullSortMatchesStableSortOverCompareOrderValues) {
  Catalog cat = MakeOrderEdgeCatalog();
  TablePtr table = *cat.Get("k");
  const struct {
    const char* order_by;
    std::vector<std::pair<size_t, bool>> keys;  // column, ascending
  } cases[] = {
      {"d", {{1, true}}},
      {"d DESC", {{1, false}}},
      {"i", {{2, true}}},
      {"i DESC", {{2, false}}},
      {"b", {{3, true}}},
      {"b DESC", {{3, false}}},
      {"s", {{4, true}}},
      {"s DESC", {{4, false}}},
      {"b, d DESC", {{3, true}, {1, false}}},
      {"s DESC, i", {{4, false}, {2, true}}},
      {"i DESC, b, d", {{2, false}, {3, true}, {1, true}}},
  };
  for (const auto& c : cases) {
    // The reference: the boxed comparator under std::stable_sort.
    std::vector<int64_t> expect(table->num_rows());
    std::iota(expect.begin(), expect.end(), int64_t{0});
    std::stable_sort(expect.begin(), expect.end(), [&](int64_t x, int64_t y) {
      for (const auto& [col, asc] : c.keys) {
        const int cmp = CompareOrderValues(table->GetValue(x, col),
                                           table->GetValue(y, col));
        if (cmp != 0) return asc ? cmp < 0 : cmp > 0;
      }
      return false;
    });
    auto full = ExecuteQuery(
        cat, std::string("SELECT * FROM k ORDER BY ") + c.order_by);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_EQ(ColumnInts(*full, 0), expect) << c.order_by;
  }
}

TEST(OrderByTest, TopKEqualsFullSortThenLimitForEveryK) {
  Catalog cat = MakeOrderEdgeCatalog();
  const size_t n = 12;
  for (const char* order_by :
       {"d", "d DESC", "i", "i DESC", "b", "b DESC", "s", "s DESC",
        "b, d DESC", "s DESC, i", "i DESC, b, d", "d, s DESC, id"}) {
    auto full = ExecuteQuery(
        cat, std::string("SELECT * FROM k ORDER BY ") + order_by);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    const std::vector<int64_t> full_ids = ColumnInts(*full, 0);
    for (size_t k = 0; k <= n + 1; ++k) {
      const std::string sql = std::string("SELECT id, d, s FROM k ORDER BY ") +
                              order_by + " LIMIT " + std::to_string(k);
      auto top = ExecuteQuery(cat, sql);
      ASSERT_TRUE(top.ok()) << sql << ": " << top.status().ToString();
      const std::vector<int64_t> prefix(
          full_ids.begin(), full_ids.begin() + std::min(k, n));
      EXPECT_EQ(ColumnInts(*top, 0), prefix) << sql;
    }
  }
  // Ties keep row order: 2^53 and 2^53 + 1 are one double, so the rows
  // holding either come out by id, as do the NaNs of both signs.
  auto ints = ExecuteQuery(cat, "SELECT id FROM k ORDER BY i DESC LIMIT 6");
  ASSERT_TRUE(ints.ok());
  EXPECT_EQ(ColumnInts(*ints, 0), (std::vector<int64_t>{4, 9, 0, 1, 3, 5}));
  auto nans = ExecuteQuery(cat, "SELECT id FROM k ORDER BY d DESC LIMIT 5");
  ASSERT_TRUE(nans.ok());
  EXPECT_EQ(ColumnInts(*nans, 0), (std::vector<int64_t>{2, 8, 0, 5, 10}));

  // At scale, on lanes: 200,000 rows (133,333 under the WHERE) run as up
  // to three 65,536-row chunks whose candidates the caller merges, and the
  // repeated keys tie across every chunk boundary. k crosses the chunk
  // size and the input size.
  Catalog big = MakeTiedOrderCatalog(200000);
  for (const char* where : {"", " WHERE id % 3 <> 1"}) {
    for (const char* order_by :
         {"d", "i DESC", "s", "b DESC, d", "s DESC, i"}) {
      const std::string from = std::string(" FROM t") + where + " ORDER BY " +
                               order_by;
      auto full = ExecuteQuery(big, "SELECT id" + from);
      ASSERT_TRUE(full.ok()) << from << ": " << full.status().ToString();
      const std::vector<int64_t> full_ids = ColumnInts(*full, 0);
      const size_t rows = full_ids.size();
      for (size_t lanes : {size_t{1}, size_t{2}, size_t{4}}) {
        ThreadPool::SetGlobalThreadCount(lanes);
        for (size_t k : {size_t{0}, size_t{1}, size_t{10}, size_t{65535},
                         size_t{65536}, size_t{65537}, rows - 1, rows,
                         rows + 1}) {
          const std::string sql =
              "SELECT id, d, s" + from + " LIMIT " + std::to_string(k);
          auto top = ExecuteQuery(big, sql);
          ASSERT_TRUE(top.ok()) << sql << ": " << top.status().ToString();
          const std::vector<int64_t> prefix(
              full_ids.begin(), full_ids.begin() + std::min(k, rows));
          EXPECT_EQ(ColumnInts(*top, 0), prefix)
              << sql << " at " << lanes << " lanes";
        }
      }
      ThreadPool::SetGlobalThreadCount(0);
    }
  }
}

TEST(OrderByTest, DistinctLimitAndAggregatedOrderBy) {
  Catalog cat = MakeOrderEdgeCatalog();
  // DISTINCT dedupes after projection, so LIMIT must see the whole sorted
  // input: the first rows by s repeat '' and 'Beta'.
  auto distinct =
      ExecuteQuery(cat, "SELECT DISTINCT s FROM k ORDER BY s LIMIT 3");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  ASSERT_EQ(distinct->num_rows(), 3u);
  EXPECT_EQ(distinct->GetValue(0, 0).str(), "");
  EXPECT_EQ(distinct->GetValue(1, 0).str(), "Beta");
  EXPECT_EQ(distinct->GetValue(2, 0).str(), "alpha");

  // Over an aggregated result the projected items rewrite to column
  // references, so the top-k path serves it.
  const std::string grouped =
      "SELECT s, COUNT(*) AS c FROM k GROUP BY s ORDER BY c DESC, s";
  auto full = ExecuteQuery(cat, grouped);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (size_t k = 0; k <= full->num_rows() + 1; ++k) {
    auto top = ExecuteQuery(cat, grouped + " LIMIT " + std::to_string(k));
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    ASSERT_EQ(top->num_rows(), std::min(k, full->num_rows()));
    for (size_t r = 0; r < top->num_rows(); ++r) {
      EXPECT_EQ(top->GetValue(r, 0), full->GetValue(r, 0)) << "k=" << k;
      EXPECT_EQ(top->GetValue(r, 1), full->GetValue(r, 1)) << "k=" << k;
    }
  }
}

TEST(OrderByTest, ProjectionErrorPastTheLimitStillSurfaces) {
  // Eager error semantics (DESIGN.md §12): `v + 1` overflows only on the
  // last row by v, far past LIMIT 2, and the query must still fail.
  Catalog cat;
  auto t = std::make_shared<Table>(
      Schema({Field{"v", DataType::kInt64, false}}));
  for (int64_t v : {int64_t{3}, std::numeric_limits<int64_t>::max(),
                    int64_t{1}, int64_t{2}}) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(v)}).ok());
  }
  cat.RegisterOrReplace("o", t);
  auto result = ExecuteQuery(cat, "SELECT v + 1 FROM o ORDER BY v LIMIT 2");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNumericError);
  // The column alone is safe to project from the top rows.
  auto plain = ExecuteQuery(cat, "SELECT v FROM o ORDER BY v LIMIT 2");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(ColumnInts(*plain, 0), (std::vector<int64_t>{1, 2}));
}

TEST(OrderByTest, OrderCodesOrderEveryPairLikeCompareOrderValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double dmax = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const int64_t imax = std::numeric_limits<int64_t>::max();
  const int64_t imin = std::numeric_limits<int64_t>::min();
  const Value null = Value::Null();
  const std::vector<std::vector<Value>> families = {
      {Value::Double(kNan), Value::Double(std::copysign(kNan, -1.0)),
       Value::Double(-0.0), Value::Double(0.0), Value::Double(1.5),
       Value::Double(-1.5), Value::Double(inf), Value::Double(-inf),
       Value::Double(dmax), Value::Double(-dmax), Value::Double(tiny),
       Value::Double(-tiny), Value::Double(9007199254740992.0), null},
      {Value::Int64(imin), Value::Int64(imax), Value::Int64(k2Pow53),
       Value::Int64(k2Pow53 + 1), Value::Int64(k2Pow53 - 1),
       Value::Int64(k2Pow53 + 2), Value::Int64(0), Value::Int64(-1),
       Value::Int64(1), null},
      {Value::Bool(true), Value::Bool(false), null},
      {Value::String("zeta"), Value::String("alpha"), Value::String(""),
       Value::String("Beta"), Value::String("alpha"), Value::String("a\x01"),
       Value::String("\xff"), Value::String("NULL"), null},
  };
  const DataType types[] = {DataType::kDouble, DataType::kInt64,
                            DataType::kBool, DataType::kString};
  struct Coded {
    Value value;
    uint64_t asc, desc;
  };
  std::vector<Coded> all;
  for (size_t f = 0; f < 4; ++f) {
    Column col(types[f]);
    for (const Value& v : families[f]) ASSERT_TRUE(col.AppendValue(v).ok());
    auto asc = OrderCodes(col, /*ascending=*/true);
    auto desc = OrderCodes(col, /*ascending=*/false);
    ASSERT_TRUE(asc.ok() && desc.ok());
    for (size_t r = 0; r < families[f].size(); ++r) {
      all.push_back({families[f][r], (*asc)[r], (*desc)[r]});
    }
  }
  const auto sign = [](uint64_t a, uint64_t b) { return a < b ? -1 : a > b; };
  for (const Coded& a : all) {
    for (const Coded& b : all) {
      const int expect = CompareOrderValues(a.value, b.value);
      EXPECT_EQ(sign(a.asc, b.asc), expect)
          << a.value.ToString() << " vs " << b.value.ToString();
      EXPECT_EQ(sign(a.desc, b.desc), -expect)
          << a.value.ToString() << " vs " << b.value.ToString();
    }
  }
}

TEST(OrderByTest, ExplainAnalyzeNamesTheSortAlgorithm) {
  Catalog cat = MakeOrderEdgeCatalog();
  auto top = ExplainAnalyzeQuery(cat, "SELECT id, d FROM k ORDER BY d LIMIT 3");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_NE(top->find("Sort(d ASC | top 3 of 12)  rows=12->3"),
            std::string::npos)
      << *top;
  // A computed projection must see every row, so the full sort runs.
  auto full =
      ExplainAnalyzeQuery(cat, "SELECT id + 1 FROM k ORDER BY d LIMIT 3");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_NE(full->find("Sort(d ASC | full)  rows=12->12"), std::string::npos)
      << *full;
}

TEST(ProjectionTest, ZeroColumnTableKeepsItsRowsThroughStar) {
  // `*` over a table with no columns expands to nothing, but the rows are
  // still there: SELECT * keeps all of them, and DISTINCT * keeps one
  // empty row when there is any.
  for (size_t rows : {size_t{0}, size_t{1}, size_t{3}}) {
    auto t = std::make_shared<Table>(Schema{});
    for (size_t i = 0; i < rows; ++i) ASSERT_TRUE(t->AppendRow({}).ok());
    Catalog cat;
    cat.RegisterOrReplace("nothing", t);
    const std::pair<const char*, size_t> cases[] = {
        {"SELECT * FROM nothing", rows},
        {"SELECT DISTINCT * FROM nothing", rows == 0 ? 0 : 1},
        {"SELECT * FROM nothing LIMIT 2", std::min<size_t>(rows, 2)},
    };
    for (const auto& [sql, want_rows] : cases) {
      SCOPED_TRACE(std::string(sql) + " over " + std::to_string(rows) +
                   " rows");
      auto stmt = ParseSelect(sql);
      ASSERT_TRUE(stmt.ok());
      auto got = ExecuteSelect(cat, *stmt);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->num_columns(), 0u);
      EXPECT_EQ(got->num_rows(), want_rows);
      const testing::OracleResult want =
          testing::OracleExecuteSelect(cat, *stmt);
      ASSERT_TRUE(want.status.ok()) << want.status.ToString();
      EXPECT_EQ(want.table.num_rows(), want_rows);
      std::string why;
      EXPECT_TRUE(testing::TablesEquivalent(want.table, *got,
                                            /*order_sensitive=*/true, &why))
          << why;
    }
    auto count = ExecuteQuery(cat, "SELECT COUNT(*) FROM nothing");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count->GetValue(0, 0), Value::Int64(static_cast<int64_t>(rows)));
  }
}

}  // namespace
}  // namespace laws
