#include "testing/query_gen.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/random.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace laws {
namespace testing {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Renders a value for failure reports. Unlike Value::ToString this is
/// unambiguous: full double precision, explicit -0.0 and NaN, quoted and
/// escaped strings (so a string "NULL" cannot be mistaken for NULL).
std::string RenderValue(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_int64()) return std::to_string(v.int64());
  if (v.is_double()) {
    const double d = v.dbl();
    if (std::isnan(d)) return std::signbit(d) ? "-NaN" : "NaN";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    if (d == 0.0 && std::signbit(d)) return "-0.0";
    return buf;
  }
  if (v.is_bool()) return v.boolean() ? "true" : "false";
  std::string out = "'";
  for (const char c : v.str()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  return out + "'";
}

/// The seeded statement generator. Emits SQL *text* (then parsed by the
/// harness) so the lexer/parser surface — '' escapes, keyword case,
/// BETWEEN/IN desugaring, comments — is exercised on every case.
class CaseGen {
 public:
  explicit CaseGen(uint64_t seed) : rng_(seed ^ 0x51D3A9F1C0FFEEULL) {}

  GeneratedCase Generate() {
    GeneratedCase out;
    out.tables.push_back(MakeT0());
    out.tables.push_back(MakeT1());
    join_ = rng_.Bernoulli(0.22);
    // Visible column scope: t0's columns, plus t1's under their post-join
    // names when a join is present ("sa" collides and becomes "t1_sa").
    num_cols_ = {"ia", "ib", "da", "db", "ba"};
    str_cols_ = {"sa"};
    bool_cols_ = {"ba"};
    if (join_) {
      num_cols_.push_back("ja");
      num_cols_.push_back("jd");
      str_cols_.push_back("t1_sa");
    }
    out.sql = BuildStatement();
    return out;
  }

 private:
  // ---- data generation ----------------------------------------------------

  Value RandIntValue(bool nullable) {
    if (nullable && rng_.Bernoulli(0.18)) return Value::Null();
    const double r = rng_.NextDouble();
    if (r < 0.78) return Value::Int64(rng_.UniformInt(-2, 4));  // dup-heavy
    if (r < 0.90) return Value::Int64(rng_.UniformInt(-100, 100));
    if (r < 0.96) {
      // Around 2^53, where double coercion loses integer precision.
      return Value::Int64(9007199254740992LL + rng_.UniformInt(-2, 2));
    }
    if (r < 0.98) return Value::Int64(std::numeric_limits<int64_t>::max());
    return Value::Int64(std::numeric_limits<int64_t>::min() + 1);
  }

  Value RandDoubleValue(bool nullable) {
    if (nullable && rng_.Bernoulli(0.16)) return Value::Null();
    const double r = rng_.NextDouble();
    if (r < 0.08) return Value::Double(kNaN);
    if (r < 0.12) return Value::Double(-kNaN);  // sign-flipped NaN
    if (r < 0.20) return Value::Double(0.0);
    if (r < 0.28) return Value::Double(-0.0);
    if (r < 0.34) return Value::Double(rng_.Bernoulli(0.5) ? 1.5 : -2.25);
    if (r < 0.40) return Value::Double(1e12 + rng_.UniformInt(0, 3));
    if (r < 0.44) return Value::Double(1e-9);
    if (r < 0.46) return Value::Double(1e308);
    // Values differing beyond 10 significant digits (the old text group
    // keys merged these).
    if (r < 0.52) return Value::Double(1.0 + rng_.UniformInt(0, 3) * 1e-13);
    return Value::Double(rng_.Uniform(-10.0, 10.0));
  }

  Value RandStringValue(bool nullable) {
    if (nullable && rng_.Bernoulli(0.18)) return Value::Null();
    static const char* kPool[] = {"",     "a",  "b",    "mm", "NULL",
                                  "x|y",  "|",  "a|",   "b'q", "zz",
                                  "\x01N", "aa", "true"};
    const size_t k = sizeof(kPool) / sizeof(kPool[0]);
    return Value::String(kPool[rng_.UniformInt(0, static_cast<int64_t>(k) - 1)]);
  }

  Value RandBoolValue(bool nullable) {
    if (nullable && rng_.Bernoulli(0.20)) return Value::Null();
    return Value::Bool(rng_.Bernoulli(0.5));
  }

  Value RandValue(const GenColumn& c) {
    switch (c.type) {
      case DataType::kInt64:
        return RandIntValue(c.nullable);
      case DataType::kDouble:
        return RandDoubleValue(c.nullable);
      case DataType::kString:
        return RandStringValue(c.nullable);
      case DataType::kBool:
        return RandBoolValue(c.nullable);
    }
    return Value::Null();
  }

  GenTable MakeTable(std::string name, std::vector<GenColumn> cols,
                     int64_t max_rows, double empty_p) {
    GenTable t;
    t.name = std::move(name);
    t.columns = std::move(cols);
    const size_t rows = rng_.Bernoulli(empty_p)
                            ? 0
                            : static_cast<size_t>(rng_.UniformInt(1, max_rows));
    t.rows.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      row.reserve(t.columns.size());
      for (const GenColumn& c : t.columns) row.push_back(RandValue(c));
      t.rows.push_back(std::move(row));
    }
    return t;
  }

  GenTable MakeT0() {
    return MakeTable("t0",
                     {{"ia", DataType::kInt64, true},
                      {"ib", DataType::kInt64, false},
                      {"da", DataType::kDouble, true},
                      {"db", DataType::kDouble, true},
                      {"sa", DataType::kString, true},
                      {"ba", DataType::kBool, true}},
                     44, 0.05);
  }

  GenTable MakeT1() {
    return MakeTable("t1",
                     {{"ja", DataType::kInt64, true},
                      {"jd", DataType::kDouble, true},
                      {"sa", DataType::kString, true}},
                     10, 0.08);
  }

  // ---- SQL text helpers ---------------------------------------------------

  int64_t Pick(int64_t n) { return rng_.UniformInt(0, n - 1); }

  template <typename T>
  const T& PickFrom(const std::vector<T>& v) {
    return v[static_cast<size_t>(Pick(static_cast<int64_t>(v.size())))];
  }

  /// Keywords are matched case-insensitively; vary the rendering.
  std::string Kw(std::string w) {
    const int64_t mode = Pick(3);
    if (mode == 0) return w;  // upper, as passed
    for (char& c : w) {
      c = mode == 1 ? static_cast<char>(std::tolower(c)) : c;
    }
    if (mode == 2 && w.size() > 1) {
      for (size_t i = 1; i < w.size(); ++i) {
        w[i] = static_cast<char>(std::tolower(w[i]));
      }
    }
    return w;
  }

  std::string IntLit() {
    static const char* kPool[] = {"0",   "1",  "2",   "3",  "7",
                                  "100", "9007199254740993",
                                  "4611686018427387904",
                                  "9223372036854775807"};
    std::string lit = kPool[Pick(sizeof(kPool) / sizeof(kPool[0]))];
    if (rng_.Bernoulli(0.25)) lit = "-(" + lit + ")";
    return lit;
  }

  std::string DblLit() {
    static const char* kPool[] = {"0.0",   "1.5",    "2.25",  "0.001",
                                  "123.456", "1e12", "1e-9",  "0.1",
                                  "1.0000000000001"};
    std::string lit = kPool[Pick(sizeof(kPool) / sizeof(kPool[0]))];
    if (rng_.Bernoulli(0.25)) lit = "-(" + lit + ")";
    return lit;
  }

  std::string StrLit() {
    static const char* kPool[] = {"''",    "'a'",   "'b'",  "'mm'", "'zz'",
                                  "'NULL'", "'x|y'", "'it''s'", "'true'"};
    return kPool[Pick(sizeof(kPool) / sizeof(kPool[0]))];
  }

  std::string NumTerm() {
    const double r = rng_.NextDouble();
    if (r < 0.58) return PickFrom(num_cols_);
    if (r < 0.78) return IntLit();
    if (r < 0.95) return DblLit();
    return Kw("NULL");
  }

  std::string NumExpr(int depth) {
    if (depth <= 0) return NumTerm();
    const double r = rng_.NextDouble();
    if (r < 0.34) return NumTerm();
    if (r < 0.56) {  // arithmetic
      static const char* kOps[] = {"+", "+", "-", "-", "*", "*", "/", "%"};
      const char* op = kOps[Pick(8)];
      return "(" + NumExpr(depth - 1) + " " + op + " " + NumExpr(depth - 1) +
             ")";
    }
    if (r < 0.62) return "-(" + NumExpr(depth - 1) + ")";
    if (r < 0.74) {
      static const char* kFns[] = {"abs",   "sqrt", "ln",   "exp",  "floor",
                                   "ceil",  "round", "sin", "cos",  "log10"};
      return std::string(kFns[Pick(10)]) + "(" + NumExpr(depth - 1) + ")";
    }
    if (r < 0.78) {
      return "pow(" + NumExpr(depth - 1) + ", " + NumExpr(0) + ")";
    }
    if (r < 0.86) {
      std::string out = "coalesce(" + NumExpr(depth - 1);
      const int64_t extra = rng_.UniformInt(1, 2);
      for (int64_t i = 0; i < extra; ++i) out += ", " + NumExpr(depth - 1);
      return out + ")";
    }
    if (r < 0.91) {
      return "nullif(" + NumExpr(depth - 1) + ", " + NumExpr(0) + ")";
    }
    return CaseExpr(depth - 1, /*string_branches=*/false);
  }

  std::string StrExpr(int depth) {
    const double r = rng_.NextDouble();
    if (depth <= 0 || r < 0.55) {
      return rng_.Bernoulli(0.65) ? PickFrom(str_cols_) : StrLit();
    }
    if (r < 0.75) {
      return "coalesce(" + StrExpr(depth - 1) + ", " + StrExpr(0) + ")";
    }
    if (r < 0.87) {
      return "nullif(" + StrExpr(depth - 1) + ", " + StrExpr(0) + ")";
    }
    return CaseExpr(depth - 1, /*string_branches=*/true);
  }

  std::string CaseExpr(int depth, bool string_branches) {
    auto branch = [&] {
      return string_branches ? StrExpr(depth) : NumExpr(depth);
    };
    std::string out = Kw("CASE");
    const int64_t pairs = rng_.UniformInt(1, 2);
    for (int64_t i = 0; i < pairs; ++i) {
      out += " " + Kw("WHEN") + " " + BoolExpr(depth) + " " + Kw("THEN") +
             " " + branch();
    }
    if (rng_.Bernoulli(0.7)) out += " " + Kw("ELSE") + " " + branch();
    return out + " " + Kw("END");
  }

  std::string Comparison() {
    static const char* kCmps[] = {"=", "<>", "!=", "<", "<=", ">", ">="};
    const char* cmp = kCmps[Pick(7)];
    const double r = rng_.NextDouble();
    if (r < 0.70) {
      return "(" + NumExpr(1) + " " + cmp + " " + NumExpr(1) + ")";
    }
    if (r < 0.95) {
      return "(" + StrExpr(1) + " " + cmp + " " + StrExpr(0) + ")";
    }
    // Deliberate type error: string vs numeric.
    return "(" + StrExpr(0) + " " + cmp + " " + NumExpr(0) + ")";
  }

  std::string BoolExpr(int depth) {
    const double r = rng_.NextDouble();
    if (depth <= 0 || r < 0.42) {
      const double t = rng_.NextDouble();
      if (t < 0.25) return PickFrom(bool_cols_);
      if (t < 0.35) return Kw(rng_.Bernoulli(0.5) ? "TRUE" : "FALSE");
      return Comparison();
    }
    if (r < 0.56) {
      return "(" + BoolExpr(depth - 1) + " " + Kw("AND") + " " +
             BoolExpr(depth - 1) + ")";
    }
    if (r < 0.68) {
      return "(" + BoolExpr(depth - 1) + " " + Kw("OR") + " " +
             BoolExpr(depth - 1) + ")";
    }
    if (r < 0.76) return Kw("NOT") + " (" + BoolExpr(depth - 1) + ")";
    if (r < 0.86) {
      return "(" + NumExpr(1) + " " + Kw("BETWEEN") + " " + NumExpr(0) +
             " " + Kw("AND") + " " + NumExpr(0) + ")";
    }
    if (r < 0.95) {  // IN list
      if (rng_.Bernoulli(0.5)) {
        std::string out = "(" + NumExpr(0) + " " + Kw("IN") + " (" + IntLit();
        const int64_t extra = rng_.UniformInt(1, 3);
        for (int64_t i = 0; i < extra; ++i) {
          out += ", " + (rng_.Bernoulli(0.7) ? IntLit() : DblLit());
        }
        return out + "))";
      }
      std::string out = "(" + StrExpr(0) + " " + Kw("IN") + " (" + StrLit();
      const int64_t extra = rng_.UniformInt(1, 2);
      for (int64_t i = 0; i < extra; ++i) out += ", " + StrLit();
      return out + "))";
    }
    return Comparison();
  }

  std::string AggExpr() {
    const double r = rng_.NextDouble();
    if (r < 0.14) return Kw("COUNT") + "(*)";
    if (r < 0.30) {
      // COUNT over any family (strings and bools count too).
      const double f = rng_.NextDouble();
      const std::string arg = f < 0.6   ? NumExpr(1)
                              : f < 0.9 ? StrExpr(0)
                                        : BoolExpr(0);
      return Kw("COUNT") + "(" + arg + ")";
    }
    if (r < 0.42) {
      // MIN/MAX, sometimes over strings.
      const std::string fn = Kw(rng_.Bernoulli(0.5) ? "MIN" : "MAX");
      return fn + "(" + (rng_.Bernoulli(0.25) ? StrExpr(0) : NumExpr(1)) + ")";
    }
    if (r < 0.43) {
      // Deliberate type error: SUM over a string.
      return Kw("SUM") + "(" + StrExpr(0) + ")";
    }
    static const char* kFns[] = {"SUM", "SUM", "AVG", "AVG", "VARIANCE",
                                 "STDDEV"};
    return Kw(kFns[Pick(6)]) + "(" + NumExpr(rng_.Bernoulli(0.5) ? 1 : 2) +
           ")";
  }

  // ---- statement assembly -------------------------------------------------

  std::string BuildStatement() {
    const bool is_agg = rng_.Bernoulli(0.45);
    std::vector<std::string> aliases;
    std::string sql = Kw("SELECT") + " ";
    const bool distinct = rng_.Bernoulli(is_agg ? 0.10 : 0.25);
    if (distinct) sql += Kw("DISTINCT") + " ";

    std::vector<std::string> key_texts;
    std::vector<std::string> order_pool;  // texts valid as ORDER BY keys
    bool columns_only = false;            // every item is a column

    if (is_agg) {
      const int64_t num_keys = rng_.UniformInt(0, 2);
      for (int64_t k = 0; k < num_keys; ++k) {
        std::string key;
        const double r = rng_.NextDouble();
        if (r < 0.55) key = PickFrom(num_cols_);
        else if (r < 0.70) key = PickFrom(str_cols_);
        else if (r < 0.80) key = PickFrom(bool_cols_);
        else key = NumExpr(1);
        key_texts.push_back(key);
      }
      const int64_t num_items = rng_.UniformInt(1, 3);
      std::vector<std::string> item_texts;
      for (int64_t i = 0; i < num_items; ++i) {
        std::string item;
        const double r = rng_.NextDouble();
        if (!key_texts.empty() && r < 0.30) {
          item = PickFrom(key_texts);
          if (rng_.Bernoulli(0.3)) item = "(" + item + " + " + IntLit() + ")";
        } else if (r < 0.85 || key_texts.empty()) {
          item = AggExpr();
          if (rng_.Bernoulli(0.2)) {
            item = "(" + item + " + " + (rng_.Bernoulli(0.5) ? AggExpr()
                                                             : IntLit()) +
                   ")";
          }
        } else if (r < 0.88) {
          item = IntLit();  // bare constant in an aggregate query
        } else {
          // Deliberate error: unaggregated, non-key column reference.
          item = PickFrom(num_cols_);
        }
        item_texts.push_back(item);
        order_pool.push_back(item);
        if (rng_.Bernoulli(0.25)) {
          const std::string alias = "v" + std::to_string(i);
          aliases.push_back(alias);
          order_pool.push_back(alias);
          item += rng_.Bernoulli(0.7) ? " " + Kw("AS") + " " + alias
                                      : " " + alias;
        }
        sql += (i > 0 ? ", " : "") + item;
      }
      sql += " " + Kw("FROM") + " t0";
      if (join_) sql += JoinClause();
      if (rng_.Bernoulli(0.60)) {
        sql += " " + Kw("WHERE") + " " + WherePredicate();
      }
      if (!key_texts.empty()) {
        sql += " " + Kw("GROUP") + " " + Kw("BY") + " ";
        for (size_t k = 0; k < key_texts.size(); ++k) {
          sql += (k > 0 ? ", " : "") + key_texts[k];
        }
        for (const std::string& k : key_texts) order_pool.push_back(k);
      }
      if (rng_.Bernoulli(0.30)) {
        static const char* kCmps[] = {"=", "<>", "<", "<=", ">", ">="};
        std::string lhs;
        const double r = rng_.NextDouble();
        if (r < 0.55) lhs = AggExpr();
        else if (!key_texts.empty() && r < 0.85) lhs = PickFrom(key_texts);
        else if (r < 0.95) lhs = AggExpr();
        else lhs = PickFrom(num_cols_);  // deliberate: unaggregated column
        sql += " " + Kw("HAVING") + " (" + lhs + " " + kCmps[Pick(6)] + " " +
               (rng_.Bernoulli(0.8) ? IntLit() : DblLit()) + ")";
      }
    } else {
      // SELECT * and plain column lists are the shapes whose ORDER BY ...
      // LIMIT the executor serves by top-k selection, so they draw ORDER
      // BY and LIMIT more often below.
      const double shape = rng_.NextDouble();
      columns_only = shape < 0.30;
      if (shape < 0.12) {
        sql += "*";
        order_pool = num_cols_;
      } else {
        const int64_t num_items = rng_.UniformInt(1, 4);
        for (int64_t i = 0; i < num_items; ++i) {
          std::string item = !columns_only       ? AnyExpr()
                             : rng_.Bernoulli(0.8) ? PickFrom(num_cols_)
                                                   : PickFrom(str_cols_);
          order_pool.push_back(item);
          if (rng_.Bernoulli(0.25)) {
            // Aliases usually fresh; occasionally shadowing a real column
            // to exercise alias-before-column resolution in ORDER BY.
            const std::string alias =
                rng_.Bernoulli(0.15) ? "ia" : "v" + std::to_string(i);
            aliases.push_back(alias);
            order_pool.push_back(alias);
            item += rng_.Bernoulli(0.7) ? " " + Kw("AS") + " " + alias
                                        : " " + alias;
          }
          sql += (i > 0 ? ", " : "") + item;
        }
      }
      sql += " " + Kw("FROM") + " t0";
      if (join_) sql += JoinClause();
      if (rng_.Bernoulli(0.65)) {
        sql += " " + Kw("WHERE") + " " + WherePredicate();
      }
      for (const std::string& c : num_cols_) order_pool.push_back(c);
      order_pool.push_back(PickFrom(str_cols_));
    }

    if (!order_pool.empty() && rng_.Bernoulli(columns_only ? 0.8 : 0.45)) {
      sql += " " + Kw("ORDER") + " " + Kw("BY") + " ";
      const int64_t num_keys =
          rng_.UniformInt(1, std::min<int64_t>(3, order_pool.size()));
      for (int64_t k = 0; k < num_keys; ++k) {
        if (k > 0) sql += ", ";
        sql += PickFrom(order_pool);
        if (rng_.Bernoulli(0.5)) {
          sql += " " + Kw(rng_.Bernoulli(0.5) ? "ASC" : "DESC");
        }
      }
    }
    if (rng_.Bernoulli(columns_only ? 0.6 : 0.30)) {
      // Small limits usually cut into the (often filtered) rows.
      const int64_t limit = rng_.UniformInt(0, columns_only ? 10 : 25);
      sql += " " + Kw("LIMIT") + " " + std::to_string(limit);
    }
    if (rng_.Bernoulli(0.08)) sql += " -- seeded tail comment";
    return sql;
  }

  std::string AnyExpr() {
    const double r = rng_.NextDouble();
    if (r < 0.60) return NumExpr(rng_.Bernoulli(0.5) ? 1 : 2);
    if (r < 0.80) return StrExpr(1);
    return BoolExpr(1);
  }

  std::string JoinClause() {
    std::string sql = " " + Kw("JOIN") + " t1 " + Kw("ON") + " ";
    const int64_t num_keys = rng_.Bernoulli(0.8) ? 1 : 2;
    for (int64_t k = 0; k < num_keys; ++k) {
      if (k > 0) sql += " " + Kw("AND") + " ";
      const double r = rng_.NextDouble();
      if (r < 0.45) {
        sql += std::string(rng_.Bernoulli(0.5) ? "ia" : "ib") + " = ja";
      } else if (r < 0.80) {
        sql += std::string(rng_.Bernoulli(0.5) ? "da" : "db") + " = jd";
      } else {
        sql += "sa = sa";  // both sides resolve through their own table
      }
    }
    return sql;
  }

  std::string WherePredicate() {
    // ~3% deliberately non-boolean predicates to diff the error path.
    if (rng_.Bernoulli(0.03)) return NumExpr(1);
    return BoolExpr(2);
  }

  Rng rng_;
  bool join_ = false;
  std::vector<std::string> num_cols_, str_cols_, bool_cols_;
};

}  // namespace

Result<TablePtr> GenTable::Materialize() const {
  std::vector<Field> fields;
  fields.reserve(columns.size());
  for (const GenColumn& c : columns) {
    fields.push_back(Field{c.name, c.type, c.nullable});
  }
  auto table = std::make_shared<Table>(Schema(std::move(fields)));
  for (const auto& row : rows) {
    LAWS_RETURN_IF_ERROR(table->AppendRow(row));
  }
  return table;
}

std::string GenTable::ToString() const {
  std::string out = name + "(";
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ", ";
    out += columns[c].name;
    out += ' ';
    out += DataTypeToString(columns[c].type);
    if (!columns[c].nullable) out += " NOT NULL";
  }
  out += ") -- " + std::to_string(rows.size()) + " rows\n";
  for (const auto& row : rows) {
    out += "  (";
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ", ";
      out += RenderValue(row[c]);
    }
    out += ")\n";
  }
  return out;
}

Result<Catalog> MaterializeCatalog(const std::vector<GenTable>& tables) {
  Catalog catalog;
  for (const GenTable& t : tables) {
    LAWS_ASSIGN_OR_RETURN(TablePtr table, t.Materialize());
    LAWS_RETURN_IF_ERROR(catalog.Register(t.name, std::move(table)));
  }
  return catalog;
}

GeneratedCase GenerateCase(uint64_t seed) {
  return CaseGen(seed).Generate();
}

}  // namespace testing
}  // namespace laws
