#ifndef LAWSDB_QUERY_AST_H_
#define LAWSDB_QUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/types.h"

namespace laws {

/// Expression node kinds for the SQL subset.
enum class ExprKind {
  kLiteral,
  kColumnRef,
  kUnary,
  kBinary,
  kFunctionCall,
  kAggregate,
  kCase,  // searched CASE WHEN ... THEN ... [ELSE ...] END
  kStar,  // COUNT(*) argument
};

enum class UnaryOp { kNegate, kNot };

enum class BinaryOp {
  kAdd,
  kSubtract,
  kMultiply,
  kDivide,
  kModulo,
  kEqual,
  kNotEqual,
  kLess,
  kLessEqual,
  kGreater,
  kGreaterEqual,
  kAnd,
  kOr,
};

enum class AggregateFunc { kCount, kSum, kAvg, kMin, kMax, kVariance, kStddev };

std::string_view BinaryOpToString(BinaryOp op);
std::string_view AggregateFuncToString(AggregateFunc f);

/// A node in the expression tree. A single variant-style struct keeps the
/// tree easy to build in the parser and walk in the evaluator.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string column_name;

  // kUnary
  UnaryOp unary_op = UnaryOp::kNegate;

  // kBinary
  BinaryOp binary_op = BinaryOp::kAdd;

  // kFunctionCall: name in `function_name`, args in `children`.
  std::string function_name;

  // kAggregate
  AggregateFunc aggregate_func = AggregateFunc::kCount;

  // kCase: children hold [when1, then1, when2, then2, ..., else?]; this
  // flag records whether the trailing ELSE branch is present.
  bool case_has_else = false;

  /// Operands: 1 for unary, 2 for binary, n for calls, 1 for aggregates
  /// (possibly a kStar node).
  std::vector<std::unique_ptr<Expr>> children;

  /// Renders the expression back to SQL-ish text (diagnostics, column
  /// naming).
  std::string ToString() const;

  /// True if any node in this subtree is an aggregate call.
  bool ContainsAggregate() const;

  static std::unique_ptr<Expr> MakeLiteral(Value v);
  static std::unique_ptr<Expr> MakeColumnRef(std::string name);
  static std::unique_ptr<Expr> MakeUnary(UnaryOp op,
                                         std::unique_ptr<Expr> operand);
  static std::unique_ptr<Expr> MakeBinary(BinaryOp op,
                                          std::unique_ptr<Expr> lhs,
                                          std::unique_ptr<Expr> rhs);
  static std::unique_ptr<Expr> MakeFunctionCall(
      std::string name, std::vector<std::unique_ptr<Expr>> args);
  static std::unique_ptr<Expr> MakeAggregate(AggregateFunc f,
                                             std::unique_ptr<Expr> arg);
  /// Builds a searched CASE: `branches` holds (when, then) pairs flattened
  /// as [w1, t1, w2, t2, ...]; `else_expr` may be null.
  static std::unique_ptr<Expr> MakeCase(
      std::vector<std::unique_ptr<Expr>> branches,
      std::unique_ptr<Expr> else_expr);
  static std::unique_ptr<Expr> MakeStar();

  std::unique_ptr<Expr> Clone() const;
};

/// One SELECT-list item: expression plus optional alias; `is_star` for bare
/// `*`.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;
  bool is_star = false;
};

/// One ORDER BY key.
struct OrderKey {
  std::unique_ptr<Expr> expr;
  bool ascending = true;
};

/// One equi-join key pair for `FROM a JOIN b ON a_col = b_col`.
struct JoinKey {
  std::string left_column;
  std::string right_column;
};

/// Parsed SELECT statement. Supports single-table scans plus one optional
/// INNER equi-join (enough to join observations with captured parameter
/// tables); filters, grouped aggregates, HAVING, ORDER BY, LIMIT and
/// DISTINCT.
struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> select_list;
  std::string from_table;
  /// Optional INNER JOIN: empty = none.
  std::string join_table;
  std::vector<JoinKey> join_keys;
  std::unique_ptr<Expr> where;    // may be null
  std::vector<std::unique_ptr<Expr>> group_by;
  std::unique_ptr<Expr> having;   // may be null
  std::vector<OrderKey> order_by;
  int64_t limit = -1;             // -1 = no limit

  std::string ToString() const;
};

/// The columns a statement references anywhere, in first-mention order,
/// each once: names compare case-insensitively, as column lookup does.
std::vector<std::string> ReferencedColumns(const SelectStatement& stmt);

}  // namespace laws

#endif  // LAWSDB_QUERY_AST_H_
