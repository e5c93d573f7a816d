#include "query/ast.h"

#include "common/string_util.h"

namespace laws {

std::string_view BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSubtract:
      return "-";
    case BinaryOp::kMultiply:
      return "*";
    case BinaryOp::kDivide:
      return "/";
    case BinaryOp::kModulo:
      return "%";
    case BinaryOp::kEqual:
      return "=";
    case BinaryOp::kNotEqual:
      return "<>";
    case BinaryOp::kLess:
      return "<";
    case BinaryOp::kLessEqual:
      return "<=";
    case BinaryOp::kGreater:
      return ">";
    case BinaryOp::kGreaterEqual:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

std::string_view AggregateFuncToString(AggregateFunc f) {
  switch (f) {
    case AggregateFunc::kCount:
      return "COUNT";
    case AggregateFunc::kSum:
      return "SUM";
    case AggregateFunc::kAvg:
      return "AVG";
    case AggregateFunc::kMin:
      return "MIN";
    case AggregateFunc::kMax:
      return "MAX";
    case AggregateFunc::kVariance:
      return "VARIANCE";
    case AggregateFunc::kStddev:
      return "STDDEV";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.is_string()) {
        // Escape embedded quotes by doubling so the rendered literal
        // re-parses to the same value.
        std::string out = "'";
        for (const char ch : literal.str()) {
          if (ch == '\'') out += "''";
          else out += ch;
        }
        return out + "'";
      }
      return literal.ToString();
    case ExprKind::kColumnRef:
      return column_name;
    case ExprKind::kStar:
      return "*";
    case ExprKind::kUnary:
      return (unary_op == UnaryOp::kNegate ? std::string("-")
                                           : std::string("NOT ")) +
             children[0]->ToString();
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " +
             std::string(BinaryOpToString(binary_op)) + " " +
             children[1]->ToString() + ")";
    case ExprKind::kFunctionCall: {
      std::string out = function_name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kAggregate:
      return std::string(AggregateFuncToString(aggregate_func)) + "(" +
             children[0]->ToString() + ")";
    case ExprKind::kCase: {
      std::string out = "CASE";
      const size_t pairs = (children.size() - (case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + children[2 * i]->ToString() + " THEN " +
               children[2 * i + 1]->ToString();
      }
      if (case_has_else) out += " ELSE " + children.back()->ToString();
      return out + " END";
    }
  }
  return "?";
}

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kAggregate) return true;
  for (const auto& c : children) {
    if (c->ContainsAggregate()) return true;
  }
  return false;
}

std::unique_ptr<Expr> Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::MakeColumnRef(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column_name = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::MakeUnary(UnaryOp op,
                                      std::unique_ptr<Expr> operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

std::unique_ptr<Expr> Expr::MakeBinary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                       std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

std::unique_ptr<Expr> Expr::MakeFunctionCall(
    std::string name, std::vector<std::unique_ptr<Expr>> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunctionCall;
  e->function_name = std::move(name);
  e->children = std::move(args);
  return e;
}

std::unique_ptr<Expr> Expr::MakeAggregate(AggregateFunc f,
                                          std::unique_ptr<Expr> arg) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggregate;
  e->aggregate_func = f;
  e->children.push_back(std::move(arg));
  return e;
}

std::unique_ptr<Expr> Expr::MakeCase(
    std::vector<std::unique_ptr<Expr>> branches,
    std::unique_ptr<Expr> else_expr) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  e->children = std::move(branches);
  if (else_expr != nullptr) {
    e->case_has_else = true;
    e->children.push_back(std::move(else_expr));
  }
  return e;
}

std::unique_ptr<Expr> Expr::MakeStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->column_name = column_name;
  e->unary_op = unary_op;
  e->binary_op = binary_op;
  e->function_name = function_name;
  e->aggregate_func = aggregate_func;
  e->case_has_else = case_has_else;
  e->children.reserve(children.size());
  for (const auto& c : children) e->children.push_back(c->Clone());
  return e;
}

std::string SelectStatement::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < select_list.size(); ++i) {
    if (i > 0) out += ", ";
    if (select_list[i].is_star) {
      out += "*";
    } else {
      out += select_list[i].expr->ToString();
      if (!select_list[i].alias.empty()) out += " AS " + select_list[i].alias;
    }
  }
  out += " FROM " + from_table;
  if (!join_table.empty()) {
    out += " JOIN " + join_table + " ON ";
    for (size_t i = 0; i < join_keys.size(); ++i) {
      if (i > 0) out += " AND ";
      out += join_keys[i].left_column + " = " + join_keys[i].right_column;
    }
  }
  if (where != nullptr) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having != nullptr) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (!order_by[i].ascending) out += " DESC";
    }
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

namespace {

void CollectColumns(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == ExprKind::kColumnRef) {
    for (const auto& c : *out) {
      if (EqualsIgnoreCase(c, expr.column_name)) return;
    }
    out->push_back(expr.column_name);
  }
  for (const auto& c : expr.children) CollectColumns(*c, out);
}

}  // namespace

std::vector<std::string> ReferencedColumns(const SelectStatement& stmt) {
  std::vector<std::string> out;
  for (const SelectItem& item : stmt.select_list) {
    if (!item.is_star) CollectColumns(*item.expr, &out);
  }
  if (stmt.where != nullptr) CollectColumns(*stmt.where, &out);
  for (const auto& g : stmt.group_by) CollectColumns(*g, &out);
  if (stmt.having != nullptr) CollectColumns(*stmt.having, &out);
  for (const auto& k : stmt.order_by) CollectColumns(*k.expr, &out);
  return out;
}

}  // namespace laws
