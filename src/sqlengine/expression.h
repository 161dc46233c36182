#ifndef ESHARP_SQLENGINE_EXPRESSION_H_
#define ESHARP_SQLENGINE_EXPRESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sqlengine/column.h"
#include "sqlengine/schema.h"
#include "sqlengine/table.h"

namespace esharp::sql {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// \brief Scalar expression tree evaluated column-at-a-time.
///
/// Supports column references, literals, arithmetic, comparisons, boolean
/// connectives and scalar UDFs. UDFs are the hook through which community
/// detection injects ModulGain(query1, query2) into the WHERE clause, exactly
/// as the paper's Fig. 4 pseudo-SQL does.
class Expr {
 public:
  enum class Kind {
    kColumn,   // reference by name, bound to an index before evaluation
    kLiteral,  // constant Value
    kBinary,   // arithmetic / comparison / boolean op
    kUnary,    // NOT, negate
    kUdf,      // scalar user-defined function
  };

  enum class BinaryOp {
    kAdd, kSub, kMul, kDiv,
    kEq, kNe, kLt, kLe, kGt, kGe,
    kAnd, kOr,
  };

  enum class UnaryOp { kNot, kNeg };

  virtual ~Expr() = default;

  Kind kind() const { return kind_; }

  /// Resolves all column references against `schema`; must be called before
  /// EvalColumn. Binding is idempotent and cheap; a failed bind leaves the
  /// previous binding untouched.
  virtual Status Bind(const Schema& schema) const = 0;

  /// Evaluates against a table whose schema was passed to Bind(), producing
  /// one value per row. AND/OR evaluate their right operand only over the
  /// rows the left one leaves undecided (true rows for AND, false rows for
  /// OR), so a guard such as `x > 0 AND 10 / x > 1` never divides by zero.
  virtual Result<ColumnVec> EvalColumn(const ColumnTable& table) const = 0;

  /// Debug rendering ("(a + 1) > b").
  virtual std::string ToString() const = 0;

 protected:
  explicit Expr(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

/// Scalar UDF: receives the evaluated argument values.
using ScalarUdf = std::function<Result<Value>(const std::vector<Value>&)>;

/// \name Expression factories
/// @{
ExprPtr Col(std::string name);
/// \brief SQL-style column reference: binds to the exact column name if it
/// exists, otherwise to a UNIQUE column whose name ends in ".name" (i.e. a
/// bare reference into an aliased table). Ambiguity is a binding error.
ExprPtr ColFlexible(std::string name);
ExprPtr Lit(Value v);
ExprPtr LitInt(int64_t v);
ExprPtr LitDouble(double v);
ExprPtr LitString(std::string v);
ExprPtr LitBool(bool v);
ExprPtr BinaryExpr(Expr::BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr UnaryExpr(Expr::UnaryOp op, ExprPtr operand);
ExprPtr Udf(std::string name, ScalarUdf fn, std::vector<ExprPtr> args);

inline ExprPtr Add(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kAdd, a, b); }
inline ExprPtr Sub(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kSub, a, b); }
inline ExprPtr Mul(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kMul, a, b); }
inline ExprPtr Div(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kDiv, a, b); }
inline ExprPtr Eq(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kEq, a, b); }
inline ExprPtr Ne(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kNe, a, b); }
inline ExprPtr Lt(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kLt, a, b); }
inline ExprPtr Le(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kLe, a, b); }
inline ExprPtr Gt(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kGt, a, b); }
inline ExprPtr Ge(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kGe, a, b); }
inline ExprPtr And(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kAnd, a, b); }
inline ExprPtr Or(ExprPtr a, ExprPtr b) { return BinaryExpr(Expr::BinaryOp::kOr, a, b); }
inline ExprPtr Not(ExprPtr a) { return UnaryExpr(Expr::UnaryOp::kNot, a); }
/// @}

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_EXPRESSION_H_
