#include "sqlengine/expression.h"

#include <cmath>

namespace esharp::sql {

namespace {

/// The error of the INT64 `+`, `-` and `*` kernels on signed overflow.
Status Int64Overflow(Expr::BinaryOp op) {
  const char* symbol = op == Expr::BinaryOp::kAdd   ? "+"
                       : op == Expr::BinaryOp::kSub ? "-"
                                                    : "*";
  return Status::InvalidArgument("INT64 overflow in ", symbol);
}

/// A column reference: by exact name, or with `flexible` by SQL name
/// resolution (Schema::Resolve).
class ColumnExpr final : public Expr {
 public:
  ColumnExpr(std::string name, bool flexible)
      : Expr(Kind::kColumn), name_(std::move(name)), flexible_(flexible) {}

  Status Bind(const Schema& schema) const override {
    // Idempotent for a given schema, so pre-bound expressions can be shared
    // by parallel partition workers without rebinding races. The binding
    // changes only once resolution succeeds, so a failed bind cannot leave
    // a stale index behind for the next call.
    uint64_t fp = Fnv1a64(schema.ToString());
    if (bound_ && fp == schema_fp_) return Status::OK();
    ESHARP_ASSIGN_OR_RETURN(
        index_, flexible_ ? schema.Resolve(name_) : schema.IndexOf(name_));
    schema_fp_ = fp;
    bound_ = true;
    return Status::OK();
  }

  Result<ColumnVec> EvalColumn(const ColumnTable& table) const override {
    if (!bound_) {
      return Status::FailedPrecondition("column '", name_, "' not bound");
    }
    if (index_ >= table.num_columns()) {
      return Status::Internal("bound index ", index_, " out of row arity ",
                              table.num_columns());
    }
    return table.col(index_);
  }

  std::string ToString() const override { return name_; }

 private:
  std::string name_;
  bool flexible_;
  mutable size_t index_ = 0;
  mutable uint64_t schema_fp_ = 0;
  mutable bool bound_ = false;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : Expr(Kind::kLiteral), value_(std::move(v)) {}

  Status Bind(const Schema&) const override { return Status::OK(); }

  Result<ColumnVec> EvalColumn(const ColumnTable& table) const override {
    // Broadcast the constant across the batch.
    const size_t n = table.num_rows();
    ColumnVec c;
    c.type = value_.type();
    switch (c.type) {
      case DataType::kNull:
        c.null_length = n;
        break;
      case DataType::kBool:
        c.bools.assign(n, value_.bool_value() ? 1 : 0);
        break;
      case DataType::kInt64:
        c.ints.assign(n, value_.int_value());
        break;
      case DataType::kDouble:
        c.doubles.assign(n, value_.double_value());
        break;
      case DataType::kString: {
        auto dict = std::make_shared<StringDict>();
        uint32_t id = dict->Intern(value_.string_value());
        c.str_ids.assign(n, id);
        c.dict = std::move(dict);
        break;
      }
    }
    return c;
  }

  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

class BinaryExprNode final : public Expr {
 public:
  BinaryExprNode(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expr(Kind::kBinary), op_(op), left_(std::move(left)),
        right_(std::move(right)) {}

  Status Bind(const Schema& schema) const override {
    ESHARP_RETURN_NOT_OK(left_->Bind(schema));
    return right_->Bind(schema);
  }

  Result<ColumnVec> EvalColumn(const ColumnTable& table) const override {
    ESHARP_ASSIGN_OR_RETURN(ColumnVec l, left_->EvalColumn(table));
    if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
      return EvalConnective(table, std::move(l));
    }
    ESHARP_ASSIGN_OR_RETURN(ColumnVec r, right_->EvalColumn(table));
    const size_t n = table.num_rows();

    switch (op_) {
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        ColumnVec out;
        out.type = DataType::kBool;
        out.bools.resize(n);
        const auto cmp_to_bool = [op = op_](int c) -> uint8_t {
          switch (op) {
            case BinaryOp::kEq: return c == 0;
            case BinaryOp::kNe: return c != 0;
            case BinaryOp::kLt: return c < 0;
            case BinaryOp::kLe: return c <= 0;
            case BinaryOp::kGt: return c > 0;
            default: return c >= 0;  // kGe
          }
        };
        const bool no_nulls = !l.nulls.AnyNull() && !r.nulls.AnyNull();
        if (no_nulls && l.type == DataType::kInt64 &&
            r.type == DataType::kInt64) {
          const int64_t* a = l.ints.data();
          const int64_t* b = r.ints.data();
          for (size_t i = 0; i < n; ++i) {
            out.bools[i] = cmp_to_bool(a[i] == b[i] ? 0 : (a[i] < b[i] ? -1 : 1));
          }
        } else if (no_nulls && l.type == DataType::kDouble &&
                   r.type == DataType::kDouble) {
          const double* a = l.doubles.data();
          const double* b = r.doubles.data();
          for (size_t i = 0; i < n; ++i) {
            out.bools[i] = cmp_to_bool(a[i] == b[i] ? 0 : (a[i] < b[i] ? -1 : 1));
          }
        } else if (no_nulls && l.type == DataType::kString &&
                   r.type == DataType::kString && l.dict == r.dict &&
                   (op_ == BinaryOp::kEq || op_ == BinaryOp::kNe)) {
          // Interned ids decide equality without touching the bytes.
          for (size_t i = 0; i < n; ++i) {
            out.bools[i] = cmp_to_bool(l.str_ids[i] == r.str_ids[i] ? 0 : 1);
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            out.bools[i] = cmp_to_bool(CompareCells(l, i, r, i));
          }
        }
        return out;
      }
      default:
        break;
    }

    // Arithmetic. Coercion failures check the left operand first.
    if (n == 0) {
      ColumnVec out;
      out.type = (l.type == DataType::kInt64 && r.type == DataType::kInt64 &&
                  op_ != BinaryOp::kDiv)
                     ? DataType::kInt64
                     : DataType::kDouble;
      return out;
    }
    const auto coercible = [](DataType ty) {
      return ty == DataType::kBool || ty == DataType::kInt64 ||
             ty == DataType::kDouble;
    };
    for (const ColumnVec* side : {&l, &r}) {
      if (!coercible(side->type)) {
        return Status::InvalidArgument("cannot coerce ",
                                       DataTypeToString(side->type),
                                       " to double");
      }
    }
    if (l.nulls.AnyNull() || r.nulls.AnyNull()) {
      return Status::InvalidArgument("cannot coerce NULL to double");
    }
    if (l.type == DataType::kInt64 && r.type == DataType::kInt64 &&
        op_ != BinaryOp::kDiv) {
      ColumnVec out;
      out.type = DataType::kInt64;
      out.ints.resize(n);
      const int64_t* a = l.ints.data();
      const int64_t* b = r.ints.data();
      int64_t* o = out.ints.data();
      // Branch-free: any overflowing row fails the whole column.
      bool overflow = false;
      switch (op_) {
        case BinaryOp::kAdd:
          for (size_t i = 0; i < n; ++i) {
            overflow |= __builtin_add_overflow(a[i], b[i], &o[i]);
          }
          break;
        case BinaryOp::kSub:
          for (size_t i = 0; i < n; ++i) {
            overflow |= __builtin_sub_overflow(a[i], b[i], &o[i]);
          }
          break;
        case BinaryOp::kMul:
          for (size_t i = 0; i < n; ++i) {
            overflow |= __builtin_mul_overflow(a[i], b[i], &o[i]);
          }
          break;
        default:
          return Status::Internal("unhandled binary op");
      }
      if (overflow) return Int64Overflow(op_);
      return out;
    }
    const auto cell_as_double = [](const ColumnVec& c, size_t i) -> double {
      switch (c.type) {
        case DataType::kBool: return c.bools[i] ? 1.0 : 0.0;
        case DataType::kInt64: return static_cast<double>(c.ints[i]);
        default: return c.doubles[i];
      }
    };
    ColumnVec out;
    out.type = DataType::kDouble;
    out.doubles.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const double a = cell_as_double(l, i);
      const double b = cell_as_double(r, i);
      switch (op_) {
        case BinaryOp::kAdd: out.doubles[i] = a + b; break;
        case BinaryOp::kSub: out.doubles[i] = a - b; break;
        case BinaryOp::kMul: out.doubles[i] = a * b; break;
        case BinaryOp::kDiv:
          if (b == 0.0) return Status::InvalidArgument("division by zero");
          out.doubles[i] = a / b;
          break;
        default:
          return Status::Internal("unhandled binary op");
      }
    }
    return out;
  }

  // AND/OR. The left operand decides its false (AND) or true (OR) rows; the
  // right operand runs only over the undecided rest, gathered into a
  // sub-table with the filter's selection, and its answers are scattered
  // back. Errors and the BOOL check therefore come only from rows the
  // connective needs, as with per-row short-circuiting.
  Result<ColumnVec> EvalConnective(const ColumnTable& table,
                                   ColumnVec l) const {
    const size_t n = table.num_rows();
    if (n == 0) {
      ColumnVec out;
      out.type = DataType::kBool;
      return out;
    }
    ESHARP_RETURN_NOT_OK(CheckBoolOperand(l, n));
    const bool undecided = op_ == BinaryOp::kAnd;
    std::vector<uint8_t> flags(n);
    for (size_t i = 0; i < n; ++i) flags[i] = (l.bools[i] != 0) == undecided;
    const std::vector<uint32_t> rows = SelectedRows(flags);
    if (rows.empty()) return l;
    ColumnVec r;
    if (rows.size() == n) {
      ESHARP_ASSIGN_OR_RETURN(r, right_->EvalColumn(table));
    } else {
      ESHARP_ASSIGN_OR_RETURN(r, right_->EvalColumn(table.Gather(rows)));
    }
    ESHARP_RETURN_NOT_OK(CheckBoolOperand(r, rows.size()));
    for (size_t k = 0; k < rows.size(); ++k) l.bools[rows[k]] = r.bools[k];
    return l;
  }

  static Status CheckBoolOperand(const ColumnVec& side, size_t n) {
    if (side.type == DataType::kBool && !side.nulls.AnyNull()) {
      return Status::OK();
    }
    size_t bad = 0;
    if (side.type == DataType::kBool) {
      while (bad < n && !side.nulls.IsNull(bad)) ++bad;
    }
    return Status::InvalidArgument("AND/OR operand is not BOOL: ",
                                   side.ValueAt(bad).ToString());
  }

  std::string ToString() const override {
    static const char* names[] = {"+", "-", "*", "/", "=", "!=", "<", "<=",
                                  ">", ">=", "AND", "OR"};
    return "(" + left_->ToString() + " " +
           names[static_cast<int>(op_)] + " " + right_->ToString() + ")";
  }

 private:
  BinaryOp op_;
  ExprPtr left_, right_;
};

class UnaryExprNode final : public Expr {
 public:
  UnaryExprNode(UnaryOp op, ExprPtr operand)
      : Expr(Kind::kUnary), op_(op), operand_(std::move(operand)) {}

  Status Bind(const Schema& schema) const override {
    return operand_->Bind(schema);
  }

  Result<ColumnVec> EvalColumn(const ColumnTable& table) const override {
    ESHARP_ASSIGN_OR_RETURN(ColumnVec v, operand_->EvalColumn(table));
    const size_t n = table.num_rows();
    if (op_ == UnaryOp::kNot) {
      if (n > 0 && (v.type != DataType::kBool || v.nulls.AnyNull())) {
        return Status::InvalidArgument("NOT operand is not BOOL");
      }
      ColumnVec out;
      out.type = DataType::kBool;
      out.bools.resize(n);
      for (size_t i = 0; i < n; ++i) out.bools[i] = v.bools[i] ? 0 : 1;
      return out;
    }
    // kNeg
    if (v.type == DataType::kInt64 && !v.nulls.AnyNull()) {
      ColumnVec out;
      out.type = DataType::kInt64;
      out.ints.resize(n);
      bool overflow = false;
      for (size_t i = 0; i < n; ++i) {
        overflow |= __builtin_sub_overflow(int64_t{0}, v.ints[i], &out.ints[i]);
      }
      if (overflow) return Status::InvalidArgument("INT64 overflow in unary -");
      return out;
    }
    if (n == 0) {
      ColumnVec out;
      out.type = DataType::kDouble;
      return out;
    }
    if (v.type == DataType::kString || v.type == DataType::kNull) {
      return Status::InvalidArgument("cannot coerce ",
                                     DataTypeToString(v.type), " to double");
    }
    if (v.nulls.AnyNull()) {
      return Status::InvalidArgument("cannot coerce NULL to double");
    }
    ColumnVec out;
    out.type = DataType::kDouble;
    out.doubles.resize(n);
    if (v.type == DataType::kBool) {
      for (size_t i = 0; i < n; ++i) out.doubles[i] = v.bools[i] ? -1.0 : -0.0;
    } else {
      for (size_t i = 0; i < n; ++i) out.doubles[i] = -v.doubles[i];
    }
    return out;
  }

  std::string ToString() const override {
    return (op_ == UnaryOp::kNot ? "NOT " : "-") + operand_->ToString();
  }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

class UdfExpr final : public Expr {
 public:
  UdfExpr(std::string name, ScalarUdf fn, std::vector<ExprPtr> args)
      : Expr(Kind::kUdf), name_(std::move(name)), fn_(std::move(fn)),
        args_(std::move(args)) {}

  Status Bind(const Schema& schema) const override {
    for (const ExprPtr& a : args_) ESHARP_RETURN_NOT_OK(a->Bind(schema));
    return Status::OK();
  }

  Result<ColumnVec> EvalColumn(const ColumnTable& table) const override {
    // Arguments evaluate column-at-a-time; the scalar function itself runs
    // per row (UDFs are opaque).
    std::vector<ColumnVec> arg_cols;
    arg_cols.reserve(args_.size());
    for (const ExprPtr& a : args_) {
      ESHARP_ASSIGN_OR_RETURN(ColumnVec c, a->EvalColumn(table));
      arg_cols.push_back(std::move(c));
    }
    const size_t n = table.num_rows();
    ColumnBuilder builder("UDF " + name_, n);
    std::vector<Value> vals(args_.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < arg_cols.size(); ++k) {
        vals[k] = arg_cols[k].ValueAt(i);
      }
      ESHARP_ASSIGN_OR_RETURN(Value v, fn_(vals));
      ESHARP_RETURN_NOT_OK(builder.Append(v));
    }
    return builder.Finish();
  }

  std::string ToString() const override {
    std::string out = name_ + "(";
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) out += ", ";
      out += args_[i]->ToString();
    }
    return out + ")";
  }

 private:
  std::string name_;
  ScalarUdf fn_;
  std::vector<ExprPtr> args_;
};

}  // namespace

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name), false);
}
ExprPtr ColFlexible(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name), true);
}
ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr LitInt(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
ExprPtr LitString(std::string v) { return Lit(Value::String(std::move(v))); }
ExprPtr LitBool(bool v) { return Lit(Value::Bool(v)); }
ExprPtr BinaryExpr(Expr::BinaryOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<BinaryExprNode>(op, std::move(left), std::move(right));
}
ExprPtr UnaryExpr(Expr::UnaryOp op, ExprPtr operand) {
  return std::make_shared<UnaryExprNode>(op, std::move(operand));
}
ExprPtr Udf(std::string name, ScalarUdf fn, std::vector<ExprPtr> args) {
  return std::make_shared<UdfExpr>(std::move(name), std::move(fn),
                                   std::move(args));
}

}  // namespace esharp::sql
