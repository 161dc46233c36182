#include "sqlengine/aggregates.h"

namespace esharp::sql {

AggSpec CountStar(std::string name) {
  return AggSpec{AggKind::kCount, nullptr, nullptr, std::move(name)};
}
AggSpec SumOf(ExprPtr arg, std::string name) {
  return AggSpec{AggKind::kSum, std::move(arg), nullptr, std::move(name)};
}
AggSpec MinOf(ExprPtr arg, std::string name) {
  return AggSpec{AggKind::kMin, std::move(arg), nullptr, std::move(name)};
}
AggSpec MaxOf(ExprPtr arg, std::string name) {
  return AggSpec{AggKind::kMax, std::move(arg), nullptr, std::move(name)};
}
AggSpec AvgOf(ExprPtr arg, std::string name) {
  return AggSpec{AggKind::kAvg, std::move(arg), nullptr, std::move(name)};
}
AggSpec ArgMaxOf(ExprPtr order, ExprPtr output, std::string name) {
  return AggSpec{AggKind::kArgMax, std::move(order), std::move(output),
                 std::move(name)};
}
AggSpec ArgMinOf(ExprPtr order, ExprPtr output, std::string name) {
  return AggSpec{AggKind::kArgMin, std::move(order), std::move(output),
                 std::move(name)};
}

void AggAccumulator::Add(const Value& arg, const Value& output) {
  switch (kind_) {
    case AggKind::kCount:
      if (!arg.is_null()) ++count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg: {
      if (arg.is_null()) break;
      ++count_;
      if (arg.type() == DataType::kInt64 && sum_is_int_) {
        overflow_ |= __builtin_add_overflow(isum_, arg.int_value(), &isum_);
      } else {
        if (sum_is_int_) {
          sum_ = static_cast<double>(isum_);
          sum_is_int_ = false;
        }
        auto d = arg.AsDouble();
        if (d.ok()) sum_ += *d;
      }
      break;
    }
    case AggKind::kMin:
      if (arg.is_null()) break;
      if (!has_value_ || arg.Compare(best_arg_) < 0) best_arg_ = arg;
      has_value_ = true;
      break;
    case AggKind::kMax:
      if (arg.is_null()) break;
      if (!has_value_ || arg.Compare(best_arg_) > 0) best_arg_ = arg;
      has_value_ = true;
      break;
    case AggKind::kArgMax:
      if (arg.is_null()) break;
      // Ties broken toward the smaller output value so results are
      // deterministic regardless of partitioning and input order.
      if (!has_value_ || arg.Compare(best_arg_) > 0 ||
          (arg.Compare(best_arg_) == 0 && output.Compare(best_output_) < 0)) {
        best_arg_ = arg;
        best_output_ = output;
      }
      has_value_ = true;
      break;
    case AggKind::kArgMin:
      if (arg.is_null()) break;
      if (!has_value_ || arg.Compare(best_arg_) < 0 ||
          (arg.Compare(best_arg_) == 0 && output.Compare(best_output_) < 0)) {
        best_arg_ = arg;
        best_output_ = output;
      }
      has_value_ = true;
      break;
  }
}

void AggAccumulator::Merge(const AggAccumulator& other) {
  switch (kind_) {
    case AggKind::kCount:
      count_ += other.count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      count_ += other.count_;
      overflow_ |= other.overflow_;
      if (sum_is_int_ && other.sum_is_int_) {
        overflow_ |= __builtin_add_overflow(isum_, other.isum_, &isum_);
      } else {
        if (sum_is_int_) {
          sum_ = static_cast<double>(isum_);
          sum_is_int_ = false;
        }
        sum_ += other.sum_is_int_ ? static_cast<double>(other.isum_)
                                  : other.sum_;
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kArgMax:
    case AggKind::kArgMin:
      if (other.has_value_) {
        // Re-use Add's comparison logic by feeding the other side's extremum.
        Add(other.best_arg_, other.best_output_);
      }
      break;
  }
}

Result<Value> AggAccumulator::Finish() const {
  switch (kind_) {
    case AggKind::kCount:
      return Value::Int(count_);
    case AggKind::kSum:
      if (count_ == 0) return Value::Null();
      if (overflow_) return Status::InvalidArgument("INT64 overflow in sum");
      return sum_is_int_ ? Value::Int(isum_) : Value::Double(sum_);
    case AggKind::kAvg: {
      if (count_ == 0) return Value::Null();
      if (overflow_) return Status::InvalidArgument("INT64 overflow in sum");
      double total = sum_is_int_ ? static_cast<double>(isum_) : sum_;
      return Value::Double(total / static_cast<double>(count_));
    }
    case AggKind::kMin:
    case AggKind::kMax:
      return has_value_ ? best_arg_ : Value::Null();
    case AggKind::kArgMax:
    case AggKind::kArgMin:
      return has_value_ ? best_output_ : Value::Null();
  }
  return Status::Internal("unhandled aggregate kind");
}

}  // namespace esharp::sql
