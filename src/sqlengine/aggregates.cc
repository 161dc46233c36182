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

}  // namespace esharp::sql
