#ifndef ESHARP_SQLENGINE_AGGREGATES_H_
#define ESHARP_SQLENGINE_AGGREGATES_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "sqlengine/expression.h"
#include "sqlengine/value.h"

namespace esharp::sql {

/// \brief Kinds of aggregate function supported by the GROUP BY operator.
///
/// ARGMAX is the one the paper's algorithm actually needs: Fig. 4 uses
/// `argmax(distance, query1)` to keep, per community, the neighbor with the
/// highest gain (the "neighborhood separation" step). The rest exist because
/// extraction and the statistics benches need them.
enum class AggKind {
  kCount,    // COUNT(*) if no argument, else COUNT(expr != NULL)
  kSum,
  kMin,
  kMax,
  kAvg,
  kArgMax,   // value of `output` expr at the row maximizing `order` expr;
             // ties go to the smaller output value (deterministic under any
             // partitioning)
  kArgMin,
};

/// \brief Specification of one aggregate column in a GROUP BY.
struct AggSpec {
  AggKind kind;
  /// Expression aggregated over (for ARGMAX/ARGMIN: the ordering key).
  /// Null for COUNT(*).
  ExprPtr arg;
  /// Only for ARGMAX/ARGMIN: the expression whose value is emitted.
  ExprPtr output;
  /// Output column name.
  std::string name;
};

/// Convenience factories.
AggSpec CountStar(std::string name);
AggSpec SumOf(ExprPtr arg, std::string name);
AggSpec MinOf(ExprPtr arg, std::string name);
AggSpec MaxOf(ExprPtr arg, std::string name);
AggSpec AvgOf(ExprPtr arg, std::string name);
AggSpec ArgMaxOf(ExprPtr order, ExprPtr output, std::string name);
AggSpec ArgMinOf(ExprPtr order, ExprPtr output, std::string name);

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_AGGREGATES_H_
