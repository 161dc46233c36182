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
  kArgMax,   // value of `output` expr at the row maximizing `order` expr
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

/// \brief Incremental accumulator for one aggregate over one group.
///
/// Accumulators are mergeable, which is what makes the GROUP BY operator
/// parallelizable with a local-aggregate + shuffle + final-merge plan — the
/// standard map-reduce aggregation the paper relies on (§4.2.3).
class AggAccumulator {
 public:
  explicit AggAccumulator(AggKind kind) : kind_(kind) {}

  /// Feeds one row's evaluated argument (and, for ARGMAX/ARGMIN, output).
  void Add(const Value& arg, const Value& output);

  /// Merges a partial accumulator computed on another partition.
  void Merge(const AggAccumulator& other);

  /// Final value of the aggregate.
  Result<Value> Finish() const;

 private:
  AggKind kind_;
  int64_t count_ = 0;
  double sum_ = 0;
  bool sum_is_int_ = true;
  int64_t isum_ = 0;
  bool overflow_ = false;  // the INT64 sum overflowed; Finish fails
  bool has_value_ = false;
  Value best_arg_;     // MIN/MAX: extremum; ARGMAX/ARGMIN: best ordering key
  Value best_output_;  // ARGMAX/ARGMIN: output at the extremum
};

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_AGGREGATES_H_
