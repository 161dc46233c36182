#ifndef ESHARP_SQLENGINE_EXPLAIN_H_
#define ESHARP_SQLENGINE_EXPLAIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace esharp::sql {

/// \brief Per-operator execution profile: one node per plan operator,
/// mirroring the plan tree shape. Filled in by
/// `Executor::Execute(plan, catalog, &stats)`; single-batch operators
/// account via the executor, the partitioned operators (parallel.cc) account
/// exact row counts and partition batches themselves through
/// `ExecContext::stats`.
///
/// Row counts are exact (measured on materialized inputs/outputs on the
/// coordinating thread), `batches` is the number of partitions the
/// operator actually processed (1 without a pool), and `wall_ms` is
/// inclusive wall time (operator plus its inputs), like the "actual time"
/// of a Postgres EXPLAIN ANALYZE.
///
/// Not thread-safe across plan executions: one ExplainStats tree belongs
/// to one Execute call at a time.
struct ExplainStats {
  std::string op;       ///< Operator label, e.g. "HashJoin(a = b)".
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  size_t batches = 1;
  double wall_ms = 0;
  std::vector<std::unique_ptr<ExplainStats>> children;

  /// Appends (and returns) a child node; pointer stays valid for the
  /// lifetime of this tree.
  ExplainStats* AddChild();

  /// Drops all recorded data, returning the node to a fresh state.
  void Clear();

  /// Total operators in this subtree (including this node).
  size_t NodeCount() const;

  /// EXPLAIN ANALYZE-style report:
  ///   Aggregate(by c)  (rows_in=100 rows_out=10 batches=8 time=1.234 ms)
  ///     Scan(edges)  (rows_in=100 rows_out=100 batches=1 time=0.011 ms)
  std::string ToString() const;
};

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_EXPLAIN_H_
