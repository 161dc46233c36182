#ifndef ESHARP_SQLENGINE_PARALLEL_H_
#define ESHARP_SQLENGINE_PARALLEL_H_

#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "sqlengine/columnar.h"
#include "sqlengine/table.h"

namespace esharp::sql {

struct ExplainStats;

/// \brief Execution context shared by the parallel operators.
///
/// `num_partitions` plays the role of the paper's VM count: every parallel
/// stage splits its input into this many hash partitions and processes them
/// on the thread pool. `meter` (optional) accumulates Table 9-style stats.
struct ExecContext {
  ThreadPool* pool = nullptr;
  size_t num_partitions = 8;
  ResourceMeter* meter = nullptr;
  /// Stage name under which meter stats are recorded.
  std::string stage = "sql";
  /// Per-operator profile for this plan node (EXPLAIN ANALYZE); the
  /// partitioned operators record exact rows in/out and the partition batch
  /// count here. Owned by the Execute(plan, catalog, stats) caller; may be
  /// null.
  ExplainStats* stats = nullptr;
};

/// \brief Strategy for the parallel join, mirroring §4.2.3 of the paper.
enum class JoinStrategy {
  /// "Replicated join": replicate (and index) the build side at every
  /// worker, split the probe side, join each split against the full build
  /// side. Best when the build side fits in memory at each node.
  kReplicated,
  /// "Chained map-side joins": co-partition both sides on the join key and
  /// join partition-wise. Used when replication is not possible.
  kPartitioned,
};

/// \name Partitioned operators
///
/// Each operator splits its input into `ctx.num_partitions` partitions, runs
/// the columnar kernel once per partition on `ctx.pool` (inline without
/// one), and concatenates the per-partition results in partition order.
/// Rows, the partition count and the first failing partition's error are
/// the same with or without a pool; row order follows the partitioning.
/// @{

/// Hash join. kReplicated indexes the build side once and probes it from
/// round-robin chunks of the probe side; kPartitioned co-partitions both
/// sides on the key and joins partition-wise.
Result<Table> ParallelHashJoin(const ExecContext& ctx, const Table& left,
                               const Table& right,
                               const std::vector<std::string>& left_keys,
                               const std::vector<std::string>& right_keys,
                               JoinType type = JoinType::kInner,
                               JoinStrategy strategy = JoinStrategy::kReplicated);

/// GROUP BY: partitions rows by group key and aggregates each partition
/// independently (keys never straddle partitions). With empty group keys the
/// global aggregate runs as one batch.
Result<Table> ParallelHashAggregate(const ExecContext& ctx, const Table& t,
                                    const std::vector<std::string>& group_keys,
                                    const std::vector<AggSpec>& aggs);

/// Filter over round-robin chunks.
Result<Table> ParallelFilter(const ExecContext& ctx, const Table& t,
                             const ExprPtr& pred);

/// Projection over round-robin chunks.
Result<Table> ParallelProject(const ExecContext& ctx, const Table& t,
                              const std::vector<ProjectedColumn>& cols);

/// @}

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_PARALLEL_H_
