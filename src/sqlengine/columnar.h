#ifndef ESHARP_SQLENGINE_COLUMNAR_H_
#define ESHARP_SQLENGINE_COLUMNAR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sqlengine/aggregates.h"
#include "sqlengine/column.h"
#include "sqlengine/expression.h"

namespace esharp::sql {

/// \brief One output column of a projection: an expression plus its name.
struct ProjectedColumn {
  ExprPtr expr;
  std::string name;
};

/// \brief Join flavors. The pipeline uses inner joins; left-outer exists for
/// the evaluation harness (queries with zero experts must still be counted)
/// and for Fig. 4's rename step.
enum class JoinType { kInner, kLeftOuter };

/// \brief Resolves key column names to indexes with Schema::Resolve, so bare
/// SQL key references resolve against alias-qualified schemas.
Result<std::vector<size_t>> ResolveKeyIndexes(
    const Schema& schema, const std::vector<std::string>& keys);

/// \name Operator kernels
///
/// The engine's one executor: column-at-a-time kernels over ColumnTable
/// batches. The partitioned operators in parallel.h run Filter, Project,
/// Join and Aggregate once per partition (one partition without a pool);
/// Distinct, Sort, Limit and UnionAll run as one batch. Each consumes
/// materialized batches and produces a materialized batch — the execution
/// model of a map-reduce relational stage. tests/sql_reference.h holds a
/// row-at-a-time evaluator the randomized suites compare every kernel
/// against.
///
/// Errors: a non-BOOL predicate, a failed arithmetic coercion, division by
/// zero, INT64 overflow and a column whose values mix types are
/// InvalidArgument; an unknown column or key is NotFound.
/// @{

/// Filter via a selection vector: evaluates `pred` column-at-a-time into a
/// BOOL column, collects the indexes of true rows, and gathers them.
Result<ColumnTable> ColumnarFilter(const ColumnTable& t, const ExprPtr& pred);

/// Projection: evaluates every expression column-at-a-time. Output column
/// types are the evaluated column types (kNull for empty inputs).
Result<ColumnTable> ColumnarProject(const ColumnTable& t,
                                    const std::vector<ProjectedColumn>& cols);

/// \brief Reusable build-side index for the columnar hash join: per-row key
/// hashes plus a bucket chain. Built once and probed by many workers
/// concurrently (read-only), so the replicated-join strategy indexes the
/// build side one time instead of once per partition.
struct ColumnarJoinIndex {
  std::vector<size_t> key_idx;
  std::vector<uint64_t> hashes;
  /// heads[h % mask+1] -> first row with that hash bucket, chained via next.
  std::vector<uint32_t> heads;  // power-of-two bucket table, kEmpty sentinel
  std::vector<uint32_t> next;
  static constexpr uint32_t kEmpty = UINT32_MAX;

  static Result<ColumnarJoinIndex> Build(const ColumnTable& t,
                                         const std::vector<std::string>& keys);
};

/// Hash join of `left` against an indexed build side on equality of the key
/// columns. Output rows follow `left`, each left row followed by its matches
/// in build-side order. Build-side columns whose names clash with left-side names are
/// prefixed with "r_" in the output schema; for kLeftOuter, unmatched left
/// rows emit NULLs for the build columns.
Result<ColumnTable> ColumnarHashJoinProbe(const ColumnTable& left,
                                          const std::vector<std::string>& left_keys,
                                          const ColumnTable& build,
                                          const ColumnarJoinIndex& index,
                                          JoinType type);

/// Self-contained join (builds the index internally).
Result<ColumnTable> ColumnarHashJoin(const ColumnTable& left,
                                     const ColumnTable& right,
                                     const std::vector<std::string>& left_keys,
                                     const std::vector<std::string>& right_keys,
                                     JoinType type = JoinType::kInner);

/// GROUP BY over precomputed per-row key hashes; aggregates accumulate into
/// typed arrays column-at-a-time. Groups appear in first-seen order. With
/// empty `group_keys` the result is exactly one row (global aggregate), even
/// over an empty input. Aggregate expressions must be pre-bound by the
/// caller when sharing across threads.
Result<ColumnTable> ColumnarHashAggregate(const ColumnTable& t,
                                          const std::vector<std::string>& group_keys,
                                          const std::vector<AggSpec>& aggs);

/// Hash partitioning by scattering column slices: row i goes to partition
/// HashKeyColumns(...)[i] % num_partitions, so co-partitioned inputs join
/// correctly partition-wise. Copies typed payload cells; dictionaries are
/// shared.
Result<std::vector<ColumnTable>> ColumnarHashPartition(
    const ColumnTable& t, const std::vector<std::string>& keys,
    size_t num_partitions);

/// Contiguous ranges of ceil(n / num_partitions) rows, in input order (for
/// stateless per-row maps and the replicated join's probe side).
std::vector<ColumnTable> ColumnarRoundRobinPartition(const ColumnTable& t,
                                                     size_t num_partitions);

/// Concatenates partitions. Columns whose dictionaries are pointer-equal
/// share them copy-free; otherwise ids are remapped through a merged
/// dictionary. Empty partitions (with kNull column types) adopt the first
/// non-empty partition's schema; an all-NULL column takes the other parts'
/// type, and two different concrete types are InvalidArgument.
Result<ColumnTable> ColumnarConcat(const std::vector<ColumnTable>& parts);

/// Duplicate elimination over whole rows, keeping the first occurrence of
/// each distinct row, in input order.
ColumnTable ColumnarDistinct(const ColumnTable& t);

/// Stable sort by the given key columns. `ascending` is per key and may be
/// shorter than `keys` (missing entries default to ascending).
Result<ColumnTable> ColumnarSort(const ColumnTable& t,
                                 const std::vector<std::string>& keys,
                                 const std::vector<bool>& ascending = {});

/// First n rows.
ColumnTable ColumnarLimit(const ColumnTable& t, size_t n);

/// Concatenation of two relations of equal arity under `a`'s schema.
Result<ColumnTable> ColumnarUnionAll(const ColumnTable& a,
                                     const ColumnTable& b);

/// @}

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_COLUMNAR_H_
