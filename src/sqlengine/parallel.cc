#include "sqlengine/parallel.h"

#include <algorithm>
#include <functional>

#include "sqlengine/explain.h"

namespace esharp::sql {

namespace {

size_t Partitions(const ExecContext& ctx) {
  return std::max<size_t>(1, ctx.num_partitions);
}

// Runs fn(i) for every partition on the context's pool (inline without one)
// and returns the lowest-numbered failing partition's error, so the outcome
// never depends on which worker finishes first.
Status RunPartitioned(const ExecContext& ctx, size_t n,
                      const std::function<Status(size_t)>& fn) {
  if (ctx.pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) ESHARP_RETURN_NOT_OK(fn(i));
    return Status::OK();
  }
  std::vector<Status> status(n);
  ctx.pool->ParallelFor(n, [&](size_t i) { status[i] = fn(i); });
  for (const Status& s : status) ESHARP_RETURN_NOT_OK(s);
  return Status::OK();
}

using PartitionKernel = std::function<Result<ColumnTable>(size_t)>;

// Runs kernel(i) for each of `p` partitions and concatenates the results in
// partition order; a single partition's result is returned as is.
Result<ColumnTable> RunAndConcat(const ExecContext& ctx, size_t p,
                                 const PartitionKernel& kernel) {
  std::vector<ColumnTable> results(p);
  ESHARP_RETURN_NOT_OK(RunPartitioned(ctx, p, [&](size_t i) -> Status {
    ESHARP_ASSIGN_OR_RETURN(results[i], kernel(i));
    return Status::OK();
  }));
  if (p == 1) return std::move(results[0]);
  return ColumnarConcat(results);
}

// Applies a per-row kernel to contiguous chunks of `t`; at one partition it
// reads `t` itself instead of a copy.
Result<ColumnTable> MapChunks(
    const ExecContext& ctx, const ColumnTable& t,
    const std::function<Result<ColumnTable>(const ColumnTable&)>& kernel) {
  const size_t p = Partitions(ctx);
  if (p == 1) return kernel(t);
  const std::vector<ColumnTable> chunks = ColumnarRoundRobinPartition(t, p);
  return RunAndConcat(ctx, p, [&](size_t i) { return kernel(chunks[i]); });
}

// Exact operator accounting, always on the coordinating thread after the
// partitions have joined: Table 9 row totals into the meter, and the
// EXPLAIN ANALYZE profile (rows in/out plus how many partition batches ran)
// into the plan node's ExplainStats.
void MeterRows(const ExecContext& ctx, uint64_t in, uint64_t out,
               size_t batches) {
  if (ctx.meter != nullptr) ctx.meter->AddRows(ctx.stage, in, out);
  if (ctx.stats != nullptr) {
    ctx.stats->rows_in += in;
    ctx.stats->rows_out += out;
    ctx.stats->batches = batches;
  }
}

}  // namespace

Result<Table> ParallelHashJoin(const ExecContext& ctx, const Table& left,
                               const Table& right,
                               const std::vector<std::string>& left_keys,
                               const std::vector<std::string>& right_keys,
                               JoinType type, JoinStrategy strategy) {
  if (left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("join key arity mismatch: ",
                                   left_keys.size(), " vs ",
                                   right_keys.size());
  }
  const ColumnTable& lct = left.columns();
  const ColumnTable& rct = right.columns();
  const size_t p = Partitions(ctx);
  ColumnTable out;
  if (strategy == JoinStrategy::kReplicated || p == 1) {
    // The build side is hashed and indexed once on the coordinator; every
    // worker probes the shared read-only index.
    ESHARP_ASSIGN_OR_RETURN(ColumnarJoinIndex index,
                            ColumnarJoinIndex::Build(rct, right_keys));
    ESHARP_ASSIGN_OR_RETURN(
        out, MapChunks(ctx, lct, [&](const ColumnTable& chunk) {
          return ColumnarHashJoinProbe(chunk, left_keys, rct, index, type);
        }));
  } else {
    // Right first, as the replicated path resolves the build keys first.
    ESHARP_ASSIGN_OR_RETURN(std::vector<ColumnTable> rparts,
                            ColumnarHashPartition(rct, right_keys, p));
    ESHARP_ASSIGN_OR_RETURN(std::vector<ColumnTable> lparts,
                            ColumnarHashPartition(lct, left_keys, p));
    ESHARP_ASSIGN_OR_RETURN(out, RunAndConcat(ctx, p, [&](size_t i) {
                              return ColumnarHashJoin(lparts[i], rparts[i],
                                                      left_keys, right_keys,
                                                      type);
                            }));
  }
  MeterRows(ctx, left.num_rows() + right.num_rows(), out.num_rows(), p);
  return Table(std::move(out));
}

Result<Table> ParallelHashAggregate(const ExecContext& ctx, const Table& t,
                                    const std::vector<std::string>& group_keys,
                                    const std::vector<AggSpec>& aggs) {
  const ColumnTable& ct = t.columns();
  // Pre-bind on the coordinator; workers' Bind calls become no-ops.
  for (const AggSpec& a : aggs) {
    if (a.arg) ESHARP_RETURN_NOT_OK(a.arg->Bind(t.schema()));
    if (a.output) ESHARP_RETURN_NOT_OK(a.output->Bind(t.schema()));
  }
  const size_t p = group_keys.empty() ? 1 : Partitions(ctx);
  ColumnTable out;
  if (p == 1) {
    ESHARP_ASSIGN_OR_RETURN(out, ColumnarHashAggregate(ct, group_keys, aggs));
  } else {
    ESHARP_ASSIGN_OR_RETURN(std::vector<ColumnTable> parts,
                            ColumnarHashPartition(ct, group_keys, p));
    ESHARP_ASSIGN_OR_RETURN(out, RunAndConcat(ctx, p, [&](size_t i) {
                              return ColumnarHashAggregate(parts[i],
                                                           group_keys, aggs);
                            }));
  }
  MeterRows(ctx, t.num_rows(), out.num_rows(), p);
  return Table(std::move(out));
}

Result<Table> ParallelFilter(const ExecContext& ctx, const Table& t,
                             const ExprPtr& pred) {
  const ColumnTable& ct = t.columns();
  ESHARP_RETURN_NOT_OK(pred->Bind(t.schema()));
  ESHARP_ASSIGN_OR_RETURN(
      ColumnTable out, MapChunks(ctx, ct, [&](const ColumnTable& chunk) {
        return ColumnarFilter(chunk, pred);
      }));
  MeterRows(ctx, t.num_rows(), out.num_rows(), Partitions(ctx));
  return Table(std::move(out));
}

Result<Table> ParallelProject(const ExecContext& ctx, const Table& t,
                              const std::vector<ProjectedColumn>& cols) {
  const ColumnTable& ct = t.columns();
  for (const ProjectedColumn& c : cols) {
    ESHARP_RETURN_NOT_OK(c.expr->Bind(t.schema()));
  }
  ESHARP_ASSIGN_OR_RETURN(
      ColumnTable out, MapChunks(ctx, ct, [&](const ColumnTable& chunk) {
        return ColumnarProject(chunk, cols);
      }));
  MeterRows(ctx, t.num_rows(), out.num_rows(), Partitions(ctx));
  return Table(std::move(out));
}

}  // namespace esharp::sql
