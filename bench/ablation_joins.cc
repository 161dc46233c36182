// Ablation: the two parallel join strategies of §4.2.3.
//
// The paper describes a replicated join (replicate and index the
// communities table at each node, split the graph) for when the build side
// fits in memory, and chained map-side joins (co-partition both tables)
// otherwise. This bench measures both against the single-threaded columnar
// kernel (ColumnarHashJoin) on the exact join shape the clustering iteration
// runs: a large edge table joined to a small communities table.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "sqlengine/parallel.h"

namespace {

using namespace esharp;
using namespace esharp::sql;

Table EdgeTable(size_t rows, size_t vertices, uint64_t seed) {
  Rng rng(seed);
  TableBuilder b({{"query1", DataType::kString},
                  {"query2", DataType::kString},
                  {"distance", DataType::kDouble}});
  for (size_t i = 0; i < rows; ++i) {
    b.AddRow({Value::String("v" + std::to_string(rng.Uniform(vertices))),
              Value::String("v" + std::to_string(rng.Uniform(vertices))),
              Value::Double(rng.NextDouble())});
  }
  return *b.Build();
}

Table CommunityTable(size_t vertices) {
  TableBuilder b({{"comm_name", DataType::kString},
                  {"query", DataType::kString}});
  for (size_t v = 0; v < vertices; ++v) {
    b.AddRow({Value::String("c" + std::to_string(v / 8)),
              Value::String("v" + std::to_string(v))});
  }
  return *b.Build();
}

void BM_SerialJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table edges = EdgeTable(rows, rows / 8, 3);
  Table communities = CommunityTable(rows / 8);
  const ColumnTable& edge_cols = edges.columns();
  const ColumnTable& community_cols = communities.columns();
  for (auto _ : state) {
    auto out =
        ColumnarHashJoin(edge_cols, community_cols, {"query1"}, {"query"});
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_SerialJoin)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);

template <JoinStrategy kStrategy>
void BM_ParallelJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table edges = EdgeTable(rows, rows / 8, 3);
  Table communities = CommunityTable(rows / 8);
  ThreadPool pool(8);
  ExecContext ctx{&pool, 8, nullptr, "bench"};
  for (auto _ : state) {
    auto out = ParallelHashJoin(ctx, edges, communities, {"query1"},
                                {"query"}, JoinType::kInner, kStrategy);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
}
BENCHMARK_TEMPLATE(BM_ParallelJoin, JoinStrategy::kReplicated)
    ->Arg(10000)->Arg(50000)->Arg(200000)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ParallelJoin, JoinStrategy::kPartitioned)
    ->Arg(10000)->Arg(50000)->Arg(200000)->Unit(benchmark::kMillisecond);

void BM_ParallelAggregate(benchmark::State& state) {
  size_t rows = 100000;
  Table edges = EdgeTable(rows, rows / 8, 5);
  ThreadPool pool(8);
  ExecContext ctx{&pool, static_cast<size_t>(state.range(0)), nullptr,
                  "bench"};
  std::vector<AggSpec> aggs = {SumOf(Col("distance"), "w"),
                               CountStar("n")};
  for (auto _ : state) {
    auto out = ParallelHashAggregate(ctx, edges, {"query1"}, aggs);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ParallelAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
