// Ablation: community-detection backends.
//
// Compares the three detectors this repository implements on planted-
// partition graphs of growing size:
//  * Newman's sequential greedy heuristic (§4.2.1) — quality reference;
//  * the paper's parallel neighborhood-merge algorithm, native in-memory;
//  * the same algorithm executed as the SQL text of Fig. 4 on the
//    relational engine, serial and parallel (§4.2.2-4.2.3).
//
// google-benchmark timings plus a printed quality table (modularity and
// iteration counts), since the paper's pitch is that the SQL formulation
// buys distribution at modest quality cost versus the sequential greedy.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "community/newman.h"
#include "community/parallel_cd.h"
#include "community/sql_cd.h"
#include "common/rng.h"

namespace {

using namespace esharp;

graph::Graph PlantedGraph(size_t groups, size_t group_size, uint64_t seed) {
  Rng rng(seed);
  graph::Graph g;
  size_t n = groups * group_size;
  for (size_t i = 0; i < n; ++i) g.AddVertex("v" + std::to_string(i));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      bool same = (a / group_size) == (b / group_size);
      if (rng.Bernoulli(same ? 0.6 : 8.0 / static_cast<double>(n))) {
        (void)g.AddEdge(static_cast<graph::VertexId>(a),
                        static_cast<graph::VertexId>(b),
                        0.2 + 0.8 * rng.NextDouble());
      }
    }
  }
  g.Finalize();
  return g;
}

void BM_NewmanGreedy(benchmark::State& state) {
  graph::Graph g = PlantedGraph(static_cast<size_t>(state.range(0)), 12, 7);
  for (auto _ : state) {
    auto r = community::DetectCommunitiesNewman(g);
    benchmark::DoNotOptimize(r);
  }
  state.counters["vertices"] = static_cast<double>(g.num_vertices());
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_NewmanGreedy)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_ParallelNative(benchmark::State& state) {
  graph::Graph g = PlantedGraph(static_cast<size_t>(state.range(0)), 12, 7);
  ThreadPool pool(8);
  community::ParallelCdOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    auto r = community::DetectCommunitiesParallel(g, options);
    benchmark::DoNotOptimize(r);
  }
  state.counters["vertices"] = static_cast<double>(g.num_vertices());
}
BENCHMARK(BM_ParallelNative)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_SqlSerial(benchmark::State& state) {
  graph::Graph g = PlantedGraph(static_cast<size_t>(state.range(0)), 12, 7);
  for (auto _ : state) {
    auto r = community::DetectCommunitiesSql(g);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SqlSerial)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_SqlParallel(benchmark::State& state) {
  graph::Graph g = PlantedGraph(static_cast<size_t>(state.range(0)), 12, 7);
  ThreadPool pool(8);
  community::SqlCdOptions options;
  options.pool = &pool;
  options.num_partitions = 8;
  for (auto _ : state) {
    auto r = community::DetectCommunitiesSql(g, options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SqlParallel)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void PrintQualityTable() {
  std::printf("\n=== Ablation: detection quality (planted partition) ===\n");
  std::printf("%-10s %-22s %-14s %-12s\n", "Vertices", "Algorithm",
              "Modularity", "Iterations");
  for (size_t groups : {8, 16, 32}) {
    graph::Graph g = PlantedGraph(groups, 12, 7);
    auto newman = *community::DetectCommunitiesNewman(g);
    auto parallel = *community::DetectCommunitiesParallel(g);
    auto sql = *community::DetectCommunitiesSql(g);
    std::printf("%-10zu %-22s %-14.3f %-12zu\n", g.num_vertices(),
                "newman-greedy", newman.modularity_per_iteration.back(),
                newman.iterations);
    std::printf("%-10zu %-22s %-14.3f %-12zu\n", g.num_vertices(),
                "parallel-native", parallel.modularity_per_iteration.back(),
                parallel.iterations);
    std::printf("%-10zu %-22s %-14.3f %-12zu\n", g.num_vertices(),
                "sql-engine", sql.modularity_per_iteration.back(),
                sql.iterations);
  }
  std::printf(
      "Shape: parallel/sql modularity tracks the greedy reference closely\n"
      "while converging in a handful of bulk iterations instead of one\n"
      "merge at a time.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke (used by the `bench`-labelled ctest smoke runs) skips the
  // quality table, which runs all three detectors at the largest size.
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!smoke) PrintQualityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
