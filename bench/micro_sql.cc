// Micro-benchmarks: the SQL engine's columnar kernels on the exact operator
// shapes the clustering iteration runs (edge-shaped fact table, small
// community dimension table).
//
// Each kernel — filter, project, join, aggregate, hash partition — is timed
// single-threaded over a pre-built ColumnTable. The conversion is
// deliberately outside the timed region: on the clustering hot path tables
// stay columnar end-to-end (base tables are converted once at catalog
// registration), so steady-state kernel cost is the number that matters.
// The kernels' results are held to a row-at-a-time reference evaluator by
// tests/sqlengine_columnar_test.cc, not here.
//
// Usage: micro_sql [--rows=N] [--iters=K] [--json=PATH]
//
// Results are published as bench.sql.* gauges (labelled
// {kernel=...,path="columnar"}) into a bench-local MetricsRegistry and
// written as a JSON snapshot (default BENCH_sql.json; schema in
// EXPERIMENTS.md).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "obs/obs.h"
#include "sqlengine/columnar.h"
#include "sqlengine/table.h"

namespace {

using namespace esharp;
using namespace esharp::sql;

// Edge-shaped fact table: (query1, query2, distance), the join/aggregate
// input of every clustering iteration.
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

// Community dimension table: (comm_name, query), one row per vertex.
Table CommunityTable(size_t vertices) {
  TableBuilder b({{"comm_name", DataType::kString},
                  {"query", DataType::kString}});
  for (size_t v = 0; v < vertices; ++v) {
    b.AddRow({Value::String("c" + std::to_string(v / 8)),
              Value::String("v" + std::to_string(v))});
  }
  return *b.Build();
}

// Best-of-K wall time of `fn` (minimum filters out scheduler noise, the
// usual micro-benchmark convention).
double BestOf(size_t iters, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < iters; ++i) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

struct KernelResult {
  const char* kernel;
  size_t rows_in = 0;
  size_t rows_out = 0;
  double seconds = 0;
};

}  // namespace

int main(int argc, char** argv) {
  size_t rows = 200000;
  size_t iters = 5;
  std::string json_path = "BENCH_sql.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = std::strtoul(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::strtoul(argv[i] + 8, nullptr, 10);
    }
  }
  if (rows < 16) rows = 16;
  if (iters < 1) iters = 1;
  const size_t vertices = rows / 8;
  constexpr size_t kPartitions = 8;

  std::printf("\n=== Micro: sqlengine columnar kernels ===\n");
  std::printf("fact table: %zu rows, %zu distinct vertices; best of %zu\n\n",
              rows, vertices, iters);

  const Table edge_table = EdgeTable(rows, vertices, 3);
  const Table community_table = CommunityTable(vertices);
  const ColumnTable& edges = edge_table.columns();
  const ColumnTable& communities = community_table.columns();

  std::vector<KernelResult> results;
  // Times `run`, which returns the kernel's output row count.
  auto time_kernel = [&](const char* kernel, size_t rows_in,
                         const std::function<size_t()>& run) {
    KernelResult r{kernel, rows_in, run()};
    r.seconds = BestOf(iters, [&] { (void)run(); });
    results.push_back(r);
  };

  ExprPtr pred = Gt(Col("distance"), LitDouble(0.5));
  time_kernel("filter", edges.num_rows(),
              [&] { return ColumnarFilter(edges, pred)->num_rows(); });

  std::vector<ProjectedColumn> cols = {
      {Col("query1"), "q"}, {Mul(Col("distance"), LitDouble(2.0)), "d2"}};
  time_kernel("project", edges.num_rows(),
              [&] { return ColumnarProject(edges, cols)->num_rows(); });

  time_kernel("join", edges.num_rows() + communities.num_rows(), [&] {
    return ColumnarHashJoin(edges, communities, {"query1"}, {"query"})
        ->num_rows();
  });

  std::vector<AggSpec> aggs = {SumOf(Col("distance"), "w"), CountStar("n")};
  time_kernel("aggregate", edges.num_rows(), [&] {
    return ColumnarHashAggregate(edges, {"query1"}, aggs)->num_rows();
  });

  time_kernel("hash_partition", edges.num_rows(), [&] {
    const std::vector<ColumnTable> parts =
        *ColumnarHashPartition(edges, {"query1"}, kPartitions);
    size_t out = 0;
    for (const ColumnTable& part : parts) out += part.num_rows();
    return out;
  });

  std::printf("%-16s %-10s %-10s %-12s\n", "Kernel", "RowsIn", "RowsOut",
              "Columnar(ms)");
  obs::MetricsRegistry registry;
  registry.GetGauge("bench.sql.rows")->Set(static_cast<double>(rows));
  for (const KernelResult& r : results) {
    std::printf("%-16s %-10zu %-10zu %-12.3f\n", r.kernel, r.rows_in,
                r.rows_out, r.seconds * 1e3);
    registry
        .GetGauge("bench.sql.seconds", {{"kernel", r.kernel}, {"path", "columnar"}})
        ->Set(r.seconds);
    registry.GetGauge("bench.sql.rows_out", {{"kernel", r.kernel}})
        ->Set(static_cast<double>(r.rows_out));
  }

  Status written = registry.WriteJsonFile(json_path);
  if (!written.ok()) {
    ESHARP_LOG(WARN) << "could not write " << json_path << ": "
                     << written.ToString();
  } else {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
