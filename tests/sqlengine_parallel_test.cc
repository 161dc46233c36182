#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "sql_reference.h"
#include "sqlengine/catalog.h"
#include "sqlengine/parallel.h"
#include "sqlengine/plan.h"

namespace esharp::sql {
namespace {

// Random tables for the parallel-vs-reference equivalence properties.
Table RandomTable(size_t rows, size_t key_cardinality, uint64_t seed) {
  Rng rng(seed);
  TableBuilder b({{"k", DataType::kInt64},
                  {"s", DataType::kString},
                  {"x", DataType::kDouble}});
  for (size_t i = 0; i < rows; ++i) {
    int64_t k = static_cast<int64_t>(rng.Uniform(key_cardinality));
    b.AddRow({Value::Int(k), Value::String("s" + std::to_string(k % 7)),
              Value::Double(rng.NextDouble())});
  }
  return *b.Build();
}

// Canonical multiset comparison.
void ExpectSameRows(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  const std::vector<Row> as = ref::SortedRows(a);
  const std::vector<Row> bs = ref::SortedRows(b);
  for (size_t i = 0; i < as.size(); ++i) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(as[i][c].Compare(bs[i][c]), 0)
          << "row " << i << " col " << c;
    }
  }
}

// ----------------------------------------------------------- Partitioning --

std::vector<Table> HashParts(const Table& t, size_t parts) {
  Result<std::vector<ColumnTable>> cparts =
      ColumnarHashPartition(t.columns(), {"k"}, parts);
  EXPECT_TRUE(cparts.ok()) << cparts.status().ToString();
  std::vector<Table> out;
  for (ColumnTable& p : *cparts) out.emplace_back(std::move(p));
  return out;
}

TEST(HashPartitionTest, PartitionsAreDisjointAndComplete) {
  Table t = RandomTable(500, 40, 1);
  auto parts = HashParts(t, 7);
  size_t total = 0;
  for (const Table& p : parts) total += p.num_rows();
  EXPECT_EQ(total, t.num_rows());
}

TEST(HashPartitionTest, SameKeySamePartition) {
  Table t = RandomTable(500, 10, 2);
  auto parts = HashParts(t, 5);
  // Every key must appear in exactly one partition.
  std::map<int64_t, std::set<size_t>> where;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (const Row& r : parts[p].rows()) {
      where[r[0].int_value()].insert(p);
    }
  }
  for (const auto& [k, ps] : where) EXPECT_EQ(ps.size(), 1u) << "key " << k;
}

TEST(HashPartitionTest, ZeroPartitionsRejected) {
  EXPECT_FALSE(
      ColumnarHashPartition(RandomTable(5, 2, 3).columns(), {"k"}, 0).ok());
}

TEST(RoundRobinPartitionTest, CoversAllRows) {
  Table t = RandomTable(103, 5, 4);
  auto parts = ColumnarRoundRobinPartition(t.columns(), 8);
  size_t total = 0;
  for (const ColumnTable& p : parts) total += p.num_rows();
  EXPECT_EQ(total, 103u);
  Result<ColumnTable> whole = ColumnarConcat(parts);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->col(0).ValueAt(0), t.row(0)[0]);  // order preserved
}

// -------------------------------------- Parallel == reference properties --

struct ParallelCase {
  size_t partitions;
  JoinStrategy strategy;
};

class ParallelJoinTest
    : public ::testing::TestWithParam<std::tuple<size_t, JoinStrategy>> {};

TEST_P(ParallelJoinTest, MatchesReferenceJoin) {
  auto [partitions, strategy] = GetParam();
  ThreadPool pool(4);
  ExecContext ctx{&pool, partitions, nullptr, "test"};
  Table left = RandomTable(400, 30, 5);
  Table right = RandomTable(300, 30, 6);
  Table expected = *ref::Join(left, right, {"k"}, {"k"});
  Table parallel = *ParallelHashJoin(ctx, left, right, {"k"}, {"k"},
                                     JoinType::kInner, strategy);
  ExpectSameRows(expected, parallel);
}

TEST_P(ParallelJoinTest, LeftOuterMatchesReference) {
  auto [partitions, strategy] = GetParam();
  ThreadPool pool(4);
  ExecContext ctx{&pool, partitions, nullptr, "test"};
  Table left = RandomTable(200, 60, 7);   // many unmatched keys
  Table right = RandomTable(50, 60, 8);
  Table expected = *ref::Join(left, right, {"k"}, {"k"}, JoinType::kLeftOuter);
  Table parallel = *ParallelHashJoin(ctx, left, right, {"k"}, {"k"},
                                     JoinType::kLeftOuter, strategy);
  ExpectSameRows(expected, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelJoinTest,
    ::testing::Combine(::testing::Values(1, 2, 8, 17),
                       ::testing::Values(JoinStrategy::kReplicated,
                                         JoinStrategy::kPartitioned)));

class ParallelAggTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelAggTest, MatchesReferenceAggregate) {
  ThreadPool pool(4);
  ExecContext ctx{&pool, GetParam(), nullptr, "test"};
  Table t = RandomTable(1000, 25, 9);
  std::vector<AggSpec> aggs = {CountStar("n"), SumOf(Col("x"), "sx"),
                               MaxOf(Col("x"), "mx"),
                               ArgMaxOf(Col("x"), Col("s"), "best")};
  Table expected = *ref::Aggregate(t, {"k"}, aggs);
  Table parallel = *ParallelHashAggregate(ctx, t, {"k"}, aggs);
  ExpectSameRows(expected, parallel);
}

TEST_P(ParallelAggTest, FilterAndProjectMatchReference) {
  ThreadPool pool(4);
  ExecContext ctx{&pool, GetParam(), nullptr, "test"};
  Table t = RandomTable(777, 25, 10);
  ExprPtr pred = Gt(Col("x"), LitDouble(0.5));
  ExpectSameRows(*ref::Filter(t, pred), *ParallelFilter(ctx, t, pred));
  std::vector<ProjectedColumn> cols = {{Col("k"), "k"},
                                       {Mul(Col("x"), LitDouble(2)), "x2"}};
  ExpectSameRows(*ref::Project(t, cols), *ParallelProject(ctx, t, cols));
}

INSTANTIATE_TEST_SUITE_P(Fanouts, ParallelAggTest,
                         ::testing::Values(1, 3, 8, 16));

TEST(ParallelTest, MeterRecordsRows) {
  ThreadPool pool(2);
  ResourceMeter meter;
  ExecContext ctx{&pool, 4, &meter, "stage_x"};
  Table t = RandomTable(100, 5, 11);
  ASSERT_TRUE(ParallelFilter(ctx, t, Gt(Col("x"), LitDouble(-1))).ok());
  EXPECT_EQ(meter.Get("stage_x").rows_read, 100u);
  EXPECT_EQ(meter.Get("stage_x").rows_written, 100u);
}

// ----------------------------------------------------------------- Plans --

TEST(CatalogTest, RegisterGetDrop) {
  Catalog cat;
  cat.Register("t", RandomTable(5, 2, 12));
  EXPECT_TRUE(cat.Contains("t"));
  EXPECT_EQ((*cat.Get("t"))->num_rows(), 5u);
  EXPECT_FALSE(cat.Get("missing").ok());
  cat.Drop("t");
  EXPECT_FALSE(cat.Contains("t"));
  EXPECT_TRUE(cat.Names().empty());
}

TEST(PlanTest, ScanFilterProjectPipeline) {
  Catalog cat;
  cat.Register("t", RandomTable(100, 10, 13));
  Plan plan = Plan::Scan("t")
                  .Where(Eq(Col("k"), LitInt(3)))
                  .Select({{Col("x"), "x"}});
  Executor exec;
  Table out = *exec.Execute(plan, cat);
  const Table& source = **cat.Get("t");
  Table expected = *ref::Project(*ref::Filter(source, Eq(Col("k"), LitInt(3))),
                                 {{Col("x"), "x"}});
  EXPECT_EQ(out.num_rows(), expected.num_rows());
}

TEST(PlanTest, JoinAggregateOrderLimit) {
  Catalog cat;
  cat.Register("l", RandomTable(200, 20, 14));
  cat.Register("r", RandomTable(100, 20, 15));
  Plan plan = Plan::Scan("l")
                  .Join(Plan::Scan("r"), {"k"}, {"k"})
                  .GroupBy({"k"}, {CountStar("n")})
                  .OrderBy({"n", "k"}, {false, true})
                  .Take(5);
  Executor exec;
  Table out = *exec.Execute(plan, cat);
  EXPECT_LE(out.num_rows(), 5u);
  // Counts are non-increasing.
  for (size_t i = 1; i < out.num_rows(); ++i) {
    EXPECT_GE(out.row(i - 1)[1].int_value(), out.row(i)[1].int_value());
  }
}

TEST(PlanTest, ParallelExecutorMatchesSerial) {
  Catalog cat;
  cat.Register("l", RandomTable(300, 12, 16));
  cat.Register("r", RandomTable(200, 12, 17));
  Plan plan = Plan::Scan("l")
                  .Join(Plan::Scan("r"), {"k"}, {"k"})
                  .Where(Gt(Col("x"), LitDouble(0.2)))
                  .GroupBy({"k"}, {CountStar("n"), SumOf(Col("x"), "sx")});
  Executor serial;
  ThreadPool pool(4);
  ExecutorOptions par_options;
  par_options.pool = &pool;
  par_options.num_partitions = 6;
  Executor parallel(par_options);
  ExpectSameRows(*serial.Execute(plan, cat), *parallel.Execute(plan, cat));
}

TEST(PlanTest, ValuesDistinctUnion) {
  TableBuilder b({{"a", DataType::kInt64}});
  b.AddRow({Value::Int(1)});
  b.AddRow({Value::Int(1)});
  Plan values = Plan::Values(*b.Build());
  Plan plan = values.Distinct().Union(values);
  Executor exec;
  Catalog cat;
  Table out = *exec.Execute(plan, cat);
  EXPECT_EQ(out.num_rows(), 3u);  // 1 distinct + 2 original
}

TEST(PlanTest, ExplainRendersTree) {
  Plan plan = Plan::Scan("graph")
                  .Join(Plan::Scan("communities"), {"query1"}, {"query"})
                  .Where(Gt(Col("distance"), LitDouble(0)))
                  .GroupBy({"query2"}, {CountStar("n")});
  std::string text = plan.Explain();
  EXPECT_NE(text.find("Scan(graph)"), std::string::npos);
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("Aggregate"), std::string::npos);
}

TEST(PlanTest, MissingTableSurfacesNotFound) {
  Executor exec;
  Catalog cat;
  EXPECT_TRUE(exec.Execute(Plan::Scan("ghost"), cat).status().IsNotFound());
}

// ---------------------------------------------------------- EXPLAIN ANALYZE --

// A table with exactly known operator cardinalities: 100 rows, 40 of them
// with x > 0 spread over all 10 key values.
Table DeterministicTable() {
  TableBuilder b({{"k", DataType::kInt64}, {"x", DataType::kDouble}});
  for (int64_t i = 0; i < 100; ++i) {
    b.AddRow({Value::Int(i % 10), Value::Double(i < 40 ? 1.0 : -1.0)});
  }
  return *b.Build();
}

TEST(ExplainAnalyzeTest, RowCountsAreExactUnderParallelExecution) {
  Catalog cat;
  cat.Register("t", DeterministicTable());
  Plan plan = Plan::Scan("t")
                  .Where(Gt(Col("x"), LitDouble(0)))
                  .GroupBy({"k"}, {CountStar("n")});

  ThreadPool pool(4);
  ExecutorOptions options;
  options.pool = &pool;
  options.num_partitions = 6;
  Executor parallel(options);
  ExplainStats stats;
  Table out = *parallel.Execute(plan, cat, &stats);
  EXPECT_EQ(out.num_rows(), 10u);

  // Tree shape mirrors the plan: Aggregate -> Filter -> Scan.
  ASSERT_EQ(stats.NodeCount(), 3u);
  EXPECT_NE(stats.op.find("Aggregate"), std::string::npos) << stats.op;
  ASSERT_EQ(stats.children.size(), 1u);
  const ExplainStats& filter = *stats.children[0];
  EXPECT_NE(filter.op.find("Filter"), std::string::npos) << filter.op;
  ASSERT_EQ(filter.children.size(), 1u);
  const ExplainStats& scan = *filter.children[0];
  EXPECT_NE(scan.op.find("Scan(t)"), std::string::npos) << scan.op;

  // Exact cardinalities even though filter and aggregate ran partitioned
  // across the pool: rows are metered on the coordinating thread over the
  // materialized inputs/outputs, not accumulated racily by workers.
  EXPECT_EQ(scan.rows_in, 100u);
  EXPECT_EQ(scan.rows_out, 100u);
  EXPECT_EQ(scan.batches, 1u);  // scans are not partitioned
  EXPECT_EQ(filter.rows_in, 100u);
  EXPECT_EQ(filter.rows_out, 40u);
  EXPECT_EQ(filter.batches, 6u);  // one batch per partition
  EXPECT_EQ(stats.rows_in, 40u);
  EXPECT_EQ(stats.rows_out, 10u);
  EXPECT_EQ(stats.batches, 6u);

  // And they agree with a serial run of the same plan.
  Executor serial;
  ExplainStats serial_stats;
  (void)*serial.Execute(plan, cat, &serial_stats);
  EXPECT_EQ(serial_stats.children[0]->rows_out, filter.rows_out);
  EXPECT_EQ(serial_stats.rows_in, stats.rows_in);
  EXPECT_EQ(serial_stats.rows_out, stats.rows_out);
  EXPECT_EQ(serial_stats.children[0]->batches, 1u);

  // The rendered report carries the numbers (EXPLAIN ANALYZE style).
  std::string report = stats.ToString();
  EXPECT_NE(report.find("rows_in=100"), std::string::npos) << report;
  EXPECT_NE(report.find("rows_out=40"), std::string::npos) << report;
  EXPECT_NE(report.find("batches=6"), std::string::npos) << report;

  // Execute() with stats clears previous contents before profiling.
  Table again = *parallel.Execute(plan, cat, &stats);
  EXPECT_EQ(again.num_rows(), 10u);
  EXPECT_EQ(stats.NodeCount(), 3u);
}

TEST(ExplainAnalyzeTest, JoinCountsIdenticalAcrossJoinStrategies) {
  Catalog cat;
  cat.Register("l", RandomTable(300, 12, 23));
  cat.Register("r", RandomTable(200, 12, 24));
  Plan plan = Plan::Scan("l").Join(Plan::Scan("r"), {"k"}, {"k"});
  ThreadPool pool(4);
  ExecutorOptions options;
  options.pool = &pool;
  options.num_partitions = 5;

  options.join_strategy = JoinStrategy::kPartitioned;
  ExplainStats partitioned;
  Table ptab = *Executor(options).Execute(plan, cat, &partitioned);
  options.join_strategy = JoinStrategy::kReplicated;
  ExplainStats replicated;
  Table rtab = *Executor(options).Execute(plan, cat, &replicated);

  ExpectSameRows(ptab, rtab);
  EXPECT_EQ(partitioned.rows_in, replicated.rows_in);
  EXPECT_EQ(partitioned.rows_out, replicated.rows_out);
  EXPECT_EQ(partitioned.batches, replicated.batches);
  EXPECT_EQ(partitioned.rows_in, 500u);
  EXPECT_EQ(partitioned.batches, 5u);
}

TEST(ExplainAnalyzeTest, JoinRecordsBothInputs) {
  Catalog cat;
  cat.Register("l", RandomTable(300, 12, 21));
  cat.Register("r", RandomTable(200, 12, 22));
  Plan plan = Plan::Scan("l").Join(Plan::Scan("r"), {"k"}, {"k"});
  ThreadPool pool(4);
  ExecutorOptions options;
  options.pool = &pool;
  options.num_partitions = 5;
  Executor parallel(options);
  ExplainStats stats;
  Table out = *parallel.Execute(plan, cat, &stats);
  EXPECT_EQ(stats.rows_in, 500u);  // left + right
  EXPECT_EQ(stats.rows_out, out.num_rows());
  EXPECT_EQ(stats.batches, 5u);
  ASSERT_EQ(stats.children.size(), 2u);
  EXPECT_EQ(stats.children[0]->rows_out, 300u);
  EXPECT_EQ(stats.children[1]->rows_out, 200u);
}

}  // namespace
}  // namespace esharp::sql
