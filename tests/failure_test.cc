// Failure injection: errors raised deep inside operators, UDFs and
// generators must surface as Status at the API boundary — never crash,
// never silently corrupt — including on the parallel paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "graph/graph.h"
#include "sqlengine/parser.h"
#include "sqlengine/plan.h"

namespace esharp {
namespace {

using namespace esharp::sql;

Table SmallTable(size_t rows) {
  TableBuilder b({{"k", DataType::kInt64}, {"x", DataType::kDouble}});
  Rng rng(5);
  for (size_t i = 0; i < rows; ++i) {
    b.AddRow({Value::Int(static_cast<int64_t>(i % 10)),
              Value::Double(rng.NextDouble())});
  }
  return *b.Build();
}

// ------------------------------------------------------------- UDF errors --

TEST(FailureTest, UdfErrorPropagatesFromSerialFilter) {
  Table t = SmallTable(20);
  ScalarUdf faulty = [](const std::vector<Value>&) -> Result<Value> {
    return Status::Internal("UDF exploded");
  };
  ExprPtr pred = Gt(Udf("boom", faulty, {Col("x")}), LitDouble(0));
  auto result = Executor().Execute(Plan::Values(t).Where(pred), Catalog());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("UDF exploded"),
            std::string::npos);
}

TEST(FailureTest, UdfErrorPropagatesFromParallelOperators) {
  Table t = SmallTable(500);
  std::atomic<int> calls{0};
  // Fails only on some rows, exercising the error path inside workers.
  ScalarUdf flaky = [&calls](const std::vector<Value>& args) -> Result<Value> {
    calls.fetch_add(1);
    if (args[0].double_value() > 0.95) {
      return Status::Internal("flaky row");
    }
    return args[0];
  };
  ThreadPool pool(4);
  ExecContext ctx{&pool, 8, nullptr, "test"};
  auto filtered = ParallelFilter(
      ctx, t, Gt(Udf("flaky", flaky, {Col("x")}), LitDouble(0)));
  ASSERT_FALSE(filtered.ok());
  EXPECT_TRUE(filtered.status().IsInternal());

  auto projected = ParallelProject(
      ctx, t, {{Udf("flaky", flaky, {Col("x")}), "y"}});
  ASSERT_FALSE(projected.ok());
}

TEST(FailureTest, UdfErrorPropagatesThroughParserAndExecutor) {
  Catalog cat;
  cat.Register("t", SmallTable(10));
  FunctionRegistry registry;
  registry.RegisterScalar("boom",
                          [](const std::vector<Value>&) -> Result<Value> {
                            return Status::Internal("kaboom");
                          });
  auto result = ExecuteSql("SELECT boom(x) AS y FROM t", cat, registry);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("kaboom"), std::string::npos);
}

// ------------------------------------------------------- Evaluation errors --

TEST(FailureTest, DivisionByZeroInsidePlanSurfaces) {
  Catalog cat;
  cat.Register("t", SmallTable(5));
  Executor exec;
  Plan plan = Plan::Scan("t").Select({{Div(Col("x"), LitInt(0)), "bad"}});
  auto result = exec.Execute(plan, cat);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("division by zero"),
            std::string::npos);
}

TEST(FailureTest, DeepPlanErrorDoesNotLoseTheRootCause) {
  Catalog cat;
  cat.Register("t", SmallTable(5));
  // A filter over a join over a missing table: the NotFound must bubble up
  // from three levels down.
  Plan plan = Plan::Scan("t")
                  .Join(Plan::Scan("ghost"), {"k"}, {"k"})
                  .Where(Gt(Col("x"), LitDouble(0)))
                  .GroupBy({"k"}, {CountStar("n")});
  Executor exec;
  auto result = exec.Execute(plan, cat);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_NE(result.status().message().find("ghost"), std::string::npos);
}

// ------------------------------------------------------------ Graph input --

TEST(FailureTest, GraphRejectsPathologicalWeights) {
  graph::Graph g;
  g.AddVertex("a");
  g.AddVertex("b");
  EXPECT_TRUE(g.AddEdge(0, 1, std::nan("")).IsInvalidArgument());
  EXPECT_TRUE(
      g.AddEdge(0, 1, std::numeric_limits<double>::infinity())
          .IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(0, 1, -0.0).IsInvalidArgument());
  EXPECT_EQ(g.num_edges(), 0u);
}

// ---------------------------------------------------------- Binding races --

TEST(FailureTest, SharedExpressionSurvivesRepeatedParallelBinding) {
  // The same expression object reused across many parallel executions with
  // the same schema: the fingerprinted Bind must stay correct.
  Table t = SmallTable(300);
  ThreadPool pool(4);
  ExecContext ctx{&pool, 8, nullptr, "test"};
  ExprPtr pred = Gt(Col("x"), LitDouble(0.5));
  size_t expected =
      Executor().Execute(Plan::Values(t).Where(pred), Catalog())->num_rows();
  for (int round = 0; round < 20; ++round) {
    auto out = ParallelFilter(ctx, t, pred);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->num_rows(), expected);
  }
}

TEST(FailureTest, ExpressionRebindsAcrossDifferentSchemas) {
  // The same Col("x") bound against two schemas where x sits at different
  // ordinals must track the right column each time.
  TableBuilder b1({{"x", DataType::kDouble}, {"pad", DataType::kInt64}});
  b1.AddRow({Value::Double(1.5), Value::Int(0)});
  TableBuilder b2({{"pad", DataType::kInt64}, {"x", DataType::kDouble}});
  b2.AddRow({Value::Int(0), Value::Double(2.5)});
  ExprPtr x = Col("x");
  Table t1 = *b1.Build(), t2 = *b2.Build();
  ASSERT_TRUE(x->Bind(t1.schema()).ok());
  EXPECT_DOUBLE_EQ(x->EvalColumn(t1.columns())->ValueAt(0).double_value(), 1.5);
  ASSERT_TRUE(x->Bind(t2.schema()).ok());
  EXPECT_DOUBLE_EQ(x->EvalColumn(t2.columns())->ValueAt(0).double_value(), 2.5);
}

}  // namespace
}  // namespace esharp
