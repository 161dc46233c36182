#include <gtest/gtest.h>

#include "sqlengine/plan.h"

namespace esharp::sql {
namespace {

// Operator semantics through the executor (no pool: every operator runs at
// one partition), over literal tables.
Result<Table> RunPlan(const Plan& plan) {
  return Executor().Execute(plan, Catalog());
}
Plan Values(Table t) { return Plan::Values(std::move(t)); }

// Evaluates `e` over the whole of `t` column-at-a-time; the cell at `row`.
Result<Value> EvalAt(const ExprPtr& e, const Table& t, size_t row) {
  ESHARP_RETURN_NOT_OK(e->Bind(t.schema()));
  ESHARP_ASSIGN_OR_RETURN(ColumnVec v, e->EvalColumn(t.columns()));
  return v.ValueAt(row);
}

Table People() {
  TableBuilder b({{"name", DataType::kString},
                  {"age", DataType::kInt64},
                  {"score", DataType::kDouble}});
  b.AddRow({Value::String("ann"), Value::Int(30), Value::Double(1.5)});
  b.AddRow({Value::String("bob"), Value::Int(25), Value::Double(2.5)});
  b.AddRow({Value::String("cat"), Value::Int(30), Value::Double(0.5)});
  b.AddRow({Value::String("dan"), Value::Int(40), Value::Double(4.0)});
  return *b.Build();
}

// ----------------------------------------------------------- Expressions --

TEST(ExpressionTest, ArithmeticAndComparison) {
  Table t = People();
  ExprPtr e = Gt(Add(Col("age"), LitInt(5)), LitInt(34));
  EXPECT_FALSE(EvalAt(e, t, 1)->bool_value());  // 25+5 > 34 ? no
  EXPECT_TRUE(EvalAt(e, t, 3)->bool_value());   // 40+5 > 34 ? yes
}

TEST(ExpressionTest, IntegerArithmeticStaysExact) {
  Table t = People();
  ExprPtr e = Mul(Col("age"), LitInt(2));
  Value v = *EvalAt(e, t, 0);
  EXPECT_EQ(v.type(), DataType::kInt64);
  EXPECT_EQ(v.int_value(), 60);
}

TEST(ExpressionTest, DivisionIsDoubleAndChecksZero) {
  Table t = People();
  ExprPtr e = Div(Col("age"), LitInt(4));
  EXPECT_DOUBLE_EQ(EvalAt(e, t, 0)->double_value(), 7.5);
  ExprPtr bad = Div(Col("age"), LitInt(0));
  EXPECT_FALSE(EvalAt(bad, t, 0).ok());
}

TEST(ExpressionTest, BooleanShortCircuit) {
  Table t = People();
  // Right side would divide by zero; AND must not evaluate it where the
  // left side is already false (here: every row), nor OR where it is true.
  ExprPtr e = And(Lt(Col("age"), LitInt(0)),
                  Gt(Div(Col("age"), LitInt(0)), LitInt(1)));
  for (size_t row = 0; row < t.num_rows(); ++row) {
    Result<Value> v = EvalAt(e, t, row);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_FALSE(v->bool_value());
  }
  ExprPtr o = Or(Gt(Col("age"), LitInt(0)),
                 Gt(Div(Col("age"), LitInt(0)), LitInt(1)));
  for (size_t row = 0; row < t.num_rows(); ++row) {
    Result<Value> v = EvalAt(o, t, row);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(v->bool_value());
  }
  // The right operand still runs, and fails, on the rows it decides.
  EXPECT_TRUE(EvalAt(And(Gt(Col("age"), LitInt(26)),
                         Gt(Div(Col("age"), LitInt(0)), LitInt(1))),
                     t, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST(ExpressionTest, NotAndNeg) {
  Table t = People();
  ExprPtr e = Not(Eq(Col("name"), LitString("ann")));
  EXPECT_FALSE(EvalAt(e, t, 0)->bool_value());
  ExprPtr n = UnaryExpr(Expr::UnaryOp::kNeg, Col("age"));
  EXPECT_EQ(EvalAt(n, t, 0)->int_value(), -30);
}

TEST(ExpressionTest, UdfReceivesArguments) {
  Table t = People();
  ScalarUdf twice = [](const std::vector<Value>& args) -> Result<Value> {
    return Value::Int(args[0].int_value() * 2);
  };
  ExprPtr e = Udf("twice", twice, {Col("age")});
  EXPECT_EQ(EvalAt(e, t, 1)->int_value(), 50);
  EXPECT_EQ(e->ToString(), "twice(age)");
}

TEST(ExpressionTest, UnboundColumnFails) {
  ExprPtr e = Col("missing");
  Table t = People();
  EXPECT_TRUE(e->Bind(t.schema()).IsNotFound());
}

// ---------------------------------------------------------------- Filter --

TEST(FilterTest, KeepsMatchingRows) {
  Table t = People();
  Table out = *RunPlan(Values(t).Where(Eq(Col("age"), LitInt(30))));
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "ann");
  EXPECT_EQ(out.row(1)[0].string_value(), "cat");
}

TEST(FilterTest, NonBoolPredicateRejected) {
  Table t = People();
  EXPECT_FALSE(RunPlan(Values(t).Where(Add(Col("age"), LitInt(1)))).ok());
}

// --------------------------------------------------------------- Project --

TEST(ProjectTest, ComputesAndRenames) {
  Table t = People();
  Table out = *RunPlan(Values(t).Select(
      {{Col("name"), "who"}, {Mul(Col("age"), LitInt(10)), "decades"}}));
  EXPECT_EQ(out.schema().ToString(), "who:STRING, decades:INT64");
  EXPECT_EQ(out.row(2)[1].int_value(), 300);
}

TEST(ProjectTest, EmptyInputYieldsNullTypes) {
  Table t = *Table::FromRows(Schema({{"a", DataType::kInt64}}), {});
  Table out = *RunPlan(Values(t).Select({{Col("a"), "a2"}}));
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(out.schema().column(0).type, DataType::kNull);
}

// -------------------------------------------------------------- HashJoin --

Table Orders() {
  TableBuilder b({{"who", DataType::kString}, {"item", DataType::kString}});
  b.AddRow({Value::String("ann"), Value::String("book")});
  b.AddRow({Value::String("ann"), Value::String("pen")});
  b.AddRow({Value::String("dan"), Value::String("mug")});
  b.AddRow({Value::String("zed"), Value::String("hat")});
  return *b.Build();
}

TEST(HashJoinTest, InnerJoinMatchesKeys) {
  Table out = *RunPlan(Values(People()).Join(Values(Orders()), {"name"}, {"who"}));
  EXPECT_EQ(out.num_rows(), 3u);  // ann x2, dan x1
  // All output rows agree on the key columns.
  size_t name_idx = *out.schema().IndexOf("name");
  size_t who_idx = *out.schema().IndexOf("who");
  for (const Row& r : out.rows()) {
    EXPECT_EQ(r[name_idx].string_value(), r[who_idx].string_value());
  }
}

TEST(HashJoinTest, LeftOuterPadsWithNulls) {
  Table out = *RunPlan(Values(People()).Join(Values(Orders()), {"name"}, {"who"},
                                         JoinType::kLeftOuter));
  EXPECT_EQ(out.num_rows(), 5u);  // ann x2, bob NULL, cat NULL, dan x1
  size_t item_idx = *out.schema().IndexOf("item");
  size_t nulls = 0;
  for (const Row& r : out.rows()) {
    if (r[item_idx].is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 2u);
}

TEST(HashJoinTest, ClashingColumnNamesArePrefixed) {
  Table a = People(), b = People();
  Table out = *RunPlan(Values(a).Join(Values(b), {"name"}, {"name"}));
  EXPECT_TRUE(out.schema().Contains("r_name"));
  EXPECT_TRUE(out.schema().Contains("r_age"));
  EXPECT_EQ(out.num_rows(), 4u);
}

TEST(HashJoinTest, MultiKeyJoin) {
  TableBuilder l({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  l.AddRow({Value::Int(1), Value::Int(1)});
  l.AddRow({Value::Int(1), Value::Int(2)});
  TableBuilder r({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
  r.AddRow({Value::Int(1), Value::Int(2)});
  Table out = *RunPlan(Values(*l.Build()).Join(Values(*r.Build()), {"a", "b"}, {"x", "y"}));
  EXPECT_EQ(out.num_rows(), 1u);
}

TEST(HashJoinTest, KeyArityMismatchRejected) {
  EXPECT_FALSE(
      RunPlan(Values(People()).Join(Values(Orders()), {"name"}, {})).ok());
}

TEST(HashJoinTest, EmptySidesProduceEmpty) {
  Table empty = *Table::FromRows(Orders().schema(), {});
  EXPECT_EQ(
      RunPlan(Values(People()).Join(Values(empty), {"name"}, {"who"}))->num_rows(),
      0u);
  Table empty_left = *Table::FromRows(People().schema(), {});
  EXPECT_EQ(RunPlan(Values(empty_left).Join(Values(Orders()), {"name"}, {"who"}))
                ->num_rows(),
            0u);
}

// --------------------------------------------------------- HashAggregate --

TEST(HashAggregateTest, CountSumMinMaxAvgPerGroup) {
  Table sorted = *RunPlan(Values(People())
                          .GroupBy({"age"}, {CountStar("n"),
                                             SumOf(Col("score"), "total"),
                                             MinOf(Col("score"), "lo"),
                                             MaxOf(Col("score"), "hi"),
                                             AvgOf(Col("score"), "avg")})
                          .OrderBy({"age"}));
  ASSERT_EQ(sorted.num_rows(), 3u);
  // age=30 group: ann (1.5), cat (0.5).
  EXPECT_EQ(sorted.row(1)[0].int_value(), 30);
  EXPECT_EQ(sorted.row(1)[1].int_value(), 2);
  EXPECT_DOUBLE_EQ(sorted.row(1)[2].double_value(), 2.0);
  EXPECT_DOUBLE_EQ(sorted.row(1)[3].double_value(), 0.5);
  EXPECT_DOUBLE_EQ(sorted.row(1)[4].double_value(), 1.5);
  EXPECT_DOUBLE_EQ(sorted.row(1)[5].double_value(), 1.0);
}

TEST(HashAggregateTest, GlobalAggregateAlwaysOneRow) {
  Table out = *RunPlan(Values(People()).GroupBy({}, {CountStar("n")}));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.row(0)[0].int_value(), 4);
  // Empty input too.
  Table empty = *Table::FromRows(People().schema(), {});
  Table out2 = *RunPlan(Values(empty).GroupBy({}, {CountStar("n")}));
  ASSERT_EQ(out2.num_rows(), 1u);
  EXPECT_EQ(out2.row(0)[0].int_value(), 0);
}

TEST(HashAggregateTest, ArgMaxReturnsOutputAtMaxOrderKey) {
  // argmax(score, name): within each age group, the name with top score.
  Table sorted =
      *RunPlan(Values(People())
               .GroupBy({"age"}, {ArgMaxOf(Col("score"), Col("name"), "best")})
               .OrderBy({"age"}));
  EXPECT_EQ(sorted.row(0)[1].string_value(), "bob");  // age 25
  EXPECT_EQ(sorted.row(1)[1].string_value(), "ann");  // 1.5 > 0.5
  EXPECT_EQ(sorted.row(2)[1].string_value(), "dan");
}

TEST(HashAggregateTest, ArgMaxTieBreaksTowardSmallerOutput) {
  TableBuilder b({{"g", DataType::kInt64},
                  {"k", DataType::kDouble},
                  {"v", DataType::kString}});
  b.AddRow({Value::Int(1), Value::Double(5.0), Value::String("zz")});
  b.AddRow({Value::Int(1), Value::Double(5.0), Value::String("aa")});
  Table out = *RunPlan(
      Values(*b.Build()).GroupBy({"g"}, {ArgMaxOf(Col("k"), Col("v"), "best")}));
  EXPECT_EQ(out.row(0)[1].string_value(), "aa");
}

TEST(HashAggregateTest, ArgMinMirrorsArgMax) {
  Table sorted = *RunPlan(
      Values(People())
          .GroupBy({"age"}, {ArgMinOf(Col("score"), Col("name"), "worst")})
          .OrderBy({"age"}));
  EXPECT_EQ(sorted.row(1)[1].string_value(), "cat");  // 0.5 < 1.5
}

TEST(HashAggregateTest, SumOverIntsStaysInt) {
  Table out =
      *RunPlan(Values(People()).GroupBy({}, {SumOf(Col("age"), "total")}));
  EXPECT_EQ(out.row(0)[0].type(), DataType::kInt64);
  EXPECT_EQ(out.row(0)[0].int_value(), 125);
}

TEST(HashAggregateTest, EmptyInputFinishes) {
  // Over no rows COUNT is 0 and every other aggregate NULL.
  Table empty = *Table::FromRows(People().schema(), {});
  Table out = *RunPlan(Values(empty).GroupBy(
      {}, {CountStar("n"), SumOf(Col("age"), "s"), MaxOf(Col("age"), "m"),
           ArgMaxOf(Col("score"), Col("name"), "best")}));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.row(0)[0].int_value(), 0);
  EXPECT_TRUE(out.row(0)[1].is_null());
  EXPECT_TRUE(out.row(0)[2].is_null());
  EXPECT_TRUE(out.row(0)[3].is_null());
}

// ------------------------------------------------------ Union & Distinct --

TEST(UnionAllTest, ConcatenatesAndChecksArity) {
  Table out = *RunPlan(Values(People()).Union(Values(People())));
  EXPECT_EQ(out.num_rows(), 8u);
  EXPECT_FALSE(RunPlan(Values(People()).Union(Values(Orders()))).ok());
}

TEST(DistinctTest, RemovesDuplicateRows) {
  TableBuilder b({{"a", DataType::kInt64}});
  b.AddRow({Value::Int(1)});
  b.AddRow({Value::Int(2)});
  b.AddRow({Value::Int(1)});
  Table out = *RunPlan(Values(*b.Build()).Distinct());
  EXPECT_EQ(out.num_rows(), 2u);
  // First occurrence order preserved.
  EXPECT_EQ(out.row(0)[0].int_value(), 1);
  EXPECT_EQ(out.row(1)[0].int_value(), 2);
}

// ---------------------------------------------------------- Sort & Limit --

TEST(SortByTest, MultiKeyMixedDirections) {
  Table out =
      *RunPlan(Values(People()).OrderBy({"age", "score"}, {true, false}));
  EXPECT_EQ(out.row(0)[0].string_value(), "bob");
  EXPECT_EQ(out.row(1)[0].string_value(), "ann");  // 30, score desc: 1.5 first
  EXPECT_EQ(out.row(2)[0].string_value(), "cat");
  EXPECT_EQ(out.row(3)[0].string_value(), "dan");
}

TEST(SortByTest, UnknownKeyRejected) {
  EXPECT_FALSE(RunPlan(Values(People()).OrderBy({"nope"})).ok());
}

TEST(LimitTest, TruncatesAndClamps) {
  EXPECT_EQ(RunPlan(Values(People()).Take(2))->num_rows(), 2u);
  EXPECT_EQ(RunPlan(Values(People()).Take(100))->num_rows(), 4u);
  EXPECT_EQ(RunPlan(Values(People()).Take(0))->num_rows(), 0u);
}

}  // namespace
}  // namespace esharp::sql
