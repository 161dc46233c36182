#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "sql_reference.h"
#include "sqlengine/catalog.h"
#include "sqlengine/column.h"
#include "sqlengine/columnar.h"
#include "sqlengine/parallel.h"
#include "sqlengine/plan.h"

namespace esharp::sql {
namespace {

// ------------------------------------------------------------- Harness ----
//
// Randomized equivalence suite: every columnar kernel must produce the same
// multiset of rows as the row-at-a-time reference evaluator
// (sql_reference.h), including NULLs, empty inputs, and single-partition
// edge cases; order-defined kernels (Distinct, Sort, Limit, UnionAll) must
// produce the same rows in the same order.

const Schema& RandomSchema() {
  static const Schema schema({{"k", DataType::kInt64},
                              {"s", DataType::kString},
                              {"x", DataType::kDouble},
                              {"f", DataType::kBool}});
  return schema;
}

// Random rows over all four concrete types with NULLs sprinkled in.
std::vector<Row> RandomNullableRows(size_t rows, size_t key_cardinality,
                                    uint64_t seed, double null_prob = 0.15) {
  Rng rng(seed);
  std::vector<Row> out;
  for (size_t i = 0; i < rows; ++i) {
    int64_t k = static_cast<int64_t>(rng.Uniform(key_cardinality));
    Row r;
    r.push_back(rng.Bernoulli(null_prob) ? Value::Null() : Value::Int(k));
    r.push_back(rng.Bernoulli(null_prob)
                    ? Value::Null()
                    : Value::String("s" + std::to_string(k % 5)));
    r.push_back(rng.Bernoulli(null_prob) ? Value::Null()
                                         : Value::Double(rng.NextDouble()));
    r.push_back(rng.Bernoulli(null_prob) ? Value::Null()
                                         : Value::Bool(rng.Bernoulli(0.5)));
    out.push_back(std::move(r));
  }
  return out;
}

Table RandomNullableTable(size_t rows, size_t key_cardinality, uint64_t seed,
                          double null_prob = 0.15) {
  return *Table::FromRows(
      RandomSchema(),
      RandomNullableRows(rows, key_cardinality, seed, null_prob));
}

Table EmptyTable() { return *Table::FromRows(RandomSchema(), {}); }

// Cell-exact comparison of two row lists in order (Value::Compare == 0).
void ExpectSameRowList(const std::vector<Row>& a, const std::vector<Row>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what;
    for (size_t c = 0; c < a[i].size(); ++c) {
      ASSERT_EQ(a[i][c].Compare(b[i][c]), 0)
          << what << ": row " << i << " col " << c << ": "
          << a[i][c].ToString() << " vs " << b[i][c].ToString();
    }
  }
}

// Canonical lex-sorted comparison, cell-exact.
void ExpectSameRows(const Table& a, const Table& b, const std::string& what) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  ExpectSameRowList(ref::SortedRows(a), ref::SortedRows(b), what);
}

// Cell-exact comparison in row order.
void ExpectSameRowsInOrder(const Table& a, const Table& b,
                           const std::string& what) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  ExpectSameRowList(a.rows(), b.rows(), what);
}

// ------------------------------------------------------- Conversions ------

TEST(ColumnTableTest, RoundTripIsLossless) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::vector<Row> in = RandomNullableRows(200, 12, seed);
    Table t = *Table::FromRows(RandomSchema(), in);
    ASSERT_EQ(t.num_rows(), in.size());
    std::vector<Row> rows = t.rows();
    for (size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(t.row(i), rows[i]);
      for (size_t c = 0; c < t.num_columns(); ++c) {
        // Cell-exact including the type (1 vs 1.0 must round-trip as-is).
        ASSERT_EQ(rows[i][c].type(), in[i][c].type());
        ASSERT_EQ(rows[i][c].Compare(in[i][c]), 0);
      }
    }
  }
}

TEST(ColumnTableTest, EmptyAndAllNullColumns) {
  ColumnTable empty = EmptyTable().columns();
  EXPECT_EQ(empty.num_rows(), 0u);

  TableBuilder b({{"n", DataType::kNull}, {"k", DataType::kInt64}});
  b.AddRow({Value::Null(), Value::Int(1)});
  b.AddRow({Value::Null(), Value::Null()});
  Table t = *b.Build();
  const ColumnTable& ct = t.columns();
  EXPECT_EQ(ct.col(0).type, DataType::kNull);
  std::vector<Row> rows = ct.MaterializeRows();
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_TRUE(rows[1][1].is_null());
}

TEST(ColumnTableTest, UdfReturningMixedTypesIsInvalidArgument) {
  ScalarUdf int_or_string = [](const std::vector<Value>& args) -> Result<Value> {
    return args[0].int_value() % 2 == 0 ? Value::Int(0) : Value::String("odd");
  };
  TableBuilder b({{"k", DataType::kInt64}});
  b.AddRow({Value::Int(2)});
  b.AddRow({Value::Int(3)});
  ExprPtr e = Udf("parity", int_or_string, {Col("k")});
  Table t = *b.Build();
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  Result<ColumnVec> col = e->EvalColumn(t.columns());
  ASSERT_FALSE(col.ok());
  EXPECT_TRUE(col.status().IsInvalidArgument());
  EXPECT_NE(col.status().ToString().find("UDF parity mixes INT64 and STRING"),
            std::string::npos)
      << col.status().ToString();
}

TEST(ColumnTableTest, HashesMatchRowHashes) {
  Table t = RandomNullableTable(300, 20, 4);
  const ColumnTable& ct = t.columns();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      ASSERT_EQ(ct.col(c).HashAt(i), t.row(i)[c].Hash())
          << "row " << i << " col " << c;
    }
  }
}

// --------------------------------------------------------------- Filter ---

TEST(ColumnarKernelTest, FilterMatchesReference) {
  std::vector<ExprPtr> preds = {
      Gt(Col("x"), LitDouble(0.5)),
      And(Gt(Col("x"), LitDouble(0.2)), Eq(Col("s"), LitString("s1"))),
      Or(Eq(Col("k"), LitInt(3)), Not(Col("f"))),
      Le(Col("k"), LitInt(5)),
      // Guards: k is 0 on some rows, where the division must not run.
      And(Gt(Col("k"), LitInt(0)), Gt(Div(LitInt(10), Col("k")), LitDouble(2))),
      Or(Eq(Col("k"), LitInt(0)), Lt(Div(LitInt(10), Col("k")), LitDouble(2))),
  };
  for (uint64_t seed = 10; seed < 16; ++seed) {
    // NOTE: no NULLs here — a filter requires the predicate to be all-BOOL,
    // so NULL-producing predicates are an error (checked separately below).
    Table t = RandomNullableTable(250, 9, seed, /*null_prob=*/0.0);
    for (const ExprPtr& pred : preds) {
      Result<Table> row = ref::Filter(t, pred);
      Result<ColumnTable> col = ColumnarFilter(t.columns(), pred);
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      ASSERT_TRUE(col.ok()) << col.status().ToString();
      ExpectSameRows(*row, Table(std::move(col).ValueOrDie()),
                     "filter seed " + std::to_string(seed));
    }
  }
}

TEST(ColumnarKernelTest, FilterErrorParity) {
  Table t = RandomNullableTable(50, 5, 20, /*null_prob=*/0.0);
  // Non-BOOL predicate: same error code and message as the reference.
  Result<Table> row = ref::Filter(t, Add(Col("k"), LitInt(1)));
  Result<ColumnTable> col =
      ColumnarFilter(t.columns(), Add(Col("k"), LitInt(1)));
  ASSERT_FALSE(row.ok());
  ASSERT_FALSE(col.ok());
  EXPECT_TRUE(col.status().IsInvalidArgument());
  EXPECT_EQ(row.status().ToString(), col.status().ToString());
}

TEST(ColumnarKernelTest, FilterEmptyInput) {
  ExprPtr pred = Gt(Col("x"), LitDouble(0.5));
  Result<Table> row = ref::Filter(EmptyTable(), pred);
  Result<ColumnTable> col = ColumnarFilter(EmptyTable().columns(), pred);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->num_rows(), 0u);
  ExpectSameRows(*row, Table(std::move(col).ValueOrDie()),
                 "empty filter");
}

// -------------------------------------------------------------- Project ---

TEST(ColumnarKernelTest, ProjectMatchesReference) {
  std::vector<std::vector<ProjectedColumn>> cases = {
      {{Col("k"), "k"}, {Col("s"), "s"}},
      {{Add(Col("x"), LitDouble(1.0)), "x1"},
       {Mul(Col("k"), LitInt(3)), "k3"}},
      {{Sub(Col("x"), Col("k")), "d"}, {LitString("c"), "c"}},
      {{Eq(Col("s"), LitString("s2")), "is2"}, {Lit(Value::Null()), "nil"}},
  };
  for (uint64_t seed = 30; seed < 34; ++seed) {
    Table t = RandomNullableTable(200, 7, seed, /*null_prob=*/0.0);
    for (const auto& cols : cases) {
      Result<Table> row = ref::Project(t, cols);
      Result<ColumnTable> col = ColumnarProject(t.columns(), cols);
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      ASSERT_TRUE(col.ok()) << col.status().ToString();
      ExpectSameRows(*row, Table(std::move(col).ValueOrDie()),
                     "project seed " + std::to_string(seed));
    }
  }
}

TEST(ColumnarKernelTest, ProjectNullsAndUdf) {
  // NULL-aware projections: pass-through of nullable columns and a UDF
  // (which the kernel calls once per row).
  ScalarUdf coalesce_zero = [](const std::vector<Value>& args) -> Result<Value> {
    return args[0].is_null() ? Value::Int(0) : args[0];
  };
  std::vector<ProjectedColumn> cols = {
      {Col("k"), "k"},
      {Col("s"), "s"},
      {Udf("czero", coalesce_zero, {Col("k")}), "k0"},
  };
  for (uint64_t seed = 40; seed < 44; ++seed) {
    Table t = RandomNullableTable(150, 6, seed, /*null_prob=*/0.3);
    Result<Table> row = ref::Project(t, cols);
    Result<ColumnTable> col = ColumnarProject(t.columns(), cols);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    ExpectSameRows(*row, Table(std::move(col).ValueOrDie()),
                   "udf project seed " + std::to_string(seed));
  }
}

TEST(ColumnarKernelTest, ProjectDivisionByZeroParity) {
  TableBuilder b({{"a", DataType::kInt64}, {"d", DataType::kInt64}});
  b.AddRow({Value::Int(4), Value::Int(2)});
  b.AddRow({Value::Int(4), Value::Int(0)});
  Table t = *b.Build();
  std::vector<ProjectedColumn> cols = {{Div(Col("a"), Col("d")), "q"}};
  Result<Table> row = ref::Project(t, cols);
  Result<ColumnTable> col = ColumnarProject(t.columns(), cols);
  ASSERT_FALSE(row.ok());
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(row.status().ToString(), col.status().ToString());
}

// ----------------------------------------------------------------- Join ---

TEST(ColumnarKernelTest, JoinMatchesReference) {
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    for (uint64_t seed = 50; seed < 54; ++seed) {
      Table left = RandomNullableTable(160, 10, seed);
      Table right = RandomNullableTable(90, 10, seed + 100);
      Result<Table> row = ref::Join(left, right, {"k"}, {"k"}, type);
      Result<ColumnTable> col = ColumnarHashJoin(
          left.columns(), right.columns(), {"k"}, {"k"}, type);
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      ASSERT_TRUE(col.ok()) << col.status().ToString();
      ExpectSameRows(*row, Table(std::move(col).ValueOrDie()),
                     "join seed " + std::to_string(seed));
    }
  }
}

TEST(ColumnarKernelTest, MultiKeyAndStringKeyJoin) {
  for (uint64_t seed = 60; seed < 63; ++seed) {
    Table left = RandomNullableTable(120, 6, seed);
    Table right = RandomNullableTable(80, 6, seed + 200);
    Result<Table> row = ref::Join(left, right, {"k", "s"}, {"k", "s"});
    Result<ColumnTable> col = ColumnarHashJoin(
        left.columns(), right.columns(), {"k", "s"}, {"k", "s"});
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    ExpectSameRows(*row, Table(std::move(col).ValueOrDie()),
                   "multikey join seed " + std::to_string(seed));
  }
}

TEST(ColumnarKernelTest, JoinEmptySidesAndErrorParity) {
  Table t = RandomNullableTable(40, 4, 70);
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    Result<Table> row = ref::Join(t, EmptyTable(), {"k"}, {"k"}, type);
    Result<ColumnTable> col = ColumnarHashJoin(
        t.columns(), EmptyTable().columns(), {"k"}, {"k"}, type);
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(col.ok());
    ExpectSameRows(*row, Table(std::move(col).ValueOrDie()),
                   "empty right join");
  }
  // Arity mismatch: same error.
  Result<Table> row = ref::Join(t, t, {"k", "s"}, {"k"});
  Result<ColumnTable> col =
      ColumnarHashJoin(t.columns(), t.columns(), {"k", "s"}, {"k"});
  ASSERT_FALSE(row.ok());
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(row.status().ToString(), col.status().ToString());
}

// ------------------------------------------------------------ Aggregate ---

std::vector<AggSpec> AllAggKinds() {
  std::vector<AggSpec> aggs;
  aggs.push_back(CountStar("n"));
  aggs.push_back(AggSpec{AggKind::kCount, Col("x"), nullptr, "nx"});
  aggs.push_back(SumOf(Col("x"), "sx"));
  aggs.push_back(SumOf(Col("k"), "sk"));  // int-preserving SUM
  aggs.push_back(AvgOf(Col("x"), "ax"));
  aggs.push_back(MinOf(Col("s"), "mins"));
  aggs.push_back(MaxOf(Col("x"), "maxx"));
  aggs.push_back(ArgMaxOf(Col("x"), Col("s"), "best"));
  aggs.push_back(ArgMinOf(Col("x"), Col("k"), "worst"));
  return aggs;
}

TEST(ColumnarKernelTest, AggregateMatchesReference) {
  for (uint64_t seed = 80; seed < 86; ++seed) {
    // Small cardinality forces ties, exercising ARGMAX/ARGMIN tie-breaks.
    Table t = RandomNullableTable(300, 5, seed);
    for (const auto& keys :
         std::vector<std::vector<std::string>>{{"k"}, {"s"}, {"k", "s"}}) {
      Result<Table> row = ref::Aggregate(t, keys, AllAggKinds());
      Result<ColumnTable> col =
          ColumnarHashAggregate(t.columns(), keys, AllAggKinds());
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      ASSERT_TRUE(col.ok()) << col.status().ToString();
      ExpectSameRows(*row, Table(std::move(col).ValueOrDie()),
                     "aggregate seed " + std::to_string(seed));
    }
  }
}

TEST(ColumnarKernelTest, GlobalAggregateAndEmptyInput) {
  // No group keys: one output row, even over an empty input.
  for (const Table& t :
       {RandomNullableTable(120, 4, 90), EmptyTable()}) {
    Result<Table> row = ref::Aggregate(t, {}, AllAggKinds());
    Result<ColumnTable> col = ColumnarHashAggregate(t.columns(), {},
                                                    AllAggKinds());
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    EXPECT_EQ(col->num_rows(), 1u);
    ExpectSameRows(*row, Table(std::move(col).ValueOrDie()),
                   "global aggregate");
  }
  // Grouped aggregate over empty input: zero rows.
  Result<Table> row = ref::Aggregate(EmptyTable(), {"k"}, AllAggKinds());
  Result<ColumnTable> col =
      ColumnarHashAggregate(EmptyTable().columns(), {"k"}, AllAggKinds());
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->num_rows(), 0u);
  EXPECT_EQ(row->num_rows(), 0u);
}

// ---------------------------------------------------------- Partitioning --

// Row i belongs to partition (seed ⊕ Value::Hash of each key cell) % parts:
// the routing contract, computed here from the row store.
size_t ExpectedPartition(const Row& row, const std::vector<size_t>& keys,
                         size_t parts) {
  uint64_t h = 0x87c37b91114253d5ULL;
  for (size_t k : keys) h = HashCombine(h, row[k].Hash());
  return h % parts;
}

TEST(ColumnarKernelTest, HashPartitionRoutesByValueHashes) {
  for (size_t parts : {1u, 2u, 7u, 16u}) {
    Table t = RandomNullableTable(260, 12, 100 + parts);
    Result<std::vector<ColumnTable>> col =
        ColumnarHashPartition(t.columns(), {"k", "s"}, parts);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    ASSERT_EQ(col->size(), parts);
    std::vector<std::vector<Row>> expected(parts);
    for (const Row& row : t.rows()) {
      expected[ExpectedPartition(row, {0, 1}, parts)].push_back(row);
    }
    for (size_t p = 0; p < parts; ++p) {
      // Rows keep their input order inside a partition.
      ExpectSameRowList((*col)[p].MaterializeRows(), expected[p],
                        "partition " + std::to_string(p) + "/" +
                            std::to_string(parts));
    }
  }
  // Zero partitions: InvalidArgument.
  Table t = RandomNullableTable(10, 3, 99);
  EXPECT_TRUE(ColumnarHashPartition(t.columns(), {"k"}, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST(ColumnarKernelTest, RoundRobinChunksAreContiguousRanges) {
  for (size_t parts : {1u, 3u, 8u}) {
    Table t = RandomNullableTable(103, 6, 110 + parts);
    std::vector<ColumnTable> col =
        ColumnarRoundRobinPartition(t.columns(), parts);
    ASSERT_EQ(col.size(), parts);
    const size_t per = (t.num_rows() + parts - 1) / parts;
    for (size_t p = 0; p < col.size(); ++p) {
      const size_t begin = std::min(t.num_rows(), p * per);
      const size_t end = std::min(t.num_rows(), begin + per);
      ASSERT_EQ(col[p].num_rows(), end - begin) << "chunk " << p;
      // Chunking is positional: compare in order, not as multisets.
      std::vector<Row> rows = col[p].MaterializeRows();
      for (size_t i = 0; i < rows.size(); ++i) {
        for (size_t c = 0; c < rows[i].size(); ++c) {
          ASSERT_EQ(rows[i][c].Compare(t.row(begin + i)[c]), 0);
        }
      }
    }
  }
}

TEST(ColumnarKernelTest, ConcatRestoresPartitions) {
  Table t = RandomNullableTable(240, 10, 120);
  Result<std::vector<ColumnTable>> parts =
      ColumnarHashPartition(t.columns(), {"k"}, 6);
  ASSERT_TRUE(parts.ok());
  Result<ColumnTable> whole = ColumnarConcat(*parts);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ExpectSameRows(t, Table(std::move(whole).ValueOrDie()), "concat");

  // Empty list: InvalidArgument.
  EXPECT_TRUE(ColumnarConcat({}).status().IsInvalidArgument());
}

// ------------------------------------- Distinct, Sort, Limit, UnionAll ---

TEST(ColumnarKernelTest, DistinctMatchesReferenceInOrder) {
  for (uint64_t seed = 140; seed < 144; ++seed) {
    // Low cardinality with NULLs makes plenty of duplicate rows.
    Table t = RandomNullableTable(200, 3, seed, /*null_prob=*/0.4);
    Result<Table> keys = ref::Project(t, {{Col("k"), "k"}, {Col("f"), "f"}});
    ASSERT_TRUE(keys.ok());
    for (const Table& in : {t, *keys, EmptyTable()}) {
      ExpectSameRowsInOrder(*ref::Distinct(in),
                            Table(ColumnarDistinct(in.columns())),
                            "distinct seed " + std::to_string(seed));
    }
  }
}

TEST(ColumnarKernelTest, SortMatchesReferenceAndIsStable) {
  const std::vector<std::pair<std::vector<std::string>, std::vector<bool>>>
      orders = {{{"k"}, {}},
                {{"s", "x"}, {false, true}},
                {{"f", "k", "x"}, {true, false}},
                {{}, {}}};
  for (uint64_t seed = 150; seed < 154; ++seed) {
    Table t = RandomNullableTable(180, 6, seed);
    for (const auto& [keys, ascending] : orders) {
      Result<Table> row = ref::Sort(t, keys, ascending);
      Result<ColumnTable> col = ColumnarSort(t.columns(), keys, ascending);
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      ASSERT_TRUE(col.ok()) << col.status().ToString();
      ExpectSameRowsInOrder(*row, Table(std::move(col).ValueOrDie()),
                            "sort seed " + std::to_string(seed));
    }
  }
  EXPECT_TRUE(ColumnarSort(EmptyTable().columns(), {"nope"})
                  .status()
                  .IsNotFound());
}

TEST(ColumnarKernelTest, LimitAndUnionAllMatchReferenceInOrder) {
  Table a = RandomNullableTable(60, 5, 160);
  Table b = RandomNullableTable(45, 5, 161);
  for (size_t n : {0u, 1u, 59u, 60u, 1000u}) {
    ExpectSameRowsInOrder(*ref::Limit(a, n),
                          Table(ColumnarLimit(a.columns(), n)),
                          "limit " + std::to_string(n));
  }
  for (const auto& [x, y] : std::vector<std::pair<Table, Table>>{
           {a, b}, {b, a}, {a, EmptyTable()}, {EmptyTable(), b}}) {
    Result<Table> row = ref::UnionAll(x, y);
    Result<ColumnTable> col = ColumnarUnionAll(x.columns(), y.columns());
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    ExpectSameRowsInOrder(*row, Table(std::move(col).ValueOrDie()),
                          "union all");
  }
  // An all-NULL column takes the other side's type; two concrete types and
  // a different arity are InvalidArgument.
  TableBuilder nulls({{"k", DataType::kNull}});
  nulls.AddRow({Value()});
  TableBuilder ints({{"k", DataType::kInt64}});
  ints.AddRow({Value::Int(7)});
  TableBuilder strings({{"k", DataType::kString}});
  strings.AddRow({Value::String("7")});
  const Table null_table = *nulls.Build();
  const Table int_table = *ints.Build();
  const Table string_table = *strings.Build();
  Result<ColumnTable> typed =
      ColumnarUnionAll(null_table.columns(), int_table.columns());
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  EXPECT_EQ(typed->col(0).type, DataType::kInt64);
  EXPECT_TRUE(typed->col(0).nulls.IsNull(0));
  EXPECT_EQ(typed->col(0).ValueAt(1), Value::Int(7));
  EXPECT_TRUE(ColumnarUnionAll(int_table.columns(), string_table.columns())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ColumnarUnionAll(a.columns(), int_table.columns())
                  .status()
                  .IsInvalidArgument());
}

// -------------------------------------------- Partitioned operators ------

class ColumnarParallelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ColumnarParallelTest, PartitionedOperatorsMatchReference) {
  ThreadPool pool(4);
  const size_t partitions = GetParam();
  ExecContext ctx{&pool, partitions, nullptr, "test"};

  Table left = RandomNullableTable(350, 14, 140);
  Table right = RandomNullableTable(180, 14, 141);

  for (JoinStrategy strategy :
       {JoinStrategy::kReplicated, JoinStrategy::kPartitioned}) {
    for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
      ExpectSameRows(*ref::Join(left, right, {"k"}, {"k"}, type),
                     *ParallelHashJoin(ctx, left, right, {"k"}, {"k"}, type,
                                       strategy),
                     "parallel join");
    }
  }

  std::vector<AggSpec> aggs = AllAggKinds();
  ExpectSameRows(*ref::Aggregate(left, {"k"}, aggs),
                 *ParallelHashAggregate(ctx, left, {"k"}, aggs),
                 "parallel aggregate");
  ExpectSameRows(*ref::Aggregate(left, {}, aggs),
                 *ParallelHashAggregate(ctx, left, {}, aggs),
                 "parallel global aggregate");

  ExprPtr pred = Gt(Col("x"), LitDouble(0.4));
  ExpectSameRows(*ref::Filter(left, pred), *ParallelFilter(ctx, left, pred),
                 "parallel filter");

  // NULL-safe projection (comparisons use Compare semantics; arithmetic
  // over NULL cells is an error).
  std::vector<ProjectedColumn> cols = {{Col("s"), "s"},
                                       {Ge(Col("x"), LitDouble(0.5)), "hi"}};
  ExpectSameRows(*ref::Project(left, cols),
                 *ParallelProject(ctx, left, cols), "parallel project");
}

INSTANTIATE_TEST_SUITE_P(Fanouts, ColumnarParallelTest,
                         ::testing::Values(1, 3, 8));

// ---------------------------------------------------- Executor end-to-end --

TEST(ColumnarExecutorTest, OneAndEightPartitionsMatchReferenceAndExplain) {
  Table l = RandomNullableTable(400, 15, 150, /*null_prob=*/0.0);
  Table r = RandomNullableTable(220, 15, 151, /*null_prob=*/0.0);
  Catalog cat;
  cat.Register("l", l);
  cat.Register("r", r);
  ExprPtr pred = Gt(Col("x"), LitDouble(0.2));
  std::vector<AggSpec> aggs = {CountStar("n"), SumOf(Col("r_x"), "sx")};
  Plan plan = Plan::Scan("l")
                  .Join(Plan::Scan("r"), {"k"}, {"k"})
                  .Where(pred)
                  .GroupBy({"s"}, aggs);

  ThreadPool pool(4);
  ExecutorOptions pooled;
  pooled.pool = &pool;
  pooled.num_partitions = 8;

  ExplainStats pstats, sstats;
  Table p = *Executor(pooled).Execute(plan, cat, &pstats);
  Table s = *Executor().Execute(plan, cat, &sstats);
  Table expected =
      *ref::Aggregate(*ref::Filter(*ref::Join(l, r, {"k"}, {"k"}), pred),
                      {"s"}, aggs);
  ExpectSameRows(expected, s, "serial executor");
  ExpectSameRows(expected, p, "8-partition executor");

  // EXPLAIN ANALYZE: exact rows in/out agree node by node; the pooled run
  // reports one batch per partition, the serial run one.
  ASSERT_EQ(pstats.NodeCount(), sstats.NodeCount());
  std::function<void(const ExplainStats&, const ExplainStats&)> compare =
      [&](const ExplainStats& x, const ExplainStats& y) {
        EXPECT_EQ(x.op, y.op);
        EXPECT_EQ(x.rows_in, y.rows_in) << x.op;
        EXPECT_EQ(x.rows_out, y.rows_out) << x.op;
        EXPECT_EQ(y.batches, 1u) << y.op;
        ASSERT_EQ(x.children.size(), y.children.size());
        for (size_t i = 0; i < x.children.size(); ++i) {
          compare(*x.children[i], *y.children[i]);
        }
      };
  compare(pstats, sstats);
  EXPECT_EQ(pstats.batches, 8u);
}

TEST(ColumnarExecutorTest, MixedTypeTableIsInvalidArgument) {
  // A column whose cells mix INT64 and STRING has no columnar form, so the
  // table is refused when it is built and can never reach a catalog.
  TableBuilder b({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  b.AddRow({Value::Int(1), Value::Int(10)});
  b.AddRow({Value::Int(2), Value::String("not an int")});
  b.AddRow({Value::Int(1), Value::Int(30)});
  Result<Table> built = b.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsInvalidArgument());
  EXPECT_NE(built.status().ToString().find("column 'v' mixes INT64 and STRING"),
            std::string::npos)
      << built.status().ToString();
}

}  // namespace
}  // namespace esharp::sql
