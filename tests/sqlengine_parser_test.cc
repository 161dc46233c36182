#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "community/sql_cd.h"
#include "sql_reference.h"
#include "sqlengine/parser.h"

namespace esharp::sql {
namespace {

Catalog MakeCatalog() {
  Catalog cat;
  {
    TableBuilder b({{"name", DataType::kString},
                    {"age", DataType::kInt64},
                    {"score", DataType::kDouble}});
    b.AddRow({Value::String("ann"), Value::Int(30), Value::Double(1.5)});
    b.AddRow({Value::String("bob"), Value::Int(25), Value::Double(2.5)});
    b.AddRow({Value::String("cat"), Value::Int(30), Value::Double(0.5)});
    b.AddRow({Value::String("dan"), Value::Int(40), Value::Double(4.0)});
    cat.Register("people", *b.Build());
  }
  {
    TableBuilder b({{"who", DataType::kString},
                    {"item", DataType::kString},
                    {"price", DataType::kDouble}});
    b.AddRow({Value::String("ann"), Value::String("book"), Value::Double(12)});
    b.AddRow({Value::String("ann"), Value::String("pen"), Value::Double(2)});
    b.AddRow({Value::String("dan"), Value::String("mug"), Value::Double(8)});
    cat.Register("orders", *b.Build());
  }
  return cat;
}

Table RunSql(const std::string& sql, const Catalog& cat,
          const FunctionRegistry& registry = {}) {
  auto result = ExecuteSql(sql, cat, registry);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  if (!result.ok()) return Table();
  return std::move(result).MoveValueUnsafe();
}

// ----------------------------------------------------------- Basic SELECT --

TEST(ParserTest, SelectStar) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT * FROM people", cat);
  EXPECT_EQ(out.num_rows(), 4u);
  EXPECT_EQ(out.num_columns(), 3u);
}

TEST(ParserTest, SelectColumnsWithAliases) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("select name as who, age * 2 AS dbl from people", cat);
  EXPECT_EQ(out.schema().ToString(), "who:STRING, dbl:INT64");
  EXPECT_EQ(out.row(0)[1].int_value(), 60);
}

TEST(ParserTest, BareAliasWithoutAs) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("select name who from people", cat);
  EXPECT_EQ(out.schema().column(0).name, "who");
}

TEST(ParserTest, WhereWithArithmeticAndLogic) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT name FROM people WHERE age + 5 >= 35 AND NOT (name = 'dan')",
      cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "ann");
  EXPECT_EQ(out.row(1)[0].string_value(), "cat");
}

TEST(ParserTest, StringLiteralsWithEscapes) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT 'it''s' AS s FROM people LIMIT 1", cat);
  EXPECT_EQ(out.row(0)[0].string_value(), "it's");
}

TEST(ParserTest, NumericLiteralsAndComparisons) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT name FROM people WHERE score > 1.25", cat);
  EXPECT_EQ(out.num_rows(), 3u);
  Table out2 = RunSql("SELECT name FROM people WHERE age <> 30", cat);
  EXPECT_EQ(out2.num_rows(), 2u);
}

TEST(ParserTest, OrderByAndLimit) {
  Catalog cat = MakeCatalog();
  Table out =
      RunSql("SELECT name, age FROM people ORDER BY age DESC, name ASC LIMIT 2",
          cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "dan");
  EXPECT_EQ(out.row(1)[0].string_value(), "ann");
}

TEST(ParserTest, DistinctDeduplicates) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT DISTINCT age FROM people ORDER BY age", cat);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.row(0)[0].int_value(), 25);
}

// ----------------------------------------------------------------- Joins --

TEST(ParserTest, InnerJoinWithAliases) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT p.name, o.item FROM people p "
      "INNER JOIN orders o ON p.name = o.who",
      cat);
  EXPECT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.schema().column(0).name, "p.name");
}

TEST(ParserTest, LeftJoinKeepsUnmatched) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT p.name, o.item FROM people p "
      "LEFT OUTER JOIN orders o ON p.name = o.who",
      cat);
  EXPECT_EQ(out.num_rows(), 5u);
}

TEST(ParserTest, SelfJoinWithTwoAliases) {
  // The exact shape Fig. 4 uses: the same table joined twice under two
  // aliases, disambiguated by qualified references.
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT a.name AS n1, b.name AS n2 FROM people a "
      "JOIN people b ON a.age = b.age WHERE a.name < b.name",
      cat);
  ASSERT_EQ(out.num_rows(), 1u);  // ann/cat share age 30
  EXPECT_EQ(out.row(0)[0].string_value(), "ann");
  EXPECT_EQ(out.row(0)[1].string_value(), "cat");
}

TEST(ParserTest, BareColumnResolvesThroughUniqueAlias) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT item FROM people p JOIN orders o ON p.name = o.who", cat);
  EXPECT_EQ(out.num_rows(), 3u);
}

TEST(ParserTest, AmbiguousBareColumnIsAnError) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteSql(
      "SELECT name FROM people a JOIN people b ON a.age = b.age", cat);
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------------------ Aggregates --

TEST(ParserTest, GroupByWithCountSumAvg) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT age, count(*) AS n, sum(score) AS total, avg(score) AS mean "
      "FROM people GROUP BY age ORDER BY age",
      cat);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.row(1)[0].int_value(), 30);
  EXPECT_EQ(out.row(1)[1].int_value(), 2);
  EXPECT_DOUBLE_EQ(out.row(1)[2].double_value(), 2.0);
  EXPECT_DOUBLE_EQ(out.row(1)[3].double_value(), 1.0);
}

TEST(ParserTest, ArgMaxAggregate) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT age, argmax(score, name) AS best FROM people "
      "GROUP BY age ORDER BY age",
      cat);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.row(1)[1].string_value(), "ann");
}

TEST(ParserTest, GlobalAggregateWithoutGroupBy) {
  Catalog cat = MakeCatalog();
  Table out = RunSql("SELECT count(*) AS n, max(age) AS oldest FROM people", cat);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.row(0)[0].int_value(), 4);
  EXPECT_EQ(out.row(0)[1].int_value(), 40);
}

TEST(ParserTest, AggregateOverJoinWithQualifiedKeys) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT p.name, sum(o.price) AS spent FROM people p "
      "JOIN orders o ON p.name = o.who GROUP BY p.name ORDER BY p.name",
      cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "ann");
  EXPECT_DOUBLE_EQ(out.row(0)[1].double_value(), 14.0);
}

TEST(ParserTest, NonAggregateSelectItemMustBeGrouped) {
  Catalog cat = MakeCatalog();
  auto result =
      ExecuteSql("SELECT name, count(*) AS n FROM people GROUP BY age", cat);
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, HavingFiltersGroups) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT age, count(*) AS n FROM people GROUP BY age "
      "HAVING n > 1 ORDER BY age",
      cat);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.row(0)[0].int_value(), 30);
  EXPECT_EQ(out.row(0)[1].int_value(), 2);
}

TEST(ParserTest, UnionAllConcatenates) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT name FROM people WHERE age = 25 "
      "UNION ALL SELECT name FROM people WHERE age = 40",
      cat);
  EXPECT_EQ(out.num_rows(), 2u);
}

TEST(ParserTest, UnionRequiresAll) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(
      ExecuteSql("SELECT name FROM people UNION SELECT name FROM people", cat)
          .ok());
}

// ------------------------------------------------------------ Subqueries --

TEST(ParserTest, SubqueryInFrom) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT t.name FROM (SELECT name, age FROM people WHERE age = 30) t "
      "ORDER BY t.name",
      cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "ann");
}

TEST(ParserTest, JoinAgainstSubquery) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT p.name, s.n FROM people p JOIN "
      "(SELECT who, count(*) AS n FROM orders GROUP BY who) s "
      "ON p.name = s.who ORDER BY p.name",
      cat);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[1].int_value(), 2);  // ann has two orders
}

// ------------------------------------------------------------------ UDFs --

TEST(ParserTest, ScalarUdfInWhereClause) {
  Catalog cat = MakeCatalog();
  FunctionRegistry registry;
  registry.RegisterScalar("half", [](const std::vector<Value>& args)
                                      -> Result<Value> {
    ESHARP_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
    return Value::Double(v / 2);
  });
  Table out = RunSql("SELECT name FROM people WHERE half(age) > 14", cat,
                  registry);
  ASSERT_EQ(out.num_rows(), 3u);
}

TEST(ParserTest, UnknownFunctionIsAnError) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteSql("SELECT mystery(age) FROM people", cat);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("mystery"), std::string::npos);
}

// ----------------------------------------------------------------- Errors --

TEST(ParserTest, SyntaxErrorsAreReported) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT FROM people", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT * people", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT * FROM people WHERE", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT * FROM people LIMIT banana", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT * FROM people extra junk here", cat).ok());
  EXPECT_FALSE(ExecuteSql("SELECT 'unterminated FROM people", cat).ok());
}

TEST(ParserTest, MissingTableSurfacesAtExecution) {
  Catalog cat = MakeCatalog();
  auto result = ExecuteSql("SELECT * FROM ghosts", cat);
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(ParserTest, AggregateOutsideSelectListRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(
      ExecuteSql("SELECT name FROM people WHERE count(*) > 1", cat).ok());
}

TEST(ParserTest, CommentsAreSkipped) {
  Catalog cat = MakeCatalog();
  Table out = RunSql(
      "SELECT name -- this is the select list\n"
      "FROM people -- and the source\n"
      "WHERE age = 40",
      cat);
  ASSERT_EQ(out.num_rows(), 1u);
}

// ------------------------------------------------ The Fig. 4 statements ---

TEST(ParserTest, Figure4NeighborsStatementParsesAndRuns) {
  // A miniature graph/communities pair in the paper's exact schema.
  Catalog cat;
  {
    TableBuilder b({{"query1", DataType::kString},
                    {"query2", DataType::kString},
                    {"distance", DataType::kDouble}});
    b.AddRow({Value::String("a"), Value::String("b"), Value::Double(1.0)});
    b.AddRow({Value::String("b"), Value::String("a"), Value::Double(1.0)});
    cat.Register("graph", *b.Build());
  }
  {
    TableBuilder b({{"comm_name", DataType::kString},
                    {"query", DataType::kString}});
    b.AddRow({Value::String("a"), Value::String("a")});
    b.AddRow({Value::String("b"), Value::String("b")});
    cat.Register("communities", *b.Build());
  }
  FunctionRegistry registry;
  registry.RegisterScalar(
      "modulgain", [](const std::vector<Value>& args) -> Result<Value> {
        ESHARP_ASSIGN_OR_RETURN(double d1, args[0].AsDouble());
        ESHARP_ASSIGN_OR_RETURN(double d2, args[1].AsDouble());
        ESHARP_ASSIGN_OR_RETURN(double w, args[2].AsDouble());
        return Value::Double(w - d1 * d2 / 2.0);  // m_G = 1
      });

  Table out = RunSql(
      "SELECT c1.comm_name AS comm1, c2.comm_name AS comm2, "
      "       sum(graph.distance) AS w12 "
      "FROM graph "
      "INNER JOIN communities c1 ON graph.query1 = c1.query "
      "INNER JOIN communities c2 ON graph.query2 = c2.query "
      "WHERE c1.comm_name <> c2.comm_name "
      "GROUP BY c1.comm_name, c2.comm_name "
      "ORDER BY comm1",
      cat, registry);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].string_value(), "a");
  EXPECT_DOUBLE_EQ(out.row(0)[2].double_value(), 1.0);
}

// ---------------------------------------------------------- Hostile text --

std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

TEST(ParserTest, LimitOutOfRangeIsInvalidArgument) {
  EXPECT_TRUE(ParseSql("SELECT * FROM t LIMIT 99999999999999999999")
                  .status()
                  .IsInvalidArgument());
}

TEST(ParserTest, IntegerLiteralOutOfRangeIsInvalidArgument) {
  EXPECT_TRUE(ParseSql("SELECT 99999999999999999999 AS x FROM t")
                  .status()
                  .IsInvalidArgument());
  // The largest INT64 still parses.
  EXPECT_TRUE(ParseSql("SELECT 9223372036854775807 AS x FROM t").ok());
}

TEST(ParserTest, DecimalLiteralOutOfRangeIsInvalidArgument) {
  EXPECT_TRUE(ParseSql("SELECT " + std::string(400, '9') + ".5 AS x FROM t")
                  .status()
                  .IsInvalidArgument());
}

// The executor options of every path a statement can take: no pool (one
// partition) and a 4-thread pool at 8 partitions.
std::vector<ExecutorOptions> ExecutionPaths(ThreadPool* pool) {
  ExecutorOptions serial;
  ExecutorOptions pooled;
  pooled.pool = pool;
  pooled.num_partitions = 8;
  return {serial, pooled};
}

// Signed INT64 overflow is undefined behaviour in the kernels; hostile SQL
// must get InvalidArgument instead of a silently wrapped answer, the same
// one with and without a pool.
TEST(ParserTest, Int64OverflowIsInvalidArgumentOnEveryPath) {
  Catalog catalog;
  TableBuilder b({{"x", DataType::kInt64}});
  b.AddRow({Value::Int(INT64_MAX)});
  b.AddRow({Value::Int(INT64_MAX)});
  catalog.Register("t", *b.Build());
  ThreadPool pool(4);
  const std::vector<ExecutorOptions> paths = ExecutionPaths(&pool);
  for (const char* sql : {
           "SELECT 9223372036854775807 + 1 AS y FROM t",
           "SELECT x * 2 AS y FROM t",
           "SELECT 0 - x - 2 AS y FROM t",
           "SELECT -(-9223372036854775807 - 1) AS y FROM t",
           "SELECT sum(x) AS s FROM t",
           "SELECT avg(x) AS a FROM t",
       }) {
    std::string first;
    for (const ExecutorOptions& options : paths) {
      Result<Table> result = ExecuteSql(sql, catalog, {}, options);
      EXPECT_TRUE(result.status().IsInvalidArgument())
          << sql << " (pool " << (options.pool != nullptr) << ") -> "
          << (result.ok() ? result->ToString(2) : result.status().ToString());
      if (first.empty()) first = result.status().ToString();
      EXPECT_EQ(result.status().ToString(), first) << sql;
    }
  }
  // In-range arithmetic and sums are unchanged, up to the INT64 bounds.
  for (const ExecutorOptions& options : paths) {
    Result<Table> edge = ExecuteSql(
        "SELECT x - 1 AS a, 0 - x - 1 AS b, -(0 - x) AS c, x * 1 AS d FROM t",
        catalog, {}, options);
    ASSERT_TRUE(edge.ok()) << edge.status().ToString();
    ASSERT_EQ(edge->num_rows(), 2u);
    EXPECT_EQ(edge->row(0)[0].int_value(), INT64_MAX - 1);
    EXPECT_EQ(edge->row(0)[1].int_value(), INT64_MIN);
    EXPECT_EQ(edge->row(0)[2].int_value(), INT64_MAX);
    EXPECT_EQ(edge->row(0)[3].int_value(), INT64_MAX);
    Result<Table> sums = ExecuteSql(
        "SELECT sum(x - 9223372036854775806) AS s, "
        "avg(x - 9223372036854775806) AS a FROM t",
        catalog, {}, options);
    ASSERT_TRUE(sums.ok()) << sums.status().ToString();
    EXPECT_EQ(sums->row(0)[0].int_value(), 2);
    EXPECT_DOUBLE_EQ(sums->row(0)[1].double_value(), 1.0);
  }
}

// AND/OR evaluate their right operand only where the left one leaves the
// answer open, so a guard protects the arithmetic behind it on every path.
TEST(ParserTest, AndOrGuardsHoldWithAndWithoutAPool) {
  Catalog catalog;
  TableBuilder b({{"x", DataType::kInt64}});
  for (int64_t x = 1; x <= 4; ++x) b.AddRow({Value::Int(x)});
  catalog.Register("t", *b.Build());
  ThreadPool pool(4);
  const std::pair<const char*, size_t> cases[] = {
      {"SELECT x FROM t WHERE x > 2 AND 10 / (x - 1) > 1", 2},
      {"SELECT x FROM t WHERE x < 0 AND x / 0 > 1", 0},
      {"SELECT x FROM t WHERE x > 0 OR x / 0 > 1", 4},
  };
  for (const ExecutorOptions& options : ExecutionPaths(&pool)) {
    for (const auto& [sql, rows] : cases) {
      Result<Table> out = ExecuteSql(sql, catalog, {}, options);
      ASSERT_TRUE(out.ok()) << sql << " (pool " << (options.pool != nullptr)
                            << ") -> " << out.status().ToString();
      EXPECT_EQ(out->num_rows(), rows) << sql;
    }
  }
}

// A plan whose column no longer resolves fails on every run, and never
// reads a column of the previous schema.
TEST(ParserTest, FailedBindLeavesNoStaleColumn) {
  Result<Plan> plan = ParseSql("SELECT q FROM t");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Catalog catalog;
  TableBuilder before({{"x", DataType::kInt64}, {"q", DataType::kInt64}});
  before.AddRow({Value::Int(1), Value::Int(2)});
  catalog.Register("t", *before.Build());
  Result<Table> first = Executor().Execute(*plan, catalog);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->row(0)[0], Value::Int(2));

  TableBuilder renamed({{"y", DataType::kInt64}, {"z", DataType::kInt64}});
  renamed.AddRow({Value::Int(3), Value::Int(4)});
  TableBuilder ambiguous({{"a.q", DataType::kInt64}, {"b.q", DataType::kInt64}});
  ambiguous.AddRow({Value::Int(5), Value::Int(6)});
  for (Table next : {*renamed.Build(), *ambiguous.Build()}) {
    catalog.Register("t", std::move(next));
    for (int run = 0; run < 2; ++run) {
      Result<Table> out = Executor().Execute(*plan, catalog);
      EXPECT_FALSE(out.ok()) << "run " << run << " returned "
                             << (out.ok() ? out->ToString() : "");
    }
  }
}

TEST(ParserTest, DeepNestingIsInvalidArgument) {
  // The first five overflowed the stack before nesting was capped.
  const std::string deep[] = {
      "SELECT " + Repeat("(", 4000) + "1" + Repeat(")", 4000) + " AS x FROM t",
      "SELECT " + Repeat("- ", 50000) + "1 AS x FROM t",
      "SELECT * FROM t WHERE " + Repeat("NOT ", 200000) + "TRUE",
      "SELECT * FROM " + Repeat("(SELECT * FROM ", 30000) + "t" +
          Repeat(") s", 30000),
      // Left-folded chains recurse only in the walks over the result.
      "SELECT 1" + Repeat(" + 1", 100000) + " AS x FROM t",
      "SELECT * FROM t a" + Repeat(" JOIN t b ON a.x = b.x", 10000),
  };
  for (const std::string& sql : deep) {
    EXPECT_TRUE(ParseSql(sql).status().IsInvalidArgument())
        << sql.substr(0, 40);
  }
}

TEST(ParserTest, NestingCapIsExact) {
  FunctionRegistry registry;
  registry.RegisterScalar(
      "f", [](const std::vector<Value>& args) -> Result<Value> {
        return args[0];
      });
  const std::function<std::string(size_t)> shapes[] = {
      [](size_t n) {
        return "SELECT " + Repeat("(", n) + "1" + Repeat(")", n) +
               " AS x FROM t";
      },
      [](size_t n) { return "SELECT " + Repeat("- ", n) + "1 AS x FROM t"; },
      [](size_t n) {
        return "SELECT * FROM t WHERE " + Repeat("NOT ", n) + "TRUE";
      },
      [](size_t n) {
        return "SELECT " + Repeat("f(", n) + "1" + Repeat(")", n) +
               " AS x FROM t";
      },
      [](size_t n) {
        return "SELECT * FROM " + Repeat("(SELECT * FROM ", n) + "t" +
               Repeat(") s", n);
      },
      [](size_t n) {
        return "SELECT * FROM t" + Repeat(" UNION ALL SELECT * FROM t", n);
      },
      [](size_t n) { return "SELECT 1" + Repeat(" + 1", n) + " AS x FROM t"; },
      [](size_t n) {
        return "SELECT * FROM t a" + Repeat(" JOIN t b ON a.x = b.x", n);
      },
  };
  for (const auto& shape : shapes) {
    Result<Plan> at_cap = ParseSql(shape(kMaxSqlNesting), registry);
    ASSERT_TRUE(at_cap.ok()) << shape(1) << ": " << at_cap.status().ToString();
    EXPECT_FALSE(at_cap->Explain().empty());
    EXPECT_TRUE(ParseSql(shape(kMaxSqlNesting + 1), registry)
                    .status()
                    .IsInvalidArgument())
        << shape(1);
  }
}

// ------------------------------------------------------ Mutation fuzzing --

// The fuzz corpus: the statements of Fig. 4 and of the tests above.
std::vector<std::string> FuzzSeeds() {
  std::vector<std::string> seeds;
  for (const community::SqlStatement& s : community::kFig4Statements) {
    seeds.push_back(s.sql);
  }
  for (const char* sql : {
           "SELECT * FROM people",
           "select name as who, age * 2 AS dbl from people",
           "select name who from people",
           "SELECT name FROM people WHERE age + 5 >= 35 AND NOT (name = 'dan')",
           "SELECT 'it''s' AS s FROM people LIMIT 1",
           "SELECT name FROM people WHERE score > 1.25",
           "SELECT name FROM people WHERE age <> 30",
           "SELECT name, age FROM people ORDER BY age DESC, name ASC LIMIT 2",
           "SELECT DISTINCT age FROM people ORDER BY age",
           "SELECT p.name, o.item FROM people p "
           "INNER JOIN orders o ON p.name = o.who",
           "SELECT p.name, o.item FROM people p "
           "LEFT OUTER JOIN orders o ON p.name = o.who",
           "SELECT a.name AS n1, b.name AS n2 FROM people a "
           "JOIN people b ON a.age = b.age WHERE a.name < b.name",
           "SELECT item FROM people p JOIN orders o ON p.name = o.who",
           "SELECT age, count(*) AS n, sum(score) AS total, avg(score) AS mean "
           "FROM people GROUP BY age ORDER BY age",
           "SELECT age, argmax(score, name) AS best FROM people "
           "GROUP BY age ORDER BY age",
           "SELECT count(*) AS n, max(age) AS oldest FROM people",
           "SELECT p.name, sum(o.price) AS spent FROM people p "
           "JOIN orders o ON p.name = o.who GROUP BY p.name ORDER BY p.name",
           "SELECT age, count(*) AS n FROM people GROUP BY age "
           "HAVING n > 1 ORDER BY age",
           "SELECT name FROM people WHERE age = 25 "
           "UNION ALL SELECT name FROM people WHERE age = 40",
           "SELECT t.name FROM (SELECT name, age FROM people WHERE age = 30) t "
           "ORDER BY t.name",
           "SELECT p.name, s.n FROM people p JOIN "
           "(SELECT who, count(*) AS n FROM orders GROUP BY who) s "
           "ON p.name = s.who ORDER BY p.name",
           "SELECT name -- this is the select list\n"
           "FROM people -- and the source\nWHERE age = 40",
       }) {
    seeds.push_back(sql);
  }
  return seeds;
}

// People/orders plus the five tables Fig. 4 reads and writes, filled by
// running the statements on a small graph.
Catalog FuzzCatalog(const FunctionRegistry& registry) {
  Catalog cat = MakeCatalog();
  TableBuilder graph({{"query1", DataType::kString},
                      {"query2", DataType::kString},
                      {"distance", DataType::kDouble}});
  TableBuilder communities({{"comm_name", DataType::kString},
                            {"query", DataType::kString}});
  const char* names[] = {"a", "b", "c", "d", "e"};
  const int edges[][2] = {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {2, 3}};
  for (const auto& [u, v] : edges) {
    graph.AddRow({Value::String(names[u]), Value::String(names[v]),
                  Value::Double(1.0)});
    graph.AddRow({Value::String(names[v]), Value::String(names[u]),
                  Value::Double(1.0)});
  }
  for (const char* n : names) {
    communities.AddRow({Value::String(n), Value::String(n)});
  }
  cat.Register("graph", *graph.Build());
  cat.Register("communities", *communities.Build());
  for (size_t i = 0; i + 1 < std::size(community::kFig4Statements); ++i) {
    const community::SqlStatement& s = community::kFig4Statements[i];
    Result<Table> t = ExecuteSql(s.sql, cat, registry);
    EXPECT_TRUE(t.ok()) << s.table << ": " << t.status().ToString();
    if (t.ok()) cat.Register(s.table, std::move(t).MoveValueUnsafe());
  }
  return cat;
}

// Whitespace-separated SQL tokens: words, quoted strings, single symbols.
std::vector<std::string> SplitTokens(const std::string& sql) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < sql.size()) {
    const unsigned char c = sql[i];
    size_t j = i + 1;
    if (std::isspace(c)) {
      ++i;
      continue;
    }
    if (std::isalnum(c) || c == '_' || c == '.') {
      while (j < sql.size() && (std::isalnum(static_cast<unsigned char>(
                                    sql[j])) ||
                                sql[j] == '_' || sql[j] == '.')) {
        ++j;
      }
    } else if (c == '\'') {
      while (j < sql.size() && sql[j] != '\'') ++j;
      j = std::min(sql.size(), j + 1);
    }
    out.push_back(sql.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

// Parses `sql`; a plan must render and must execute to a table or a Status
// without a pool and on a 4-thread pool at 8 partitions, the same one on
// each (rows compared in sorted order). Returns whether it parsed.
bool ParseAndRun(const std::string& sql, const FunctionRegistry& registry,
                 const Catalog& catalog, ThreadPool* pool, size_t* executed) {
  Result<Plan> plan = ParseSql(sql, registry);
  if (!plan.ok()) return false;
  EXPECT_FALSE(plan->Explain().empty()) << sql;
  std::vector<std::string> outcome;
  for (const ExecutorOptions& options : ExecutionPaths(pool)) {
    Result<Table> table = Executor(options).Execute(*plan, catalog);
    if (table.ok()) {
      ++*executed;
      Result<Table> sorted =
          Table::FromRows(table->schema(), ref::SortedRows(*table));
      outcome.push_back(sorted->ToString(sorted->num_rows()));
    } else {
      outcome.push_back(table.status().ToString());
    }
  }
  EXPECT_EQ(outcome[0], outcome[1]) << sql;
  return true;
}

TEST(ParserFuzzTest, MutatedStatementsYieldAStatusOrARunnablePlan) {
  const FunctionRegistry registry = community::Fig4Functions(5.0);
  const Catalog catalog = FuzzCatalog(registry);
  const std::vector<std::string> seeds = FuzzSeeds();
  ThreadPool pool(4);
  size_t parsed = 0, executed = 0;
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(ParseAndRun(seed, registry, catalog, &pool, &executed)) << seed;
  }
  EXPECT_EQ(executed, 2 * seeds.size());

  // Every truncation, and every replacement byte below at every offset.
  const char kBytes[] = {'(', ')', '\'', ',', '.', '0', '9', '-', '*', ' ',
                         'x', '=', '<', '#', '\0', '\xff'};
  for (const std::string& seed : seeds) {
    for (size_t n = 0; n < seed.size(); ++n) {
      parsed += ParseAndRun(seed.substr(0, n), registry, catalog, &pool,
                            &executed);
      for (char byte : kBytes) {
        std::string replaced = seed;
        replaced[n] = byte;
        parsed += ParseAndRun(replaced, registry, catalog, &pool, &executed);
      }
    }
  }

  // Seeded token-level edits: insertions of tokens from any seed,
  // deletions, and duplicated spans.
  std::vector<std::vector<std::string>> tokenized;
  std::vector<std::string> vocabulary;
  for (const std::string& seed : seeds) {
    tokenized.push_back(SplitTokens(seed));
    vocabulary.insert(vocabulary.end(), tokenized.back().begin(),
                      tokenized.back().end());
  }
  uint64_t lcg = 0x9E3779B97F4A7C15ULL;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 17;
  };
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::string> tokens = tokenized[next() % tokenized.size()];
    for (uint64_t edits = 1 + next() % 3; edits > 0; --edits) {
      const size_t at = next() % (tokens.size() + 1);
      switch (next() % 3) {
        case 0:
          tokens.insert(tokens.begin() + at,
                        vocabulary[next() % vocabulary.size()]);
          break;
        case 1:
          if (at < tokens.size()) tokens.erase(tokens.begin() + at);
          break;
        default: {
          const size_t end = std::min(tokens.size(), at + 1 + next() % 8);
          std::vector<std::string> span(tokens.begin() + at,
                                        tokens.begin() + end);
          tokens.insert(tokens.begin() + end, span.begin(), span.end());
        }
      }
    }
    parsed += ParseAndRun(JoinTokens(tokens), registry, catalog, &pool,
                          &executed);
  }
  // The fuzz reached the planner and the executor, not only the lexer.
  EXPECT_GT(parsed, 5000u);
  EXPECT_GT(executed, 3000u);
}

}  // namespace
}  // namespace esharp::sql
