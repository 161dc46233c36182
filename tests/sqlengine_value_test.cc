#include <gtest/gtest.h>

#include <future>
#include <latch>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sqlengine/catalog.h"
#include "sqlengine/plan.h"
#include "sqlengine/schema.h"
#include "sqlengine/table.h"
#include "sqlengine/value.h"

namespace esharp::sql {
namespace {

// ----------------------------------------------------------------- Value --

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), DataType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), DataType::kBool);
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int(-3).int_value(), -3);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
}

TEST(ValueTest, CompareWithinTypes) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(5).Compare(Value::Int(5)), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
}

TEST(ValueTest, NumericFamilyComparesAcrossIntAndDouble) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.1).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, CrossTypeRankOrder) {
  // NULL < BOOL < numeric < STRING.
  EXPECT_LT(Value::Null().Compare(Value::Bool(false)), 0);
  EXPECT_LT(Value::Bool(true).Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(999).Compare(Value::String("")), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::String("abc").Hash(), Value::String("abd").Hash());
}

TEST(ValueTest, AsDoubleCoercion) {
  EXPECT_DOUBLE_EQ(*Value::Int(4).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(*Value::Bool(true).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(*Value::Double(0.5).AsDouble(), 0.5);
  EXPECT_FALSE(Value::String("4").AsDouble().ok());
  EXPECT_FALSE(Value::Null().AsDouble().ok());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::String("q").ToString(), "q");
}

TEST(ValueTest, SizeBytes) {
  EXPECT_EQ(Value::Int(1).SizeBytes(), 8u);
  EXPECT_EQ(Value::String("abcd").SizeBytes(), 12u);
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, IndexOfAndContains) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(*s.IndexOf("b"), 1u);
  EXPECT_FALSE(s.IndexOf("c").ok());
  EXPECT_TRUE(s.Contains("a"));
  EXPECT_FALSE(s.Contains("c"));
}

TEST(SchemaTest, ConcatPrefixesClashes) {
  Schema left({{"id", DataType::kInt64}, {"x", DataType::kDouble}});
  Schema right({{"id", DataType::kInt64}, {"y", DataType::kString}});
  Schema joined = Schema::Concat(left, right, "r_");
  EXPECT_EQ(joined.num_columns(), 4u);
  EXPECT_EQ(joined.column(2).name, "r_id");
  EXPECT_EQ(joined.column(3).name, "y");
}

TEST(SchemaTest, ToStringAndEquality) {
  Schema s({{"a", DataType::kInt64}});
  EXPECT_EQ(s.ToString(), "a:INT64");
  EXPECT_TRUE(s == Schema({{"a", DataType::kInt64}}));
  EXPECT_FALSE(s == Schema({{"a", DataType::kDouble}}));
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, FromRowsChecksArity) {
  const Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  Result<Table> fits =
      Table::FromRows(schema, {{Value::Int(1), Value::String("x")}});
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->num_rows(), 1u);

  // A short row and a long row, through both doors.
  Result<Table> short_row = Table::FromRows(
      schema, {{Value::Int(1), Value::String("x")}, {Value::Int(2)}});
  EXPECT_TRUE(short_row.status().IsInvalidArgument())
      << short_row.status().ToString();
  TableBuilder b(schema.columns());
  b.AddRow({Value::Int(1), Value::String("x")});
  b.AddRow({Value::Int(2), Value::String("y"), Value::Int(3)});
  Result<Table> long_row = b.Build();
  EXPECT_TRUE(long_row.status().IsInvalidArgument())
      << long_row.status().ToString();
}

TEST(TableTest, SizeBytesSumsValues) {
  TableBuilder b({{"a", DataType::kInt64}});
  b.AddRow({Value::Int(1)});
  b.AddRow({Value::Int(2)});
  EXPECT_EQ(b.Build()->SizeBytes(), 16u);
}

TEST(TableTest, ToStringTruncates) {
  TableBuilder b({{"a", DataType::kInt64}});
  for (int i = 0; i < 30; ++i) b.AddRow({Value::Int(i)});
  std::string rendered = b.Build()->ToString(5);
  EXPECT_NE(rendered.find("more rows"), std::string::npos);
}

// A Table is read-only, so threads share one without synchronizing: two
// run a plan over a catalog table no plan has scanned yet, two read the
// rows of one operator output. Under TSan any write behind a const read
// shows up as a race.
TEST(TableTest, ConcurrentReadersShareOneTable) {
  auto make_table = [] {
    TableBuilder b({{"k", DataType::kInt64}, {"s", DataType::kString}});
    for (int i = 0; i < 200; ++i) {
      b.AddRow({Value::Int(i % 17), Value::String("s" + std::to_string(i))});
    }
    return *b.Build();
  };
  // Each thread builds its own plan: binding a shared expression is the
  // executor's business, not the table's.
  auto filter_plan = [](Plan input) {
    return input.Where(Gt(Col("k"), LitInt(5)));
  };
  const Table shared =
      *Executor().Execute(filter_plan(Plan::Values(make_table())), Catalog());
  Catalog catalog;
  catalog.Register("t", make_table());

  ThreadPool pool(4);
  std::latch start(4);
  std::vector<std::string> answers(4);
  std::vector<std::future<void>> done;
  for (size_t i = 0; i < 2; ++i) {
    done.push_back(pool.Submit([&, i] {
      start.arrive_and_wait();
      Result<Table> out =
          Executor().Execute(filter_plan(Plan::Scan("t")), catalog);
      answers[i] = out.ok() ? out->ToString(1000) : out.status().ToString();
    }));
  }
  for (size_t i = 2; i < 4; ++i) {
    done.push_back(pool.Submit([&, i] {
      start.arrive_and_wait();
      std::string cells;
      for (size_t r = 0; r < shared.num_rows(); ++r) {
        for (const Value& v : shared.row(r)) cells += v.ToString() + ",";
      }
      answers[i] = cells + std::to_string(shared.rows().size()) + "|" +
                   shared.ToString(1000);
    }));
  }
  for (std::future<void>& f : done) f.get();
  EXPECT_EQ(answers[0], shared.ToString(1000));
  EXPECT_EQ(answers[1], answers[0]);
  EXPECT_EQ(answers[3], answers[2]);
  EXPECT_NE(answers[2].find(answers[0]), std::string::npos);
}

}  // namespace
}  // namespace esharp::sql
