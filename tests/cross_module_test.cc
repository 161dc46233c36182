// Cross-module tests: substrates flowing through the SQL engine, graph
// persistence round-trips, and Q&A generator determinism — the seams the
// per-module suites do not cover.

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "qna/corpus.h"
#include "querylog/generator.h"
#include "sqlengine/parser.h"

namespace esharp {
namespace {

// --------------------------------------------------- Graph TSV round trip --

TEST(GraphIoTest, TsvRoundTripPreservesStructure) {
  graph::Graph g;
  g.AddVertex("49ers");
  g.AddVertex("nfl");
  g.AddVertex("orphan term");
  ASSERT_TRUE(g.AddEdge(0, 1, 0.2875).ok());
  g.Finalize();

  graph::Graph parsed = *graph::Graph::ParseTsv(g.SerializeTsv());
  EXPECT_EQ(parsed.num_vertices(), 3u);
  EXPECT_EQ(parsed.num_edges(), 1u);
  EXPECT_TRUE(parsed.FindVertex("orphan term").ok());  // isolated survives
  EXPECT_DOUBLE_EQ(parsed.edges()[0].weight, 0.2875);
  EXPECT_EQ(parsed.label(parsed.edges()[0].u), "49ers");
}

TEST(GraphIoTest, ParseRejectsGarbage) {
  EXPECT_FALSE(graph::Graph::ParseTsv("x\tweird").ok());
  EXPECT_FALSE(graph::Graph::ParseTsv("e\ta\tb").ok());
  EXPECT_FALSE(graph::Graph::ParseTsv("e\ta\tb\tNaNish").ok());
  EXPECT_TRUE(graph::Graph::ParseTsv("").ok());
}

TEST(GraphIoTest, RealExtractionOutputRoundTrips) {
  querylog::UniverseOptions uo;
  uo.num_categories = 2;
  uo.domains_per_category = 6;
  uo.seed = 501;
  querylog::TopicUniverse universe =
      *querylog::TopicUniverse::Generate(uo);
  querylog::GeneratorOptions go;
  go.seed = 502;
  querylog::GeneratedLog gen = *GenerateQueryLog(universe, go);
  graph::Graph g = *graph::BuildSimilarityGraph(gen.log, {});

  graph::Graph parsed = *graph::Graph::ParseTsv(g.SerializeTsv());
  ASSERT_EQ(parsed.num_vertices(), g.num_vertices());
  ASSERT_EQ(parsed.num_edges(), g.num_edges());
  EXPECT_NEAR(parsed.TotalWeight(), g.TotalWeight(), 1e-9);
}

// --------------------------------- Substrate tables through the SQL engine --

// clicks(query, url, clicks): one row per click record.
sql::Table ClickTable(const querylog::QueryLog& log) {
  sql::TableBuilder b({{"query", sql::DataType::kString},
                       {"url", sql::DataType::kInt64},
                       {"clicks", sql::DataType::kInt64}});
  for (const querylog::ClickRecord& r : log.records()) {
    b.AddRow({sql::Value::String(log.query(r.query_id).text),
              sql::Value::Int(static_cast<int64_t>(r.url_id)),
              sql::Value::Int(static_cast<int64_t>(r.clicks))});
  }
  return *b.Build();
}

// graph(query1, query2, distance): both directions of every edge, the
// symmetric form Fig. 4's SQL expects.
sql::Table EdgeTable(const graph::Graph& g) {
  sql::TableBuilder b({{"query1", sql::DataType::kString},
                       {"query2", sql::DataType::kString},
                       {"distance", sql::DataType::kDouble}});
  for (const graph::Edge& e : g.edges()) {
    b.AddRow({sql::Value::String(g.label(e.u)),
              sql::Value::String(g.label(e.v)), sql::Value::Double(e.weight)});
    b.AddRow({sql::Value::String(g.label(e.v)),
              sql::Value::String(g.label(e.u)), sql::Value::Double(e.weight)});
  }
  return *b.Build();
}

TEST(SubstrateSqlTest, ClickLogAnalyzedWithSqlText) {
  // The simulated click log exported as a relation and analyzed with plain
  // SQL: top URLs by clicks for one query string.
  querylog::QueryLog log;
  uint32_t q1 = log.AddQuery("49ers", 0, false);
  uint32_t q2 = log.AddQuery("nfl", 0, false);
  log.AddClicks(q1, 100, 25);
  log.AddClicks(q1, 101, 10);
  log.AddClicks(q2, 102, 20);
  log.AddClicks(q2, 101, 15);

  sql::Catalog catalog;
  catalog.Register("clicks", ClickTable(log));
  sql::Table out = *sql::ExecuteSql(
      "SELECT url, sum(clicks) AS total FROM clicks "
      "WHERE query = '49ers' GROUP BY url ORDER BY total DESC",
      catalog);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0)[0].int_value(), 100);
  EXPECT_EQ(out.row(0)[1].int_value(), 25);
}

TEST(SubstrateSqlTest, EdgeTableDegreesMatchGraphDegrees) {
  // Fig. 2's vector-space story, checked through the engine: per-vertex
  // degree computed by SQL over the symmetric edge table equals the graph's
  // weighted degrees.
  graph::Graph g;
  g.AddVertex("a");
  g.AddVertex("b");
  g.AddVertex("c");
  ASSERT_TRUE(g.AddEdge(0, 1, 1.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 2.5).ok());
  g.Finalize();
  sql::Catalog catalog;
  catalog.Register("graph", EdgeTable(g));
  sql::Table out = *sql::ExecuteSql(
      "SELECT query1, sum(distance) AS degree FROM graph "
      "GROUP BY query1 ORDER BY query1",
      catalog);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(out.row(0)[1].double_value(), 1.5);  // a
  EXPECT_DOUBLE_EQ(out.row(1)[1].double_value(), 4.0);  // b
  EXPECT_DOUBLE_EQ(out.row(2)[1].double_value(), 2.5);  // c
}

// ------------------------------------------------------- Q&A determinism ---

TEST(QnaDeterminismTest, SameSeedSameCorpus) {
  querylog::UniverseOptions uo;
  uo.num_categories = 2;
  uo.domains_per_category = 8;
  uo.seed = 503;
  querylog::TopicUniverse universe =
      *querylog::TopicUniverse::Generate(uo);
  qna::QnaOptions options;
  options.seed = 504;
  options.casual_users = 100;
  qna::QnaCorpus a = *GenerateQnaCorpus(universe, options);
  qna::QnaCorpus b = *GenerateQnaCorpus(universe, options);
  ASSERT_EQ(a.num_questions(), b.num_questions());
  ASSERT_EQ(a.num_answers(), b.num_answers());
  for (size_t i = 0; i < a.num_questions(); i += 7) {
    EXPECT_EQ(a.question(static_cast<uint32_t>(i)).title,
              b.question(static_cast<uint32_t>(i)).title);
  }
}

TEST(QnaDeterminismTest, AnswerBookkeepingConsistent) {
  querylog::UniverseOptions uo;
  uo.num_categories = 1;
  uo.domains_per_category = 6;
  uo.seed = 505;
  querylog::TopicUniverse universe =
      *querylog::TopicUniverse::Generate(uo);
  qna::QnaOptions options;
  options.seed = 506;
  options.casual_users = 50;
  qna::QnaCorpus corpus = *GenerateQnaCorpus(universe, options);
  // Per-user totals must equal the sums over the raw answers.
  std::vector<uint64_t> answers(corpus.num_users(), 0);
  std::vector<uint64_t> upvotes(corpus.num_users(), 0);
  for (size_t a = 0; a < corpus.num_answers(); ++a) {
    const qna::Answer& ans = corpus.answer(static_cast<uint32_t>(a));
    ++answers[ans.author];
    upvotes[ans.author] += ans.upvotes;
    EXPECT_LT(ans.question, corpus.num_questions());
  }
  for (qna::UserId u = 0; u < corpus.num_users(); ++u) {
    EXPECT_EQ(corpus.AnswersByUser(u), answers[u]);
    EXPECT_EQ(corpus.UpvotesOfUser(u), upvotes[u]);
  }
}

}  // namespace
}  // namespace esharp
