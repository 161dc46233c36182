#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/sparse_vector.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "querylog/generator.h"

namespace esharp::graph {
namespace {

// ----------------------------------------------------------------- Graph --

TEST(GraphTest, VerticesDedupeByLabel) {
  Graph g;
  VertexId a = g.AddVertex("nfl");
  VertexId b = g.AddVertex("nfl");
  EXPECT_EQ(a, b);
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_EQ(*g.FindVertex("nfl"), a);
  EXPECT_FALSE(g.FindVertex("nba").ok());
}

TEST(GraphTest, EdgesAccumulateWeight) {
  Graph g;
  VertexId a = g.AddVertex("a"), b = g.AddVertex("b");
  ASSERT_TRUE(g.AddEdge(a, b, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(b, a, 0.25).ok());  // same undirected edge
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edges()[0].weight, 0.75);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 0.75);
}

TEST(GraphTest, RejectsBadEdges) {
  Graph g;
  VertexId a = g.AddVertex("a");
  VertexId b = g.AddVertex("b");
  EXPECT_TRUE(g.AddEdge(a, a, 1.0).IsInvalidArgument());  // self-loop
  EXPECT_TRUE(g.AddEdge(a, 99, 1.0).IsOutOfRange());
  EXPECT_TRUE(g.AddEdge(a, b, 0.0).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(a, b, -1.0).IsInvalidArgument());
}

TEST(GraphTest, AdjacencyAndDegrees) {
  Graph g;
  VertexId a = g.AddVertex("a"), b = g.AddVertex("b"), c = g.AddVertex("c");
  ASSERT_TRUE(g.AddEdge(a, b, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(a, c, 2.0).ok());
  g.Finalize();
  EXPECT_EQ(g.neighbors(a).size(), 2u);
  EXPECT_EQ(g.neighbors(b).size(), 1u);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(a), 3.0);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(c), 2.0);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 3.0);
}

TEST(GraphTest, FinalizeIsIdempotentAndReentrant) {
  Graph g;
  VertexId a = g.AddVertex("a"), b = g.AddVertex("b");
  ASSERT_TRUE(g.AddEdge(a, b, 1.0).ok());
  g.Finalize();
  g.Finalize();
  EXPECT_EQ(g.neighbors(a).size(), 1u);
  // Adding an edge after finalize and re-finalizing refreshes adjacency.
  VertexId c = g.AddVertex("c");
  ASSERT_TRUE(g.AddEdge(a, c, 1.0).ok());
  g.Finalize();
  EXPECT_EQ(g.neighbors(a).size(), 2u);
}

// --------------------------------------------------------------- Builder --

class BuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    querylog::UniverseOptions uo;
    uo.num_categories = 3;
    uo.domains_per_category = 8;
    uo.seed = 21;
    universe_ = std::make_unique<querylog::TopicUniverse>(
        *querylog::TopicUniverse::Generate(uo));
    querylog::GeneratorOptions go;
    go.seed = 22;
    go.head_impressions = 20000;
    log_ = std::make_unique<querylog::GeneratedLog>(
        *GenerateQueryLog(*universe_, go));
  }

  std::unique_ptr<querylog::TopicUniverse> universe_;
  std::unique_ptr<querylog::GeneratedLog> log_;
};

TEST_F(BuilderTest, EdgesConnectSameDomainQueries) {
  SimilarityGraphOptions options;
  options.min_similarity = 0.2;
  Graph g = *BuildSimilarityGraph(log_->log, options);
  ASSERT_GT(g.num_edges(), 0u);
  g.Finalize();
  // Most edges should connect queries of the same latent domain.
  size_t same = 0, total = 0;
  querylog::QueryLog filtered = log_->log.FilterByMinCount(50);
  for (const Edge& e : g.edges()) {
    auto qa = filtered.FindQuery(g.label(e.u));
    auto qb = filtered.FindQuery(g.label(e.v));
    ASSERT_TRUE(qa.ok());
    ASSERT_TRUE(qb.ok());
    ++total;
    if (filtered.query(*qa).true_domain == filtered.query(*qb).true_domain) {
      ++same;
    }
  }
  EXPECT_GT(static_cast<double>(same) / static_cast<double>(total), 0.6);
}

TEST_F(BuilderTest, MinSimilarityIsRespected) {
  SimilarityGraphOptions options;
  options.min_similarity = 0.3;
  Graph g = *BuildSimilarityGraph(log_->log, options);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 0.3);
    EXPECT_LE(e.weight, 1.0 + 1e-9);
  }
}

TEST_F(BuilderTest, MinCountFilterDropsTail) {
  SimilarityGraphOptions options;
  options.min_query_count = 50;
  Graph g = *BuildSimilarityGraph(log_->log, options);
  querylog::QueryLog filtered = log_->log.FilterByMinCount(50);
  EXPECT_EQ(g.num_vertices(), filtered.num_queries());
}

TEST_F(BuilderTest, ParallelBuildMatchesSerial) {
  SimilarityGraphOptions serial_options;
  serial_options.min_similarity = 0.15;
  Graph serial = *BuildSimilarityGraph(log_->log, serial_options);

  ThreadPool pool(4);
  SimilarityGraphOptions parallel_options = serial_options;
  parallel_options.pool = &pool;
  parallel_options.num_partitions = 7;
  Graph parallel = *BuildSimilarityGraph(log_->log, parallel_options);

  ASSERT_EQ(serial.num_vertices(), parallel.num_vertices());
  ASSERT_EQ(serial.num_edges(), parallel.num_edges());
  // Edge sets are identical (worker ranges partition the same pair space).
  auto canonical = [](const Graph& g) {
    std::vector<std::tuple<VertexId, VertexId, double>> out;
    for (const Edge& e : g.edges()) out.emplace_back(e.u, e.v, e.weight);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canonical(serial), canonical(parallel));
}

TEST_F(BuilderTest, MeterRecordsExtractionStage) {
  ResourceMeter meter;
  SimilarityGraphOptions options;
  options.meter = &meter;
  ASSERT_TRUE(BuildSimilarityGraph(log_->log, options).ok());
  EXPECT_GT(meter.Get("Extraction").bytes_read, 0u);
  EXPECT_GT(meter.Get("Extraction").rows_written, 0u);
}

TEST_F(BuilderTest, FusedScoringMatchesUnfusedReference) {
  // The builder fuses candidate generation with dot-product accumulation
  // during the inverted-index scan. This reference re-implements the
  // unfused two-pass shape (candidates first, then Cosine per pair, which
  // rewalks both vectors) and must produce the identical edge set with
  // bitwise-identical weights.
  SimilarityGraphOptions options;
  options.min_similarity = 0.15;
  options.max_url_fanout = 32;  // small cap so hub URLs exercise the fix-up
  Graph g = *BuildSimilarityGraph(log_->log, options);

  querylog::QueryLog filtered =
      log_->log.FilterByMinCount(options.min_query_count);
  std::vector<SparseVector> vectors = filtered.BuildClickVectors();
  const size_t n = filtered.num_queries();
  std::unordered_map<uint32_t, std::vector<uint32_t>> url_to_queries;
  for (const querylog::ClickRecord& r : filtered.records()) {
    url_to_queries[r.url_id].push_back(r.query_id);
  }
  std::vector<std::tuple<VertexId, VertexId, double>> expected;
  for (size_t q = 0; q < n; ++q) {
    std::unordered_set<uint32_t> candidates;
    for (const auto& [url, clicks] : vectors[q].entries()) {
      (void)clicks;
      auto it = url_to_queries.find(url);
      if (it == url_to_queries.end()) continue;
      if (it->second.size() > options.max_url_fanout) continue;
      for (uint32_t other : it->second) {
        if (other > q) candidates.insert(other);
      }
    }
    for (uint32_t other : candidates) {
      double sim = vectors[q].Cosine(vectors[other]);
      if (sim >= options.min_similarity) {
        expected.emplace_back(static_cast<VertexId>(q),
                              static_cast<VertexId>(other), sim);
      }
    }
  }
  std::sort(expected.begin(), expected.end());

  std::vector<std::tuple<VertexId, VertexId, double>> actual;
  for (const Edge& e : g.edges()) actual.emplace_back(e.u, e.v, e.weight);
  std::sort(actual.begin(), actual.end());
  ASSERT_FALSE(actual.empty());
  EXPECT_EQ(expected, actual);
}

TEST(BuilderOptionsTest, InvalidSimilarityRejected) {
  querylog::QueryLog log;
  SimilarityGraphOptions options;
  options.min_similarity = 1.5;
  EXPECT_FALSE(BuildSimilarityGraph(log, options).ok());
}

TEST(BuilderTest2, HubUrlsAreSkippedForCandidates) {
  // Two queries share only one URL, clicked by many queries: with a tiny
  // max_url_fanout the pair is never considered.
  querylog::QueryLog log;
  for (int q = 0; q < 10; ++q) {
    uint32_t id = log.AddQuery("q" + std::to_string(q), 0, false);
    log.AddSearches(id, 100);
    log.AddClicks(id, 999, 10);  // hub URL shared by all
  }
  SimilarityGraphOptions options;
  options.max_url_fanout = 5;
  options.min_similarity = 0.01;
  Graph g = *BuildSimilarityGraph(log, options);
  EXPECT_EQ(g.num_edges(), 0u);
  // With a generous fanout the clique appears.
  options.max_url_fanout = 100;
  Graph g2 = *BuildSimilarityGraph(log, options);
  EXPECT_GT(g2.num_edges(), 0u);
}

}  // namespace
}  // namespace esharp::graph
