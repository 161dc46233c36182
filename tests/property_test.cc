// Property-based tests: invariants that must hold for ANY input, exercised
// over seeded random instances (TEST_P sweeps).

#include <gtest/gtest.h>

#include <numeric>

#include "community/modularity.h"
#include "community/parallel_cd.h"
#include "common/rng.h"
#include "graph/builder.h"
#include "querylog/generator.h"
#include "sqlengine/plan.h"

namespace esharp {
namespace {

// ------------------------------------------------------- Random builders --

graph::Graph RandomGraph(uint64_t seed, size_t n, double p) {
  Rng rng(seed);
  graph::Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex("v" + std::to_string(i));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(p)) {
        EXPECT_TRUE(g.AddEdge(static_cast<graph::VertexId>(a),
                              static_cast<graph::VertexId>(b),
                              0.05 + rng.NextDouble())
                        .ok());
      }
    }
  }
  g.Finalize();
  return g;
}

sql::Table RandomSqlTable(uint64_t seed, size_t rows) {
  Rng rng(seed);
  sql::TableBuilder b({{"k", sql::DataType::kInt64},
                       {"s", sql::DataType::kString},
                       {"x", sql::DataType::kDouble}});
  for (size_t i = 0; i < rows; ++i) {
    b.AddRow({sql::Value::Int(static_cast<int64_t>(rng.Uniform(20))),
              sql::Value::String("s" + std::to_string(rng.Uniform(5))),
              sql::Value::Double(rng.NextDouble())});
  }
  return *b.Build();
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

// ----------------------------------------------- Modularity bookkeeping ---

TEST_P(SeededProperty, DegreeSumsAccountForEveryEdgeTwice) {
  graph::Graph g = RandomGraph(GetParam(), 40, 0.15);
  if (g.num_edges() == 0) return;
  community::Partition p(g);
  double degree_total = 0;
  for (community::CommunityId c : p.CommunityIds()) {
    degree_total += p.DegreeSum(c);
  }
  EXPECT_NEAR(degree_total, 2.0 * g.TotalWeight(), 1e-9);
}

TEST_P(SeededProperty, InternalPlusInterWeightsEqualTotal) {
  graph::Graph g = RandomGraph(GetParam() + 1, 40, 0.15);
  if (g.num_edges() == 0) return;
  // Random partition into 5 groups.
  Rng rng(GetParam() + 2);
  community::Partition p(g);
  std::unordered_map<community::CommunityId, community::CommunityId> relabel;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    relabel[static_cast<community::CommunityId>(v)] =
        static_cast<community::CommunityId>(rng.Uniform(5));
  }
  p.Relabel(relabel);
  double internal = 0;
  for (community::CommunityId c : p.CommunityIds()) {
    internal += p.InternalWeight(c);
  }
  double inter = 0;
  for (const auto& [key, w] : p.InterCommunityWeights()) inter += w;
  EXPECT_NEAR(internal + inter, g.TotalWeight(), 1e-9);
}

TEST_P(SeededProperty, SingletonModularityIsNonPositive) {
  graph::Graph g = RandomGraph(GetParam() + 3, 30, 0.2);
  if (g.num_edges() == 0) return;
  community::ModularityContext ctx(g);
  community::Partition p(g);
  EXPECT_LE(p.TotalModularity(ctx), 1e-9);
}

TEST_P(SeededProperty, GroupingEverythingScoresZero) {
  // One community holding the whole graph: Mod = m - m*(2m/2m)^2 = 0.
  graph::Graph g = RandomGraph(GetParam() + 4, 30, 0.2);
  if (g.num_edges() == 0) return;
  community::ModularityContext ctx(g);
  community::Partition p(g);
  std::unordered_map<community::CommunityId, community::CommunityId> relabel;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    relabel[static_cast<community::CommunityId>(v)] = 0;
  }
  p.Relabel(relabel);
  EXPECT_NEAR(p.TotalModularity(ctx), 0.0, 1e-9);
}

// --------------------------------------------------- Detection invariants --

TEST_P(SeededProperty, DetectionImprovesModularityAndShrinksCommunities) {
  graph::Graph g = RandomGraph(GetParam() + 5, 40, 0.12);
  if (g.num_edges() == 0) return;
  community::DetectionResult r = *community::DetectCommunitiesParallel(g);
  EXPECT_GE(r.modularity_per_iteration.back(),
            r.modularity_per_iteration.front() - 1e-9);
  EXPECT_LE(r.communities_per_iteration.back(),
            r.communities_per_iteration.front());
  // Labels are valid vertex ids and the partition covers every vertex.
  for (community::CommunityId c : r.assignment) {
    EXPECT_LT(c, g.num_vertices());
  }
}

TEST_P(SeededProperty, DetectionIsIdempotentAtTheFixpoint) {
  graph::Graph g = RandomGraph(GetParam() + 6, 35, 0.12);
  if (g.num_edges() == 0) return;
  community::DetectionResult first = *community::DetectCommunitiesParallel(g);
  community::ParallelCdOptions options;
  options.warm_start = &first.assignment;
  community::DetectionResult second =
      *community::DetectCommunitiesParallel(g, options);
  EXPECT_EQ(second.iterations, 0u);
  EXPECT_EQ(second.assignment, first.assignment);
}

// -------------------------------------------------- Relational identities --

sql::Table RunPlan(const sql::Plan& plan) {
  Result<sql::Table> out = sql::Executor().Execute(plan, sql::Catalog());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(out).MoveValueUnsafe() : sql::Table();
}

TEST_P(SeededProperty, FilterPartitionsTheTable) {
  sql::Table t = RandomSqlTable(GetParam() + 7, 300);
  sql::ExprPtr pred = sql::Gt(sql::Col("x"), sql::LitDouble(0.5));
  sql::Table yes = RunPlan(sql::Plan::Values(t).Where(pred));
  sql::Table no = RunPlan(sql::Plan::Values(t).Where(sql::Not(pred)));
  EXPECT_EQ(yes.num_rows() + no.num_rows(), t.num_rows());
}

TEST_P(SeededProperty, DistinctAndSortAreIdempotent) {
  sql::Table t = RandomSqlTable(GetParam() + 8, 200);
  sql::Table d1 = RunPlan(sql::Plan::Values(t).Distinct());
  sql::Table d2 = RunPlan(sql::Plan::Values(d1).Distinct());
  EXPECT_EQ(d1.num_rows(), d2.num_rows());
  sql::Table s1 = RunPlan(sql::Plan::Values(t).OrderBy({"k", "x"}));
  sql::Table s2 = RunPlan(sql::Plan::Values(s1).OrderBy({"k", "x"}));
  for (size_t i = 0; i < s1.num_rows(); ++i) {
    for (size_t c = 0; c < s1.num_columns(); ++c) {
      EXPECT_EQ(s1.row(i)[c].Compare(s2.row(i)[c]), 0);
    }
  }
}

TEST_P(SeededProperty, GroupCountsSumToRowCount) {
  sql::Table t = RandomSqlTable(GetParam() + 9, 400);
  sql::Table grouped =
      RunPlan(sql::Plan::Values(t).GroupBy({"k"}, {sql::CountStar("n")}));
  int64_t total = 0;
  for (const sql::Row& r : grouped.rows()) total += r[1].int_value();
  EXPECT_EQ(static_cast<size_t>(total), t.num_rows());
}

TEST_P(SeededProperty, JoinOnDistinctKeyPreservesRows) {
  // Build a right side with unique keys; inner join keeps exactly the left
  // rows whose key exists on the right.
  sql::Table left = RandomSqlTable(GetParam() + 10, 250);
  sql::TableBuilder rb({{"k2", sql::DataType::kInt64},
                        {"tag", sql::DataType::kString}});
  for (int64_t k = 0; k < 20; ++k) {
    rb.AddRow({sql::Value::Int(k), sql::Value::String("t")});
  }
  sql::Table right = *rb.Build();
  sql::Table joined =
      RunPlan(sql::Plan::Values(left).Join(sql::Plan::Values(right), {"k"}, {"k2"}));
  EXPECT_EQ(joined.num_rows(), left.num_rows());  // every key 0..19 covered
}

// -------------------------------------------------- Extraction invariants --

TEST_P(SeededProperty, SimilarityGraphEdgesWithinBounds) {
  querylog::UniverseOptions uo;
  uo.num_categories = 2;
  uo.domains_per_category = 6;
  uo.seed = GetParam() + 11;
  querylog::TopicUniverse universe =
      *querylog::TopicUniverse::Generate(uo);
  querylog::GeneratorOptions go;
  go.seed = GetParam() + 12;
  querylog::GeneratedLog gen = *GenerateQueryLog(universe, go);
  graph::SimilarityGraphOptions options;
  options.min_similarity = 0.2;
  graph::Graph g = *BuildSimilarityGraph(gen.log, options);
  for (const graph::Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 0.2);
    EXPECT_LE(e.weight, 1.0 + 1e-9);
    EXPECT_NE(e.u, e.v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1000, 2000, 3000, 4000, 5000));

}  // namespace
}  // namespace esharp
