// Tests for the paper's optional/extension features: the Pal & Counts
// cluster-analysis filter (§3, deliberately dropped by e#), the alternative
// community-detection paradigm (label propagation, §8 future work) and the
// Q&A substrate (§8: "expanding into other social networks such as Quora").

#include <gtest/gtest.h>

#include <set>

#include "community/label_propagation.h"
#include "community/louvain.h"
#include "community/parallel_cd.h"
#include "community/store.h"
#include "esharp/pipeline.h"
#include "expert/cluster_filter.h"
#include "expert/detector.h"
#include "qna/detector.h"
#include "querylog/generator.h"

namespace esharp {
namespace {

// ----------------------------------------------------- Cluster filtering --

expert::RankedExpert MakeRanked(microblog::UserId id, double ts, double mi,
                                double ri) {
  expert::RankedExpert e;
  e.user = id;
  e.z_topical_signal = ts;
  e.z_mention_impact = mi;
  e.z_retweet_impact = ri;
  e.score = 0.4 * ts + 0.4 * mi + 0.2 * ri;
  return e;
}

TEST(ClusterFilterTest, KeepsTheAuthorityCluster) {
  // Two clear clusters in feature space: authorities near (2,2,2), the
  // rest near (-1,-1,-1).
  std::vector<expert::RankedExpert> ranked;
  for (int i = 0; i < 3; ++i) {
    ranked.push_back(MakeRanked(i, 2.0 + 0.1 * i, 2.0, 2.0));
  }
  for (int i = 3; i < 10; ++i) {
    ranked.push_back(MakeRanked(i, -1.0, -1.0 - 0.05 * i, -1.0));
  }
  auto kept = expert::ClusterFilter(ranked);
  ASSERT_EQ(kept.size(), 3u);
  for (const auto& e : kept) EXPECT_LT(e.user, 3u);
}

TEST(ClusterFilterTest, TinyPoolsPassThrough) {
  std::vector<expert::RankedExpert> ranked = {MakeRanked(0, 1, 1, 1),
                                              MakeRanked(1, -1, -1, -1)};
  EXPECT_EQ(expert::ClusterFilter(ranked).size(), 2u);
  EXPECT_TRUE(expert::ClusterFilter({}).empty());
}

TEST(ClusterFilterTest, FilterReducesRecallInTheDetector) {
  // The precise reason e# drops the stage: with the filter on, fewer
  // candidates survive (never more).
  microblog::TweetCorpus corpus;
  for (microblog::UserId id = 0; id < 8; ++id) {
    microblog::UserProfile u;
    u.id = id;
    u.screen_name = "u" + std::to_string(id);
    corpus.AddUser(u);
  }
  Rng rng(3);
  for (microblog::UserId id = 0; id < 8; ++id) {
    // Users 0-1 are concentrated authorities; the rest dabble.
    size_t topical = id < 2 ? 8 : 1;
    size_t off = id < 2 ? 1 : 6;
    for (size_t t = 0; t < topical; ++t) {
      corpus.AddTweet(id, "chess openings", {},
                      id < 2 ? 4 + static_cast<uint32_t>(rng.Uniform(5)) : 0);
    }
    for (size_t t = 0; t < off; ++t) corpus.AddTweet(id, "lunch break", {}, 0);
  }
  expert::DetectorOptions base;
  base.min_z_score = -100;
  expert::ExpertDetector plain(&corpus, base);
  expert::DetectorOptions filtered_options = base;
  filtered_options.enable_cluster_filter = true;
  expert::ExpertDetector filtered(&corpus, filtered_options);

  auto all = *plain.FindExperts("chess");
  auto kept = *filtered.FindExperts("chess");
  EXPECT_EQ(all.size(), 8u);
  EXPECT_LT(kept.size(), all.size());
  // The authorities survive the filter.
  std::set<microblog::UserId> kept_ids;
  for (const auto& e : kept) kept_ids.insert(e.user);
  EXPECT_TRUE(kept_ids.count(0));
  EXPECT_TRUE(kept_ids.count(1));
}

// --------------------------------------------------- Label propagation ----

graph::Graph TwoCliquesLp() {
  graph::Graph g;
  for (int i = 0; i < 8; ++i) g.AddVertex("v" + std::to_string(i));
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) EXPECT_TRUE(g.AddEdge(a, b, 1.0).ok());
  }
  for (int a = 4; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) EXPECT_TRUE(g.AddEdge(a, b, 1.0).ok());
  }
  EXPECT_TRUE(g.AddEdge(3, 4, 0.1).ok());
  g.Finalize();
  return g;
}

TEST(LabelPropagationTest, TwoCliquesSplit) {
  graph::Graph g = TwoCliquesLp();
  community::DetectionResult r =
      *community::DetectCommunitiesLabelPropagation(g);
  EXPECT_TRUE(r.converged);
  std::set<community::CommunityId> labels(r.assignment.begin(),
                                          r.assignment.end());
  EXPECT_EQ(labels.size(), 2u);
  EXPECT_EQ(r.assignment[0], r.assignment[3]);
  EXPECT_EQ(r.assignment[4], r.assignment[7]);
  EXPECT_NE(r.assignment[0], r.assignment[4]);
}

TEST(LabelPropagationTest, DeterministicAndEdgelessSafe) {
  graph::Graph g = TwoCliquesLp();
  auto a = *community::DetectCommunitiesLabelPropagation(g);
  auto b = *community::DetectCommunitiesLabelPropagation(g);
  EXPECT_EQ(a.assignment, b.assignment);

  graph::Graph lonely;
  lonely.AddVertex("x");
  lonely.AddVertex("y");
  lonely.Finalize();
  auto r = *community::DetectCommunitiesLabelPropagation(lonely);
  EXPECT_TRUE(r.converged);
  EXPECT_NE(r.assignment[0], r.assignment[1]);
}

TEST(LabelPropagationTest, ComparableModularityToParallelCd) {
  // LPA has no objective, but on well-separated graphs its partitions score
  // within range of modularity maximization.
  graph::Graph g = TwoCliquesLp();
  auto lpa = *community::DetectCommunitiesLabelPropagation(g);
  auto cd = *community::DetectCommunitiesParallel(g);
  EXPECT_GT(lpa.modularity_per_iteration.back(),
            0.5 * cd.modularity_per_iteration.back());
}

// -------------------------------------------------------------- Louvain ---

TEST(LouvainTest, TwoCliquesSplit) {
  graph::Graph g = TwoCliquesLp();
  community::DetectionResult r = *community::DetectCommunitiesLouvain(g);
  std::set<community::CommunityId> labels(r.assignment.begin(),
                                          r.assignment.end());
  EXPECT_EQ(labels.size(), 2u);
  EXPECT_EQ(r.assignment[0], r.assignment[3]);
  EXPECT_EQ(r.assignment[4], r.assignment[7]);
  EXPECT_NE(r.assignment[0], r.assignment[4]);
}

TEST(LouvainTest, ModularityNeverDecreasesAcrossLevels) {
  graph::Graph g = TwoCliquesLp();
  community::DetectionResult r = *community::DetectCommunitiesLouvain(g);
  for (size_t i = 1; i < r.modularity_per_iteration.size(); ++i) {
    EXPECT_GE(r.modularity_per_iteration[i],
              r.modularity_per_iteration[i - 1] - 1e-9);
  }
}

TEST(LouvainTest, MatchesOrBeatsParallelModularity) {
  // Louvain's vertex-level refinement should reach at least the bulk-merge
  // algorithm's modularity on small planted graphs.
  Rng rng(999);
  graph::Graph g;
  for (int i = 0; i < 36; ++i) g.AddVertex("v" + std::to_string(i));
  for (int a = 0; a < 36; ++a) {
    for (int b = a + 1; b < 36; ++b) {
      bool same = (a / 12) == (b / 12);
      if (rng.Bernoulli(same ? 0.7 : 0.04)) {
        EXPECT_TRUE(g.AddEdge(a, b, 0.3 + 0.7 * rng.NextDouble()).ok());
      }
    }
  }
  g.Finalize();
  auto louvain = *community::DetectCommunitiesLouvain(g);
  auto parallel = *community::DetectCommunitiesParallel(g);
  EXPECT_GE(louvain.modularity_per_iteration.back(),
            parallel.modularity_per_iteration.back() - 1e-6);
}

TEST(LouvainTest, EdgelessAndEmptyHandled) {
  graph::Graph g;
  EXPECT_FALSE(community::DetectCommunitiesLouvain(g).ok());
  g.AddVertex("a");
  g.Finalize();
  auto r = *community::DetectCommunitiesLouvain(g);
  EXPECT_TRUE(r.converged);
}

// ------------------------------------------------------- Q&A substrate ----

class QnaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    querylog::UniverseOptions uo;
    uo.num_categories = 2;
    uo.domains_per_category = 10;
    uo.seed = 801;
    universe_ = std::make_unique<querylog::TopicUniverse>(
        *querylog::TopicUniverse::Generate(uo));
    qna::QnaOptions qo;
    qo.seed = 802;
    qo.casual_users = 200;
    corpus_ = std::make_unique<qna::QnaCorpus>(
        *GenerateQnaCorpus(*universe_, qo));
  }

  std::unique_ptr<querylog::TopicUniverse> universe_;
  std::unique_ptr<qna::QnaCorpus> corpus_;
};

TEST_F(QnaTest, CorpusHasQuestionsAndAnswers) {
  EXPECT_GT(corpus_->num_questions(), 100u);
  EXPECT_GT(corpus_->num_answers(), 100u);
}

TEST_F(QnaTest, MatchQuestionsFindsTopicalTitles) {
  const querylog::TopicDomain& dom = universe_->domain(0);
  auto hits = corpus_->MatchQuestions({dom.terms[0]});
  for (uint32_t qid : hits) {
    EXPECT_NE(corpus_->question(qid).title.find(dom.terms[0]),
              std::string::npos);
  }
}

TEST_F(QnaTest, DetectorRanksDomainExpertsOnTop) {
  qna::QnaDetectorOptions options;
  options.min_z_score = -100;
  qna::QnaExpertDetector detector(corpus_.get(), options);
  // Use a popular head term; the top answerers should be experts of the
  // right domain.
  const querylog::TopicDomain& dom = universe_->domain(0);
  auto experts = *detector.FindExperts(dom.terms[0]);
  ASSERT_FALSE(experts.empty());
  const qna::UserProfile& top = corpus_->user(experts[0].user);
  EXPECT_EQ(top.kind, qna::AccountKind::kExpert);
  EXPECT_EQ(top.domain, dom.id);
}

TEST_F(QnaTest, MaxExpertsCapsTheAnswerEvenAtZero) {
  const std::string& term = universe_->domain(0).terms[0];
  qna::QnaDetectorOptions options;
  options.min_z_score = -100;
  options.max_experts = 100000;
  const size_t all =
      (*qna::QnaExpertDetector(corpus_.get(), options).FindExperts(term))
          .size();
  ASSERT_GT(all, 2u);
  for (size_t cap : {0, 1, 2}) {
    options.max_experts = cap;
    qna::QnaExpertDetector capped(corpus_.get(), options);
    EXPECT_EQ((*capped.FindExperts(term)).size(), cap) << "cap " << cap;
  }
}

TEST_F(QnaTest, ExpansionImprovesQnaRecallToo) {
  // Build the community store from the (shared-universe) query log, then
  // compare plain vs expanded Q&A search over all canonical terms.
  querylog::GeneratorOptions go;
  go.seed = 803;
  querylog::GeneratedLog gen = *GenerateQueryLog(*universe_, go);
  core::OfflineOptions offline;
  core::OfflineArtifacts artifacts = *RunOfflinePipeline(gen.log, offline);

  qna::QnaDetectorOptions options;
  options.min_z_score = -1e9;
  options.max_experts = 100000;
  qna::QnaExpertDetector detector(corpus_.get(), options);

  size_t wins = 0, total = 0;
  for (const querylog::TopicDomain& dom : universe_->domains()) {
    for (const std::string& term : dom.terms) {
      ++total;
      auto plain = *detector.FindExperts(term);
      auto expanded = *detector.FindExpertsExpanded(artifacts.store, term);
      EXPECT_GE(expanded.size(), plain.size()) << term;
      if (expanded.size() > plain.size()) ++wins;
    }
  }
  EXPECT_GT(total, 20u);
  EXPECT_GT(wins, 0u);
}

TEST_F(QnaTest, MergeQnaEvidenceSums) {
  qna::AnswererEvidence a;
  a.user = 3;
  a.answers_on_topic = 2;
  a.upvotes_on_topic = 10;
  qna::AnswererEvidence b;
  b.user = 3;
  b.answers_on_topic = 1;
  b.accepts_on_topic = 1;
  auto merged = qna::MergeQnaEvidence({{a}, {b}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].answers_on_topic, 3u);
  EXPECT_EQ(merged[0].upvotes_on_topic, 10u);
  EXPECT_EQ(merged[0].accepts_on_topic, 1u);
}

// ----------------------------------------------- Extended features (§3) ---

TEST(ExtendedFeaturesTest, DisabledByDefaultAndZeroed) {
  microblog::TweetCorpus corpus;
  microblog::UserProfile u;
  u.id = 0;
  u.followers = 1000;
  corpus.AddUser(u);
  microblog::UserProfile v;
  v.id = 1;
  corpus.AddUser(v);
  corpus.AddTweet(0, "golf tips #golf", {1}, 2);
  corpus.AddTweet(1, "golf weekend", {}, 0);
  expert::DetectorOptions options;
  options.min_z_score = -100;
  expert::ExpertDetector detector(&corpus, options);
  auto experts = *detector.FindExperts("golf");
  ASSERT_EQ(experts.size(), 2u);
  for (const auto& e : experts) {
    EXPECT_EQ(e.z_conversation, 0);
    EXPECT_EQ(e.z_hashtag, 0);
    EXPECT_EQ(e.z_followers, 0);
  }
}

TEST(ExtendedFeaturesTest, FollowerWeightPrefersInfluencers) {
  microblog::TweetCorpus corpus;
  for (microblog::UserId id = 0; id < 2; ++id) {
    microblog::UserProfile u;
    u.id = id;
    u.followers = id == 0 ? 5 : 500000;
    corpus.AddUser(u);
    corpus.AddTweet(id, "golf tips", {}, 1);  // otherwise identical
  }
  expert::DetectorOptions options;
  options.min_z_score = -100;
  options.weight_followers = 1.0;
  expert::ExpertDetector detector(&corpus, options);
  auto experts = *detector.FindExperts("golf");
  ASSERT_EQ(experts.size(), 2u);
  EXPECT_EQ(experts[0].user, 1u);  // the influencer ranks first
  EXPECT_GT(experts[0].z_followers, experts[1].z_followers);
}

TEST(ExtendedFeaturesTest, HashtagAndConversationEvidenceCounted) {
  microblog::TweetCorpus corpus;
  microblog::UserProfile u;
  u.id = 0;
  corpus.AddUser(u);
  microblog::UserProfile v;
  v.id = 1;
  corpus.AddUser(v);
  corpus.AddTweet(0, "golf tips #golfing today", {1}, 0);
  corpus.AddTweet(0, "golf swing", {}, 0);
  expert::ExpertDetector detector(&corpus);
  auto candidates = detector.CollectCandidates("golf");
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].hashtag_on_topic, 1u);
  EXPECT_EQ(candidates[0].conversational_on_topic, 1u);
}

// ------------------------------------------------ Warm-start refresh ------

TEST(WarmStartTest, PartitionFromAssignmentBookkeepsCorrectly) {
  graph::Graph g = TwoCliquesLp();
  std::vector<community::CommunityId> warm = {0, 0, 0, 0, 4, 4, 4, 4};
  community::Partition p(g, warm);
  EXPECT_EQ(p.NumCommunities(), 2u);
  EXPECT_DOUBLE_EQ(p.InternalWeight(0), 6.0);
}

TEST(WarmStartTest, WarmStartConvergesInFewerIterations) {
  graph::Graph g = TwoCliquesLp();
  community::DetectionResult cold = *community::DetectCommunitiesParallel(g);
  community::ParallelCdOptions options;
  options.warm_start = &cold.assignment;
  community::DetectionResult warm =
      *community::DetectCommunitiesParallel(g, options);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.iterations, 0u);  // already at the fixpoint
  EXPECT_EQ(warm.assignment, cold.assignment);
}

TEST(WarmStartTest, ArityMismatchRejected) {
  graph::Graph g = TwoCliquesLp();
  std::vector<community::CommunityId> short_warm = {0, 0};
  community::ParallelCdOptions options;
  options.warm_start = &short_warm;
  EXPECT_FALSE(community::DetectCommunitiesParallel(g, options).ok());
}

TEST(WarmStartTest, WarmStartFromStoreMapsPersistingQueries) {
  // Old store: {a, b} together, {c} alone.
  graph::Graph old_graph;
  old_graph.AddVertex("a");
  old_graph.AddVertex("b");
  old_graph.AddVertex("c");
  old_graph.Finalize();
  community::CommunityStore previous =
      community::CommunityStore::Build(old_graph, {0, 0, 2});

  // New graph: b and c persist (new ids), d is new.
  graph::Graph new_graph;
  new_graph.AddVertex("b");  // id 0
  new_graph.AddVertex("d");  // id 1
  new_graph.AddVertex("a");  // id 2
  new_graph.AddVertex("c");  // id 3
  new_graph.Finalize();

  auto warm = core::WarmStartFromStore(new_graph, previous);
  ASSERT_EQ(warm.size(), 4u);
  EXPECT_EQ(warm[0], warm[2]);  // a and b still share a community
  EXPECT_EQ(warm[0], 0u);       // named by the smallest member id
  EXPECT_EQ(warm[1], 1u);       // new query: singleton named by itself
  EXPECT_EQ(warm[3], 3u);       // c alone
}

TEST(WarmStartTest, IncrementalPipelineMatchesColdResultShape) {
  querylog::UniverseOptions uo;
  uo.num_categories = 2;
  uo.domains_per_category = 10;
  uo.seed = 871;
  querylog::TopicUniverse universe =
      *querylog::TopicUniverse::Generate(uo);
  querylog::GeneratorOptions week1;
  week1.seed = 872;
  querylog::GeneratedLog log1 = *GenerateQueryLog(universe, week1);
  querylog::GeneratorOptions week2;
  week2.seed = 873;  // a different week: same universe, fresh noise
  querylog::GeneratedLog log2 = *GenerateQueryLog(universe, week2);

  core::OfflineOptions cold;
  core::OfflineArtifacts week1_artifacts = *RunOfflinePipeline(log1.log, cold);
  core::OfflineArtifacts cold2 = *RunOfflinePipeline(log2.log, cold);

  core::OfflineOptions incremental;
  incremental.previous_store = &week1_artifacts.store;
  core::OfflineArtifacts warm2 = *RunOfflinePipeline(log2.log, incremental);

  // The warm run needs no more iterations than the cold run and produces a
  // comparable number of communities.
  EXPECT_LE(warm2.communities_per_iteration.size(),
            cold2.communities_per_iteration.size());
  double cold_count = static_cast<double>(cold2.store.num_communities());
  double warm_count = static_cast<double>(warm2.store.num_communities());
  EXPECT_LT(std::abs(cold_count - warm_count), 0.35 * cold_count);
}

}  // namespace
}  // namespace esharp
