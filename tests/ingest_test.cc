// The streaming-ingestion suite (ctest -L ingest): every delta-published
// generation must be *bit-identical* to an offline from-scratch rebuild
// over the same accumulated inputs — across randomized interleavings of
// tweet appends, query-log triples, users and publishes; both clustering
// backends; and the sharded tier end to end through the router. The
// structural-sharing tests pin the delta claims (clean pools and reused
// stores ARE the previous generation's objects, not copies), and the
// stress test at the bottom (concurrent ingest x queries x hot-swap)
// joins the serving label's TSan runs.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "community/component_cd.h"
#include "community/parallel_cd.h"
#include "community/sql_cd.h"
#include "esharp/esharp.h"
#include "graph/builder.h"
#include "ingest/ingest.h"
#include "ingest/introspect.h"
#include "ingest/sharded.h"
#include "ingest/verify.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serving/engine.h"
#include "serving/snapshot.h"

namespace esharp {
namespace {

using ingest::IngestOptions;
using ingest::IngestPipeline;
using ingest::PublishStats;
using ingest::ShardedIngest;

// Small vocabularies so random draws collide: queries share urls (edges
// form), tweets share tokens with query terms (evidence pools fill).
const char* kTopics[] = {"solar", "panels", "nhl", "hockey", "sushi",
                         "kernel", "tuning", "yoga", "lisp", "macros"};
constexpr size_t kNumTopics = 10;

IngestOptions TestOptions(core::ClusteringBackend backend =
                              core::ClusteringBackend::kParallelNative) {
  IngestOptions options;
  options.extraction.min_query_count = 3;
  options.extraction.min_similarity = 0.10;
  // Tiny fanout cap so the fuzz actually exercises hub flips.
  options.extraction.max_url_fanout = 4;
  options.backend = backend;
  return options;
}

std::string RandomQuery(Rng& rng) {
  std::string q = kTopics[rng.Uniform(kNumTopics)];
  if (rng.Bernoulli(0.4)) {
    q += " ";
    q += kTopics[rng.Uniform(kNumTopics)];
  }
  return q;
}

std::string RandomTweetText(Rng& rng) {
  std::string text = "about";
  size_t words = 1 + rng.Uniform(4);
  for (size_t i = 0; i < words; ++i) {
    text += " ";
    text += kTopics[rng.Uniform(kNumTopics)];
  }
  return text;
}

microblog::UserProfile MakeUser(microblog::UserId id) {
  microblog::UserProfile user;
  user.id = id;
  user.screen_name = "user" + std::to_string(id);
  user.followers = 10 + id;
  return user;
}

// One random append, drawn from the full op mix. `target` abstracts over
// IngestPipeline and ShardedIngest (same writer API).
template <typename Target>
void RandomAppend(Rng& rng, Target& target, microblog::UserId* num_users) {
  switch (rng.Uniform(10)) {
    case 0: {  // new user
      target.AppendUser(MakeUser((*num_users)++));
      break;
    }
    case 1:
    case 2: {  // query-log triples
      if (rng.Bernoulli(0.5)) {
        target.AppendSearches(RandomQuery(rng), 1 + rng.Uniform(3));
      } else {
        target.AppendClicks(RandomQuery(rng), rng.Uniform(12),
                            rng.Uniform(4));
      }
      break;
    }
    default: {  // tweet (the realistic majority of traffic)
      microblog::UserId author = rng.Uniform(*num_users);
      std::vector<microblog::UserId> mentions;
      if (rng.Bernoulli(0.3)) mentions.push_back(rng.Uniform(*num_users));
      target.AppendTweet(author, RandomTweetText(rng), mentions,
                         rng.Uniform(5));
      break;
    }
  }
}

std::vector<std::string> ProbeQueries() {
  std::vector<std::string> probes;
  for (size_t i = 0; i < kNumTopics; ++i) probes.push_back(kTopics[i]);
  probes.push_back("solar panels");
  probes.push_back("never seen query");
  return probes;
}

// ------------------------------------------------- randomized fuzz gate ----

// Arbitrary interleavings of appends and publishes must converge to a
// world bit-identical to a from-scratch offline build. This is the PR's
// core claim, checked surface by surface (corpus, graph, store, evidence,
// ranked answers) by VerifyAgainstRebuild.
void FuzzOnce(uint64_t seed, core::ClusteringBackend backend) {
  Rng rng(seed);
  serving::SnapshotManager manager;
  IngestPipeline pipeline(&manager, TestOptions(backend));
  microblog::UserId num_users = 0;
  pipeline.AppendUser(MakeUser(num_users++));

  size_t ops = 200 + rng.Uniform(200);
  for (size_t i = 0; i < ops; ++i) {
    RandomAppend(rng, pipeline, &num_users);
    if (rng.Bernoulli(0.03)) {
      ASSERT_TRUE(pipeline.Publish().ok());
    }
  }
  ASSERT_TRUE(pipeline.Publish().ok());
  Status gate = ingest::VerifyAgainstRebuild(pipeline, ProbeQueries());
  EXPECT_TRUE(gate.ok()) << "seed " << seed << ": " << gate.message();
}

TEST(IngestFuzz, ParallelBackendConvergesToRebuild) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FuzzOnce(seed, core::ClusteringBackend::kParallelNative);
  }
}

TEST(IngestFuzz, SqlBackendConvergesToRebuild) {
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    FuzzOnce(seed, core::ClusteringBackend::kSqlEngine);
  }
}

TEST(IngestFuzz, VerifyRequiresDrainedPipeline) {
  serving::SnapshotManager manager;
  IngestPipeline pipeline(&manager, TestOptions());
  pipeline.AppendUser(MakeUser(0));
  ASSERT_TRUE(pipeline.Publish().ok());
  pipeline.AppendTweet(0, "solar panels", {}, 0);
  Status gate = ingest::VerifyAgainstRebuild(pipeline, {});
  EXPECT_EQ(gate.code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- structural sharing ----

TEST(IngestDelta, TweetOnlyBatchReusesStoreAndSharesCleanPools) {
  Rng rng(21);
  serving::SnapshotManager manager;
  IngestPipeline pipeline(&manager, TestOptions());
  microblog::UserId num_users = 0;
  pipeline.AppendUser(MakeUser(num_users++));
  // Seed a world with enough log structure for a non-empty vocabulary.
  for (size_t i = 0; i < 300; ++i) RandomAppend(rng, pipeline, &num_users);
  ASSERT_TRUE(pipeline.Publish().ok());
  ASSERT_GT(pipeline.published_vocabulary().size(), 0u);

  auto prev_store = pipeline.published_store();
  auto prev_graph = pipeline.published_graph();
  auto prev_evidence = pipeline.published_evidence();
  auto prev_corpus = pipeline.published_corpus();

  // A batch of one tweet matching exactly one topic token.
  std::string dirty_term;
  for (const std::string& term : pipeline.published_vocabulary()) {
    if (term.find(' ') == std::string::npos) {
      dirty_term = term;
      break;
    }
  }
  ASSERT_FALSE(dirty_term.empty());
  pipeline.AppendTweet(0, "about " + dirty_term, {}, 1);
  Result<PublishStats> stats = pipeline.Publish();
  ASSERT_TRUE(stats.ok());

  // No query-log change: graph, store, clustering reused wholesale — the
  // very same objects, not equal copies.
  EXPECT_FALSE(stats->graph_changed);
  EXPECT_EQ(pipeline.published_store().get(), prev_store.get());
  EXPECT_EQ(pipeline.published_graph().get(), prev_graph.get());

  // Evidence: the dirty term re-collected, every other pool shared.
  auto next_evidence = pipeline.published_evidence();
  size_t shared = 0, rebuilt = 0;
  for (const std::string& term : pipeline.published_vocabulary()) {
    auto prev_pool = prev_evidence->FindShared(term);
    auto next_pool = next_evidence->FindShared(term);
    ASSERT_TRUE(prev_pool != nullptr && next_pool != nullptr) << term;
    bool contains_dirty = term == dirty_term;
    if (prev_pool.get() == next_pool.get()) {
      ++shared;
      EXPECT_FALSE(contains_dirty) << term;
    } else {
      ++rebuilt;
    }
  }
  EXPECT_GE(rebuilt, 1u);
  EXPECT_EQ(stats->evidence_reused, shared);

  // Corpus generations COW-share postings of tokens the batch never
  // touched: same vector object across generations.
  auto next_corpus = pipeline.published_corpus();
  std::vector<std::string> tokens = prev_corpus->TokenStrings();
  bool found_shared_postings = false;
  for (microblog::TokenId t = 0; t < tokens.size(); ++t) {
    if (tokens[t] == "about" || tokens[t] == dirty_term) continue;
    microblog::TokenId nt = next_corpus->FindToken(tokens[t]);
    ASSERT_NE(nt, microblog::kNoToken);
    if (&prev_corpus->Postings(t) == &next_corpus->Postings(nt)) {
      found_shared_postings = true;
      break;
    }
  }
  EXPECT_TRUE(found_shared_postings);
}

// --------------------------------------- component CD == monolithic CD ----

TEST(ComponentCd, MatchesMonolithicOnRandomGraphs) {
  for (uint64_t seed = 31; seed <= 35; ++seed) {
    Rng rng(seed);
    graph::Graph g;
    size_t n = 20 + rng.Uniform(40);
    for (size_t v = 0; v < n; ++v) g.AddVertex("q" + std::to_string(v));
    // Several dense pockets + sprinkled cross edges inside pockets only,
    // so multiple connected components actually form.
    size_t pockets = 3 + rng.Uniform(3);
    for (size_t v = 0; v < n; ++v) {
      size_t pocket = v % pockets;
      for (size_t u = pocket; u < v; u += pockets) {
        if (rng.Bernoulli(0.4)) {
          ASSERT_TRUE(g.AddEdge(u, v, 0.1 + rng.NextDouble()).ok());
        }
      }
    }
    g.Finalize();

    community::ParallelCdOptions mono;
    Result<community::DetectionResult> want =
        DetectCommunitiesParallel(g, mono);
    ASSERT_TRUE(want.ok());
    community::ComponentCdOptions by_component;
    Result<community::DetectionResult> got =
        DetectCommunitiesByComponent(g, by_component);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->assignment, want->assignment) << "seed " << seed;

    community::SqlCdOptions sql_mono;
    Result<community::DetectionResult> sql_want =
        DetectCommunitiesSql(g, sql_mono);
    ASSERT_TRUE(sql_want.ok());
    community::ComponentCdOptions sql_by_component;
    sql_by_component.use_sql = true;
    Result<community::DetectionResult> sql_got =
        DetectCommunitiesByComponent(g, sql_by_component);
    ASSERT_TRUE(sql_got.ok());
    EXPECT_EQ(sql_got->assignment, sql_want->assignment) << "seed " << seed;
  }
}

// ------------------------------------------------------- sharded tier ----

void ShardedFuzzOnce(uint64_t seed, uint32_t num_shards) {
  Rng rng(seed);
  ShardedIngest sharded(num_shards, TestOptions());
  microblog::UserId num_users = 0;
  sharded.AppendUser(MakeUser(num_users++));
  size_t ops = 200 + rng.Uniform(100);
  for (size_t i = 0; i < ops; ++i) {
    RandomAppend(rng, sharded, &num_users);
    if (rng.Bernoulli(0.03)) {
      ASSERT_TRUE(sharded.Publish().ok());
    }
  }
  ASSERT_TRUE(sharded.Publish().ok());
  Status gate = ingest::VerifySharded(sharded, ProbeQueries());
  EXPECT_TRUE(gate.ok()) << "seed " << seed << " shards " << num_shards
                         << ": " << gate.message();
}

TEST(ShardedIngestFuzz, RouterStaysBitIdenticalAcrossShardCounts) {
  ShardedFuzzOnce(41, 1);
  ShardedFuzzOnce(42, 2);
  ShardedFuzzOnce(43, 4);
}

// ------------------------------------------------------- observability ----

TEST(IngestObs, GaugesAndObjectivesTrackBacklogAndLag) {
  obs::MetricsRegistry metrics;
  serving::SnapshotManager manager;
  IngestOptions options = TestOptions();
  options.metrics = &metrics;
  IngestPipeline pipeline(&manager, options);

  std::vector<obs::SloObjective> objectives =
      ingest::DefaultIngestObjectives(&pipeline);
  ASSERT_EQ(objectives.size(), 2u);
  EXPECT_EQ(objectives[0].name, "ingest_lag");
  EXPECT_EQ(objectives[1].name, "ingest_backlog");
  EXPECT_EQ(objectives[1].value(), 0.0);

  pipeline.AppendUser(MakeUser(0));
  pipeline.AppendTweet(0, "solar panels", {}, 0);
  EXPECT_EQ(pipeline.backlog(), 2u);
  EXPECT_EQ(objectives[1].value(), 2.0);
  EXPECT_GE(objectives[0].value(), 0.0);
  pipeline.RefreshGauges();
  EXPECT_EQ(metrics.GetGauge("ingest.backlog")->Value(), 2.0);

  ASSERT_TRUE(pipeline.Publish().ok());
  EXPECT_EQ(pipeline.backlog(), 0u);
  EXPECT_EQ(objectives[1].value(), 0.0);
  EXPECT_EQ(objectives[0].value(), 0.0);
  EXPECT_EQ(metrics.GetGauge("ingest.backlog")->Value(), 0.0);
  EXPECT_EQ(metrics.GetGauge("ingest.lag_ms")->Value(), 0.0);
}

// ------------------------------------------- concurrency (TSan target) ----

// One writer appends and publishes at full speed while query threads
// hammer a ServingEngine over the same manager: generation hot-swap,
// COW corpus sharing and the atomic introspection counters all race
// here if they can race at all.
TEST(IngestStress, ConcurrentIngestQueriesAndHotSwap) {
  Rng rng(51);
  serving::SnapshotManager manager;
  IngestPipeline pipeline(&manager, TestOptions());
  microblog::UserId num_users = 0;
  pipeline.AppendUser(MakeUser(num_users++));
  for (size_t i = 0; i < 200; ++i) RandomAppend(rng, pipeline, &num_users);
  ASSERT_TRUE(pipeline.Publish().ok());

  serving::ServingOptions serving_options;
  serving_options.enable_cache = false;
  serving::ServingEngine engine(&manager, serving_options);

  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &stop, &answered, t] {
      Rng reader_rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        serving::QueryRequest request;
        request.query = kTopics[reader_rng.Uniform(kNumTopics)];
        Result<serving::QueryResponse> response =
            engine.Query(std::move(request));
        if (response.ok()) answered.fetch_add(1, std::memory_order_relaxed);
        // Watchdog-style sampling from a non-writer thread.
        (void)answered;
      }
    });
  }
  std::thread watchdog([&pipeline, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)pipeline.backlog();
      (void)pipeline.lag_ms();
      (void)pipeline.dirty_term_count();
      std::this_thread::yield();
    }
  });

  // Keep publishing until the readers have demonstrably raced the
  // hot-swap (publishes are fast enough to finish before a single query
  // lands otherwise), bounded so a wedged engine cannot hang the suite.
  size_t batch = 0;
  while (batch < 15 || (answered.load() < 50 && batch < 5000)) {
    size_t appends = 5 + rng.Uniform(20);
    for (size_t i = 0; i < appends; ++i) {
      RandomAppend(rng, pipeline, &num_users);
    }
    ASSERT_TRUE(pipeline.Publish().ok());
    ++batch;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  watchdog.join();
  EXPECT_GT(answered.load(), 0u);

  Status gate = ingest::VerifyAgainstRebuild(pipeline, ProbeQueries());
  EXPECT_TRUE(gate.ok()) << gate.message();
}

}  // namespace
}  // namespace esharp
