// The sharded-serving suite (ctest -L cluster): the router's scatter-
// gather + evidence merge + single rank step must be *bit-identical* to an
// unsharded engine over the union corpus, across partition counts — the
// PR's acceptance criterion — and the failure modes must degrade instead
// of failing: a dead shard yields annotated partial results, a slow shard
// triggers a hedge, lost quorum flips /readyz, unrankable evidence fails
// its attempt. The HTTP wire frame must survive mutation fuzzing, and a
// pooled shard connection must never carry one attempt's reply to
// another. The stress test at the bottom joins the serving label's TSan
// runs.

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/health.h"
#include "cluster/introspect.h"
#include "cluster/merge.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "cluster/transport_http.h"
#include "common/simd.h"
#include "community/store.h"
#include "esharp/pipeline.h"
#include "expert/detector.h"
#include "microblog/corpus.h"
#include "microblog/generator.h"
#include "obs/debugz.h"
#include "querylog/generator.h"
#include "serving/engine.h"

namespace esharp {
namespace {

using expert::CandidateEvidence;
using expert::RankedExpert;

// ------------------------------------------------------------- helpers ----

void ExpectSameExperts(const std::vector<RankedExpert>& a,
                       const std::vector<RankedExpert>& b,
                       const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(context + " expert #" + std::to_string(i));
    EXPECT_EQ(a[i].user, b[i].user);
    // Exact equality on purpose: sharding must not perturb a single bit
    // of the ranking arithmetic.
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].z_topical_signal, b[i].z_topical_signal);
    EXPECT_EQ(a[i].z_mention_impact, b[i].z_mention_impact);
    EXPECT_EQ(a[i].z_retweet_impact, b[i].z_retweet_impact);
    EXPECT_EQ(a[i].z_conversation, b[i].z_conversation);
    EXPECT_EQ(a[i].z_hashtag, b[i].z_hashtag);
    EXPECT_EQ(a[i].z_followers, b[i].z_followers);
  }
}

/// One randomized world: universe -> query log -> offline pipeline ->
/// corpus, small enough that a test builds several.
struct World {
  querylog::TopicUniverse universe;
  core::OfflineArtifacts artifacts;
  microblog::TweetCorpus corpus;
};

World MakeWorld(uint64_t seed) {
  querylog::UniverseOptions uo;
  uo.num_categories = 2;
  uo.domains_per_category = 6;
  uo.seed = seed;
  querylog::TopicUniverse universe = *querylog::TopicUniverse::Generate(uo);

  querylog::GeneratorOptions go;
  go.seed = seed + 1;
  go.head_impressions = 12000;
  querylog::GeneratedLog generated = *GenerateQueryLog(universe, go);

  microblog::CorpusOptions co;
  co.seed = seed + 2;
  co.casual_users = 180;
  co.spam_users = 15;
  microblog::TweetCorpus corpus = *GenerateCorpus(universe, co);

  core::OfflineOptions offline;
  offline.extraction.min_similarity = 0.15;
  offline.corpus = &corpus;
  core::OfflineArtifacts artifacts =
      *RunOfflinePipeline(generated.log, offline);

  return World{std::move(universe), std::move(artifacts), std::move(corpus)};
}

std::vector<std::string> QueryMix(const World& world) {
  std::vector<std::string> queries;
  for (const querylog::TopicDomain& dom : world.universe.domains()) {
    if (!dom.terms.empty()) queries.push_back(dom.terms[0]);
    if (dom.terms.size() > 2) queries.push_back(dom.terms[2]);
  }
  queries.push_back("no such topic anywhere");
  if (!queries.empty() && !queries[0].empty()) {
    std::string upper = queries[0];
    for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
    queries.push_back(upper);
    queries.push_back(queries[0] + " " + queries[0]);
  }
  return queries;
}

serving::ServingOptions ShardEngineOptions() {
  serving::ServingOptions o;
  o.num_threads = 2;
  o.enable_cache = false;  // the evidence path never consults it anyway
  o.enable_single_flight = false;
  return o;
}

/// One in-process cluster: partitioned corpus, per-shard snapshot managers
/// + engines (each building its own TermEvidenceIndex over its partition),
/// and a router ranking on the union corpus. The shared store shared_ptr
/// guarantees identical expansion on every shard.
struct TestCluster {
  cluster::PartitionedCorpus partition;
  std::shared_ptr<const community::CommunityStore> store;
  std::vector<std::unique_ptr<serving::SnapshotManager>> managers;
  std::vector<std::unique_ptr<serving::ServingEngine>> engines;
  std::unique_ptr<expert::ExpertDetector> union_detector;
  std::unique_ptr<cluster::ClusterRouter> router;
};

TestCluster MakeCluster(const World& world, uint32_t num_shards,
                        cluster::RouterOptions router_options = {}) {
  TestCluster tc;
  tc.partition = cluster::PartitionCorpus(world.corpus, num_shards);
  tc.store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  std::vector<std::unique_ptr<cluster::ShardTransport>> transports;
  for (uint32_t s = 0; s < num_shards; ++s) {
    tc.managers.push_back(std::make_unique<serving::SnapshotManager>(
        tc.partition.shards[s].get()));
    tc.managers.back()->Publish(tc.store);
    tc.engines.push_back(std::make_unique<serving::ServingEngine>(
        tc.managers.back().get(), ShardEngineOptions()));
    transports.push_back(std::make_unique<cluster::InProcessShard>(
        "shard-" + std::to_string(s), tc.engines.back().get()));
  }
  tc.union_detector =
      std::make_unique<expert::ExpertDetector>(&world.corpus);
  tc.router = std::make_unique<cluster::ClusterRouter>(
      std::move(transports), tc.union_detector.get(), router_options);
  return tc;
}

/// Fault-injection transport: wraps a delegate and, per the knobs, fails,
/// sleeps, or passes through. All knobs are live (atomics) so tests flip
/// them mid-traffic.
class FaultShard final : public cluster::ShardTransport {
 public:
  FaultShard(std::string name,
             std::unique_ptr<cluster::ShardTransport> delegate)
      : name_(std::move(name)), delegate_(std::move(delegate)) {}

  const std::string& name() const override { return name_; }

  Result<cluster::ShardEvidence> Collect(
      const cluster::ShardRequest& request) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    double sleep_ms = sleep_first_ms_.exchange(0.0);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
    if (fail_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("injected fault on ", name_);
    }
    if (timeout_.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("injected timeout on ", name_);
    }
    Result<cluster::ShardEvidence> result = delegate_->Collect(request);
    if (result.ok() && mutate_) mutate_(&result->evidence);
    return result;
  }

  uint64_t VersionHint() const override { return delegate_->VersionHint(); }

  void set_fail(bool fail) { fail_.store(fail, std::memory_order_relaxed); }
  void set_timeout(bool t) { timeout_.store(t, std::memory_order_relaxed); }
  /// The *next* Collect (only) sleeps this long before proceeding.
  void set_sleep_first_ms(double ms) { sleep_first_ms_.store(ms); }
  /// Rewrites every answer's evidence before the router sees it; set
  /// before traffic starts.
  void set_mutate(std::function<void(std::vector<CandidateEvidence>*)> f) {
    mutate_ = std::move(f);
  }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::string name_;
  std::unique_ptr<cluster::ShardTransport> delegate_;
  std::function<void(std::vector<CandidateEvidence>*)> mutate_;
  std::atomic<bool> fail_{false};
  std::atomic<bool> timeout_{false};
  std::atomic<double> sleep_first_ms_{0.0};
  std::atomic<size_t> calls_{0};
};

/// MakeCluster variant whose transports are FaultShards; returns the raw
/// pointers so tests can inject faults after handing ownership over.
struct FaultyCluster {
  TestCluster base;
  std::vector<FaultShard*> faults;
};

FaultyCluster MakeFaultyCluster(const World& world, uint32_t num_shards,
                                cluster::RouterOptions router_options = {}) {
  FaultyCluster fc;
  TestCluster& tc = fc.base;
  tc.partition = cluster::PartitionCorpus(world.corpus, num_shards);
  tc.store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  std::vector<std::unique_ptr<cluster::ShardTransport>> transports;
  for (uint32_t s = 0; s < num_shards; ++s) {
    tc.managers.push_back(std::make_unique<serving::SnapshotManager>(
        tc.partition.shards[s].get()));
    tc.managers.back()->Publish(tc.store);
    tc.engines.push_back(std::make_unique<serving::ServingEngine>(
        tc.managers.back().get(), ShardEngineOptions()));
    std::string name = "shard-" + std::to_string(s);
    auto fault = std::make_unique<FaultShard>(
        name, std::make_unique<cluster::InProcessShard>(
                  name, tc.engines.back().get()));
    fc.faults.push_back(fault.get());
    transports.push_back(std::move(fault));
  }
  tc.union_detector =
      std::make_unique<expert::ExpertDetector>(&world.corpus);
  tc.router = std::make_unique<cluster::ClusterRouter>(
      std::move(transports), tc.union_detector.get(), router_options);
  return fc;
}

std::string FirstTopicQuery(const World& world) {
  for (const querylog::TopicDomain& dom : world.universe.domains()) {
    if (!dom.terms.empty()) return dom.terms[0];
  }
  return "tennis";
}

// ------------------------------------------------------ partition layer ----

TEST(PartitionTest, CoversDisjointlyAndSumsPerUserTotals) {
  World world = MakeWorld(1201);
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(n));
    cluster::PartitionedCorpus partition =
        cluster::PartitionCorpus(world.corpus, n);
    ASSERT_EQ(partition.num_shards(), n);
    size_t total_tweets = 0;
    for (const auto& shard : partition.shards) {
      ASSERT_EQ(shard->num_users(), world.corpus.num_users());
      total_tweets += shard->num_tweets();
    }
    // Tweets partition (disjoint + covering): counts sum exactly.
    EXPECT_EQ(total_tweets, world.corpus.num_tweets());
    // Per-user denominators sum exactly — the integer backbone of the
    // rank-equivalence argument.
    for (microblog::UserId u = 0; u < world.corpus.num_users(); ++u) {
      uint64_t tweets = 0, mentions = 0, retweets = 0;
      for (const auto& shard : partition.shards) {
        tweets += shard->TweetsByUser(u);
        mentions += shard->MentionsOfUser(u);
        retweets += shard->RetweetsOfUser(u);
      }
      ASSERT_EQ(tweets, world.corpus.TweetsByUser(u)) << "user " << u;
      ASSERT_EQ(mentions, world.corpus.MentionsOfUser(u)) << "user " << u;
      ASSERT_EQ(retweets, world.corpus.RetweetsOfUser(u)) << "user " << u;
    }
  }
}

TEST(PartitionTest, IsDeterministic) {
  World world = MakeWorld(1301);
  cluster::PartitionedCorpus a = cluster::PartitionCorpus(world.corpus, 4);
  cluster::PartitionedCorpus b = cluster::PartitionCorpus(world.corpus, 4);
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_EQ(a.shards[s]->num_tweets(), b.shards[s]->num_tweets());
    for (uint32_t t = 0; t < a.shards[s]->num_tweets(); ++t) {
      ASSERT_EQ(a.shards[s]->tweet(t).text, b.shards[s]->tweet(t).text);
    }
  }
}

// ------------------------------------------- randomized rank equivalence --

TEST(ClusterTest, ShardedRankingBitIdenticalToUnshardedReference) {
  const uint64_t seeds[] = {1401, 1507};
  for (uint64_t seed : seeds) {
    World world = MakeWorld(seed);
    // Unsharded reference: one engine over the union corpus.
    auto store = std::make_shared<const community::CommunityStore>(
        world.artifacts.store);
    serving::SnapshotManager ref_manager(&world.corpus);
    ref_manager.Publish(store);
    serving::ServingEngine ref_engine(&ref_manager, ShardEngineOptions());

    std::vector<std::string> queries = QueryMix(world);
    for (uint32_t n : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " shards " +
                   std::to_string(n));
      cluster::RouterOptions ro;
      ro.enable_cache = false;
      ro.enable_hedging = false;
      TestCluster tc = MakeCluster(world, n, ro);
      for (const std::string& q : queries) {
        auto ref = ref_engine.Query({q});
        auto routed = tc.router->Query({q});
        ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
        ASSERT_TRUE(routed.ok()) << q << ": " << routed.status().ToString();
        EXPECT_EQ(routed->shards_answered, n);
        EXPECT_FALSE(routed->degraded);
        ExpectSameExperts(routed->experts, ref->experts,
                          "query '" + q + "'");
      }
    }
  }
}

// ------------------------------------------------------- fault injection --

TEST(ClusterTest, DeadShardDegradesToAnnotatedPartialResults) {
  World world = MakeWorld(1601);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  const std::string query = FirstTopicQuery(world);

  fc.faults[2]->set_fail(true);
  for (int i = 0; i < 3; ++i) {
    auto routed = fc.base.router->Query({query});
    // The acceptance criterion: partial results, annotated, no failure.
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_TRUE(routed->degraded);
    EXPECT_EQ(routed->shards_answered, 3u);
    EXPECT_EQ(routed->shards_total, 4u);
  }
  // Three consecutive failures (the default threshold) = kDown.
  EXPECT_EQ(fc.base.router->health().StateOf(2), cluster::ShardState::kDown);
  EXPECT_EQ(fc.base.router->health().healthy_shards(), 3u);

  // Recovery: the next success flips the shard straight back to healthy
  // and answers become complete again.
  fc.faults[2]->set_fail(false);
  auto routed = fc.base.router->Query({query});
  ASSERT_TRUE(routed.ok());
  EXPECT_FALSE(routed->degraded);
  EXPECT_EQ(routed->shards_answered, 4u);
  EXPECT_EQ(fc.base.router->health().StateOf(2),
            cluster::ShardState::kHealthy);
}

TEST(ClusterTest, ShardTimeoutAlsoDegrades) {
  World world = MakeWorld(1701);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  fc.faults[1]->set_timeout(true);
  auto routed = fc.base.router->Query({FirstTopicQuery(world)});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(routed->degraded);
  EXPECT_EQ(routed->shards_answered, 1u);
}

TEST(ClusterTest, AllShardsDownFailsTheQuery) {
  World world = MakeWorld(1801);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  fc.faults[0]->set_fail(true);
  fc.faults[1]->set_fail(true);
  auto routed = fc.base.router->Query({FirstTopicQuery(world)});
  EXPECT_FALSE(routed.ok());
  EXPECT_TRUE(routed.status().IsUnavailable())
      << routed.status().ToString();
  EXPECT_GE(fc.base.router->metrics().Report().errors, 1u);
}

TEST(ClusterTest, MinShardsAnsweredEnforcesQuorumPerQuery) {
  World world = MakeWorld(1802);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  ro.min_shards_answered = 4;  // all-or-nothing
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  fc.faults[1]->set_fail(true);
  auto routed = fc.base.router->Query({FirstTopicQuery(world)});
  EXPECT_FALSE(routed.ok());
}

TEST(ClusterTest, SlowShardWithDeadlineYieldsPartialAnswer) {
  World world = MakeWorld(1901);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  // Warm the engines once so the slow path below is the injected sleep,
  // not first-touch costs.
  ASSERT_TRUE(fc.base.router->Query({FirstTopicQuery(world)}).ok());

  fc.faults[0]->set_sleep_first_ms(400);
  serving::QueryRequest request;
  request.query = FirstTopicQuery(world);
  request.deadline_ms = 120;
  auto routed = fc.base.router->Query(request);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(routed->degraded);
  EXPECT_EQ(routed->shards_answered, 1u);
  EXPECT_LT(routed->total_ms, 390.0);  // did not wait out the sleeper
}

TEST(ClusterTest, HedgeFiresForSlowShardAndFirstFinisherWins) {
  World world = MakeWorld(2001);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = true;
  ro.hedge_warmup = 8;
  ro.hedge_min_ms = 5.0;
  ro.hedge_percentile = 95;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  const std::string query = FirstTopicQuery(world);

  // Warm the latency tracker past the hedge_warmup gate with fast
  // requests; the trigger then sits near their p95 (clamped to 5 ms).
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fc.base.router->Query({query}).ok());
  }
  ASSERT_GE(fc.base.router->health().total_samples(), 8u);

  // One slow primary: the sleep flag clears after the first Collect, so
  // the hedge (second attempt on the same transport) runs full speed.
  size_t calls_before = fc.faults[0]->calls();
  fc.faults[0]->set_sleep_first_ms(500);
  auto routed = fc.base.router->Query({query});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_GE(routed->hedges_fired, 1u);
  EXPECT_EQ(routed->shards_answered, 2u);
  EXPECT_FALSE(routed->degraded);
  EXPECT_LT(routed->total_ms, 450.0);  // the hedge answered, not the sleeper
  EXPECT_GE(fc.faults[0]->calls(), calls_before + 2);  // primary + hedge
  EXPECT_GE(fc.base.router->health().StatusOf(0).hedges, 1u);
}

// ------------------------------------------------------- caching + swaps --

TEST(ClusterTest, CacheHitsAndInvalidatesWhenAnyShardPublishes) {
  World world = MakeWorld(2101);
  cluster::RouterOptions ro;
  ro.enable_hedging = false;
  TestCluster tc = MakeCluster(world, 2, ro);
  const std::string query = FirstTopicQuery(world);

  auto first = tc.router->Query({query});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  auto second = tc.router->Query({query});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  ExpectSameExperts(second->experts, first->experts, "cached");

  // A publish on one shard changes its version hint, hence the combined
  // cluster version, hence the cached entry fails validation.
  uint64_t before = tc.router->ClusterVersion();
  tc.managers[1]->Publish(tc.store);
  EXPECT_NE(tc.router->ClusterVersion(), before);
  auto third = tc.router->Query({query});
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->from_cache);
}

TEST(ClusterTest, DegradedAnswersAreNeverCached) {
  World world = MakeWorld(2201);
  cluster::RouterOptions ro;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  const std::string query = FirstTopicQuery(world);

  fc.faults[0]->set_fail(true);
  auto degraded = fc.base.router->Query({query});
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);

  // Once the shard recovers, the next answer must be computed fresh (and
  // complete), not replayed from a partial cache entry.
  fc.faults[0]->set_fail(false);
  auto recovered = fc.base.router->Query({query});
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->from_cache);
  EXPECT_FALSE(recovered->degraded);
  auto cached = fc.base.router->Query({query});
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);
}

// --------------------------------------------------------- introspection --

TEST(ClusterTest, QuorumReadinessTracksShardHealth) {
  World world = MakeWorld(2301);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  obs::Probe probe = cluster::ClusterQuorumReadiness(fc.base.router.get());
  EXPECT_TRUE(probe().ok);

  const std::string query = FirstTopicQuery(world);
  // One shard down (3 failures): majority quorum (3 of 4) still holds,
  // /readyz stays green while answers are degraded.
  fc.faults[0]->set_fail(true);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fc.base.router->Query({query}).ok());
  obs::ProbeResult one_down = probe();
  EXPECT_TRUE(one_down.ok);
  EXPECT_NE(one_down.detail.find("degraded"), std::string::npos);

  // Second shard down: quorum lost, /readyz flips.
  fc.faults[1]->set_fail(true);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fc.base.router->Query({query}).ok());
  obs::ProbeResult two_down = probe();
  EXPECT_FALSE(two_down.ok);
  EXPECT_NE(two_down.detail.find("quorum lost"), std::string::npos);
}

TEST(ClusterTest, StatuszShardTableAndReadyzOverHttp) {
  World world = MakeWorld(2401);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  ASSERT_TRUE(fc.base.router->Query({FirstTopicQuery(world)}).ok());

  obs::DebugServer server;
  cluster::ClusterIntrospectionOptions io;
  io.build_info = "cluster_test";
  cluster::MountClusterEndpoints(&server, fc.base.router.get(), io);
  ASSERT_TRUE(server.Start().ok());

  auto statusz = obs::HttpGet("127.0.0.1", server.port(), "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status, 200);
  EXPECT_NE(statusz->body.find("shard-0"), std::string::npos);
  EXPECT_NE(statusz->body.find("shard-1"), std::string::npos);
  EXPECT_NE(statusz->body.find("healthy"), std::string::npos);

  auto ready = obs::HttpGet("127.0.0.1", server.port(), "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status, 200);

  // Lose quorum (1 of 2 < majority 2): /readyz must flip to 503.
  fc.faults[1]->set_fail(true);
  const std::string query = FirstTopicQuery(world);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fc.base.router->Query({query}).ok());
  auto not_ready = obs::HttpGet("127.0.0.1", server.port(), "/readyz");
  ASSERT_TRUE(not_ready.ok());
  EXPECT_EQ(not_ready->status, 503);
  server.Stop();
}

// ---------------------------------------------------------- HTTP transport --

TEST(ClusterTest, HttpTransportMatchesInProcessBitForBit) {
  World world = MakeWorld(2501);
  auto store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  serving::SnapshotManager manager(&world.corpus);
  manager.Publish(store);
  serving::ServingEngine engine(&manager, ShardEngineOptions());

  obs::DebugServer server;
  cluster::MountShardEndpoint(&server, &engine);
  ASSERT_TRUE(server.Start().ok());

  cluster::InProcessShard local("local", &engine);
  cluster::HttpShardTransport remote("remote", "127.0.0.1", server.port());
  EXPECT_EQ(remote.VersionHint(), 0u);  // no contact yet

  std::vector<std::string> queries = QueryMix(world);
  queries.push_back(FirstTopicQuery(world) + " extra words");
  for (const std::string& q : queries) {
    SCOPED_TRACE("query '" + q + "'");
    cluster::ShardRequest request;
    request.query = q;
    auto a = local.Collect(request);
    auto b = remote.Collect(request);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a->evidence.size(), b->evidence.size());
    EXPECT_EQ(a->snapshot_version, b->snapshot_version);
    EXPECT_EQ(a->terms, b->terms);
    for (size_t i = 0; i < a->evidence.size(); ++i) {
      EXPECT_EQ(a->evidence[i].user, b->evidence[i].user);
      EXPECT_EQ(a->evidence[i].is_author, b->evidence[i].is_author);
      EXPECT_EQ(a->evidence[i].is_mentioned, b->evidence[i].is_mentioned);
      EXPECT_EQ(a->evidence[i].tweets_on_topic,
                b->evidence[i].tweets_on_topic);
      EXPECT_EQ(a->evidence[i].mentions_on_topic,
                b->evidence[i].mentions_on_topic);
      EXPECT_EQ(a->evidence[i].retweets_on_topic,
                b->evidence[i].retweets_on_topic);
      EXPECT_EQ(a->evidence[i].conversational_on_topic,
                b->evidence[i].conversational_on_topic);
      EXPECT_EQ(a->evidence[i].hashtag_on_topic,
                b->evidence[i].hashtag_on_topic);
    }
  }
  EXPECT_EQ(remote.VersionHint(), engine.snapshot_version());

  // Error mapping: empty query -> 400 -> InvalidArgument.
  cluster::ShardRequest empty;
  auto rejected = remote.Collect(empty);
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  server.Stop();

  // Dead endpoint: connection refused resolves as Unavailable, not a hang.
  auto dead = remote.Collect({FirstTopicQuery(world), 0});
  EXPECT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsUnavailable()) << dead.status().ToString();
}

/// An HTTP shard whose /shard/evidence handler the test writes: answers a
/// frame with `terms` = the call's index, echoing the request's trace
/// unless `echo` is off; the call with index `sleep_call` first sleeps.
struct ScriptedShard {
  explicit ScriptedShard(obs::DebugServerOptions options = {})
      : server(options) {
    server.Handle("/shard/evidence", [this](const obs::HttpRequest& request) {
      const int call = calls.fetch_add(1);
      if (call == sleep_call.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1000));
      }
      cluster::ShardEvidence evidence;
      evidence.terms = static_cast<size_t>(call);
      evidence.trace = echo.load()
                           ? obs::TraceContext::FromHeaderOrRoot(
                                 request.Param("trace"))
                           : obs::TraceContext::NewRoot();
      obs::HttpResponse response;
      response.body = cluster::EncodeShardEvidence(evidence);
      return response;
    });
  }

  std::atomic<int> calls{0};
  std::atomic<int> sleep_call{-1};
  std::atomic<bool> echo{true};
  obs::DebugServer server;  // last: stopped before the knobs go away
};

cluster::ShardRequest TracedRequest(const std::string& query) {
  cluster::ShardRequest request;
  request.query = query;
  request.trace = obs::TraceContext::NewRoot();
  return request;
}

TEST(ClusterTest, PooledConnectionClosedByTheShardIsReplaced) {
  obs::DebugServerOptions options;
  options.io_timeout_seconds = 0.3;
  auto shard = std::make_unique<ScriptedShard>(options);
  ASSERT_TRUE(shard->server.Start().ok());
  const int port = shard->server.port();
  cluster::HttpShardTransport remote("remote", "127.0.0.1", port);
  ASSERT_TRUE(remote.Collect(TracedRequest("q")).ok());  // pools a connection

  // The shard closes the pooled connection after its idle timeout...
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  auto after_idle = remote.Collect(TracedRequest("q"));
  EXPECT_TRUE(after_idle.ok()) << after_idle.status().ToString();

  // ...or because it restarted on the same port.
  shard.reset();
  options.port = port;
  shard = std::make_unique<ScriptedShard>(options);
  ASSERT_TRUE(shard->server.Start().ok());
  auto after_restart = remote.Collect(TracedRequest("q"));
  EXPECT_TRUE(after_restart.ok()) << after_restart.status().ToString();
}

TEST(ClusterTest, TimedOutAttemptNeverHandsItsLateReplyToTheNext) {
  ScriptedShard shard;
  ASSERT_TRUE(shard.server.Start().ok());
  cluster::HttpShardTransport::Options options;
  options.default_timeout_seconds = 0.3;
  cluster::HttpShardTransport remote("remote", "127.0.0.1",
                                     shard.server.port(), options);
  ASSERT_TRUE(remote.Collect(TracedRequest("q")).ok());  // pools a connection

  shard.sleep_call = 1;
  auto late = remote.Collect(TracedRequest("q"));
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(shard.calls.load(), 2);  // a timeout is not retried

  // The next attempt reads its own answer (call 2), never call 1's reply
  // still on its way back over the timed-out connection.
  cluster::ShardRequest request = TracedRequest("q");
  auto next = remote.Collect(request);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->terms, 2u);
  EXPECT_EQ(next->trace, request.trace);
  shard.server.Stop();  // waits out the sleeping handler
}

TEST(ClusterTest, FrameEchoingAnotherTraceFailsTheAttempt) {
  ScriptedShard shard;
  shard.echo = false;
  ASSERT_TRUE(shard.server.Start().ok());
  cluster::HttpShardTransport remote("remote", "127.0.0.1",
                                     shard.server.port());
  auto stray = remote.Collect(TracedRequest("q"));
  ASSERT_FALSE(stray.ok());
  EXPECT_NE(stray.status().message().find("not this attempt's"),
            std::string::npos)
      << stray.status().ToString();
  EXPECT_EQ(remote.VersionHint(), 0u);  // a refused frame is no contact

  // Without a trace there is nothing to compare.
  cluster::ShardRequest untraced;
  untraced.query = "q";
  EXPECT_TRUE(remote.Collect(untraced).ok());
}

TEST(ClusterTest, RouterRejectsShardEvidenceItCannotRank) {
  World world = MakeWorld(2801);
  const std::string query = FirstTopicQuery(world);
  const size_t num_users = world.corpus.num_users();
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  const std::vector<std::pair<
      std::string, std::function<void(std::vector<CandidateEvidence>*)>>>
      cases = {
          {"union corpus",
           [num_users](std::vector<CandidateEvidence>* pool) {
             CandidateEvidence bad;
             bad.user = static_cast<microblog::UserId>(num_users);
             bad.is_author = true;
             pool->push_back(bad);
           }},
          {"sorted-unique",
           [](std::vector<CandidateEvidence>* pool) {
             ASSERT_FALSE(pool->empty());
             pool->push_back(pool->front());
           }},
      };
  for (const auto& [detail, mutate] : cases) {
    SCOPED_TRACE(detail);
    FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
    fc.faults[1]->set_mutate(mutate);
    auto routed = fc.base.router->Query({query});
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_TRUE(routed->degraded);
    EXPECT_EQ(routed->shards_answered, 1u);
    cluster::ShardStatus status = fc.base.router->health().StatusOf(1);
    EXPECT_EQ(status.failures, 1u);
    EXPECT_NE(status.last_error.find(detail), std::string::npos)
        << status.last_error;
  }
}

TEST(ClusterTest, WireFormatRoundTripsExactly) {
  cluster::ShardEvidence evidence;
  evidence.snapshot_version = 0xFFFFFFFFFFFFFFFFULL;
  evidence.terms = 17;
  evidence.shard_ms = 12.345678;
  CandidateEvidence a;
  a.user = 0;
  a.is_author = true;
  a.tweets_on_topic = 0xFFFFFFFFFFFFFFFFULL;  // extreme counts survive
  CandidateEvidence b;
  b.user = 4294967295u;
  b.is_mentioned = true;
  b.mentions_on_topic = 1;
  b.retweets_on_topic = 2;
  b.conversational_on_topic = 3;
  b.hashtag_on_topic = 4;
  evidence.evidence = {a, b};

  auto decoded =
      cluster::DecodeShardEvidence(cluster::EncodeShardEvidence(evidence));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->snapshot_version, evidence.snapshot_version);
  EXPECT_EQ(decoded->terms, evidence.terms);
  ASSERT_EQ(decoded->evidence.size(), 2u);
  EXPECT_EQ(decoded->evidence[0].user, a.user);
  EXPECT_EQ(decoded->evidence[0].is_author, a.is_author);
  EXPECT_EQ(decoded->evidence[0].tweets_on_topic, a.tweets_on_topic);
  EXPECT_EQ(decoded->evidence[1].user, b.user);
  EXPECT_EQ(decoded->evidence[1].is_mentioned, b.is_mentioned);
  EXPECT_EQ(decoded->evidence[1].hashtag_on_topic, b.hashtag_on_topic);

  EXPECT_EQ(decoded->evidence[1].mentions_on_topic, b.mentions_on_topic);
  EXPECT_EQ(decoded->evidence[1].retweets_on_topic, b.retweets_on_topic);
  EXPECT_EQ(decoded->evidence[1].conversational_on_topic,
            b.conversational_on_topic);

  // No candidates at all is a valid (and common) answer.
  auto empty = cluster::DecodeShardEvidence(
      cluster::EncodeShardEvidence(cluster::ShardEvidence{}));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->evidence.empty());

  EXPECT_FALSE(cluster::DecodeShardEvidence("garbage").ok());
  std::string frame = cluster::EncodeShardEvidence(evidence);
  EXPECT_FALSE(
      cluster::DecodeShardEvidence(frame.substr(0, frame.size() - 1)).ok());
}

/// Rewrites a mutated frame's payload length and checksum (header bytes
/// 8..24, see cluster/transport_http.h), so the decoder's parser behind
/// the checksum sees the mutation.
std::string Reseal(std::string frame) {
  const uint64_t payload = frame.size() - 24;
  std::memcpy(&frame[8], &payload, 8);
  const uint64_t checksum = simd::Checksum64(frame.data() + 24, payload);
  std::memcpy(&frame[16], &checksum, 8);
  return frame;
}

/// The decoder's contract on arbitrary bytes: a clean Status, or an
/// evidence this encoder writes back byte for byte (and that decodes
/// again). Returns a description of the first violation, empty if none.
std::string CheckDecodeContract(const std::string& bytes) {
  Result<cluster::ShardEvidence> decoded = cluster::DecodeShardEvidence(bytes);
  if (!decoded.ok()) return "";
  std::string again = cluster::EncodeShardEvidence(*decoded);
  if (again != bytes) return "accepted frame does not re-encode to itself";
  Result<cluster::ShardEvidence> twice = cluster::DecodeShardEvidence(again);
  if (!twice.ok() || cluster::EncodeShardEvidence(*twice) != again) {
    return "second encode/decode changed the evidence";
  }
  return "";
}

TEST(ClusterTest, WireFrameDecoderSurvivesMutationFuzz) {
  cluster::ShardEvidence evidence;
  evidence.snapshot_version = 9;
  evidence.terms = 4;
  evidence.shard_ms = 0.75;
  evidence.trace = obs::TraceContext::NewRoot();
  evidence.queue_ms = 0.01;
  evidence.expand_ms = 0.2;
  evidence.detect_ms = 0.5;
  for (uint32_t i = 0; i < 12; ++i) {
    CandidateEvidence c;
    c.user = 3 * i + 1;
    c.is_author = i % 2 == 0;
    c.is_mentioned = i % 3 == 0;
    c.tweets_on_topic = i;
    c.mentions_on_topic = 100 + i;
    c.retweets_on_topic = uint64_t{1} << i;
    c.conversational_on_topic = i * i;
    c.hashtag_on_topic = 7;
    evidence.evidence.push_back(c);
  }
  const std::string frame = cluster::EncodeShardEvidence(evidence);
  ASSERT_TRUE(cluster::DecodeShardEvidence(frame).ok());
  ASSERT_EQ(CheckDecodeContract(frame), "");
  constexpr size_t kCountAt = 24 + 10 * 8;  // the candidates field

  // Every truncation and every single-byte flip fails outright.
  for (size_t n = 0; n < frame.size(); ++n) {
    ASSERT_FALSE(cluster::DecodeShardEvidence(frame.substr(0, n)).ok())
        << "truncated to " << n;
  }
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    std::string flipped = frame;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xFF);
    ASSERT_FALSE(cluster::DecodeShardEvidence(flipped).ok())
        << "flip at " << pos;
    // Resealed, the flip reaches the parser: a Status or a canonical frame.
    if (pos >= 24) {
      ASSERT_EQ(CheckDecodeContract(Reseal(flipped)), "") << "flip at " << pos;
    }
  }

  // Structural lies behind a valid checksum must fail too.
  auto with_count = [&](uint64_t count) {
    std::string s = frame;
    std::memcpy(&s[kCountAt], &count, 8);
    return Reseal(s);
  };
  const uint64_t n = evidence.evidence.size();
  for (uint64_t count : {n + 1, n - 1, uint64_t{1} << 40, ~uint64_t{0}}) {
    EXPECT_FALSE(cluster::DecodeShardEvidence(with_count(count)).ok())
        << "count " << count;
  }
  EXPECT_FALSE(cluster::DecodeShardEvidence(Reseal(frame + '\0')).ok())
      << "trailing byte";
  std::string wrong_magic = frame;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(cluster::DecodeShardEvidence(wrong_magic).ok());
  std::string wrong_version = frame;
  wrong_version[4] = 9;
  EXPECT_TRUE(cluster::DecodeShardEvidence(wrong_version)
                  .status()
                  .IsFailedPrecondition());

  // Seeded random mutations, resealed: overwritten bytes, boundary counts,
  // cut or grown payloads.
  uint64_t lcg = 0x2545F4914F6CDD1DULL;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 17;
  };
  size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string s = frame;
    switch (next() % 4) {
      case 0:  // a few payload bytes overwritten
        for (uint64_t k = 1 + next() % 4; k > 0; --k) {
          s[24 + next() % (s.size() - 24)] = static_cast<char>(next());
        }
        break;
      case 1: {  // a boundary value in a random aligned payload word
        const uint64_t values[] = {0, 1, n, n + 1, ~uint64_t{0},
                                   uint64_t{1} << 63, next()};
        uint64_t v = values[next() % 7];
        size_t at = 24 + 8 * (next() % 11);
        std::memcpy(&s[at], &v, 8);
        break;
      }
      case 2:  // payload cut short
        s.resize(24 + next() % (s.size() - 24));
        break;
      default:  // payload grown
        for (uint64_t k = 1 + next() % 16; k > 0; --k) {
          s.push_back(static_cast<char>(next()));
        }
    }
    s = Reseal(s);
    ASSERT_EQ(CheckDecodeContract(s), "") << "mutation " << i;
    if (cluster::DecodeShardEvidence(s).ok()) ++accepted;
  }
  // Counter and id overwrites decode fine, so the fuzz ran the parser
  // through to the end, not only its first check.
  EXPECT_GT(accepted, 100u);
}

TEST(ClusterTest, UrlEncodeEscapesReservedCharacters) {
  EXPECT_EQ(cluster::UrlEncode("tennis"), "tennis");
  EXPECT_EQ(cluster::UrlEncode("two words"), "two%20words");
  EXPECT_EQ(cluster::UrlEncode("a&b=c%"), "a%26b%3Dc%25");
}

// ------------------------------------------------------------ TSan stress --

TEST(ClusterTest, ConcurrentQueriesPublishesAndFaultsStayCoherent) {
  World world = MakeWorld(2601);
  cluster::RouterOptions ro;
  ro.enable_hedging = true;
  ro.hedge_warmup = 16;
  ro.hedge_min_ms = 0.5;
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  std::vector<std::string> queries = QueryMix(world);

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        const std::string& q = queries[(t * 13 + i) % queries.size()];
        auto result = fc.base.router->Query({q});
        if (result.ok()) served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      fc.base.managers[1]->Publish(fc.base.store);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread fault_flipper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      fc.faults[3]->set_fail(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      fc.faults[3]->set_fail(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  publisher.join();
  fault_flipper.join();
  EXPECT_GT(served.load(), 0u);
  // Health invariants survived the churn.
  EXPECT_LE(fc.base.router->health().healthy_shards(), 4u);
  EXPECT_EQ(fc.base.router->health().num_shards(), 4u);
}

}  // namespace
}  // namespace esharp
