#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "esharp/pipeline.h"
#include "microblog/generator.h"
#include "obs/event_log.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/slo.h"
#include "querylog/generator.h"
#include "serving/cache.h"
#include "serving/engine.h"
#include "serving/introspect.h"
#include "serving/metrics.h"
#include "serving/snapshot.h"
#include "span_shapes.h"

namespace esharp::serving {
namespace {

// ------------------------------------------------------- LatencyHistogram --

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
}

TEST(LatencyHistogramTest, PercentilesBracketObservations) {
  LatencyHistogram h;
  // 99 observations at 1ms, one at 1s: p50 ~ 1ms, p99+ reaches toward 1s.
  for (int i = 0; i < 99; ++i) h.Add(1e-3);
  h.Add(1.0);
  EXPECT_EQ(h.count(), 100u);
  // Geometric buckets guarantee ~16% relative error bounds.
  EXPECT_GT(h.Percentile(50), 0.5e-3);
  EXPECT_LT(h.Percentile(50), 2e-3);
  EXPECT_GT(h.Percentile(100), 0.5);
  EXPECT_NEAR(h.Max(), 1.0, 1e-12);
  EXPECT_NEAR(h.Mean(), (99 * 1e-3 + 1.0) / 100.0, 1e-9);
}

TEST(LatencyHistogramTest, PercentileIsMonotoneInP) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(1e-5 * i);
  double prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(LatencyHistogramTest, MergeMatchesCombinedStream) {
  LatencyHistogram a, b, both;
  for (int i = 0; i < 50; ++i) {
    a.Add(2e-4);
    both.Add(2e-4);
  }
  for (int i = 0; i < 50; ++i) {
    b.Add(3e-2);
    both.Add(3e-2);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.Percentile(50), both.Percentile(50));
  EXPECT_EQ(a.Percentile(95), both.Percentile(95));
  EXPECT_NEAR(a.Mean(), both.Mean(), 1e-12);
}

TEST(LatencyHistogramTest, OutOfRangeValuesClampIntoEndBuckets) {
  LatencyHistogram h;
  h.Add(1e-9);   // below the 1us floor
  h.Add(1e6);    // above the 100s ceiling
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.Percentile(100), 10.0);
}

// ----------------------------------------------------- ShardedResultCache --

CachedResult MakeResult(double score, uint64_t version) {
  CachedResult r;
  expert::RankedExpert e;
  e.user = 7;
  e.score = score;
  r.experts.push_back(e);
  r.snapshot_version = version;
  return r;
}

TEST(ShardedResultCacheTest, PutThenGetHits) {
  ShardedResultCache cache;
  cache.Put("tennis", MakeResult(1.5, 1), /*now=*/0.0);
  auto hit = cache.Get("tennis", /*now=*/1.0, /*current_version=*/1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->experts.size(), 1u);
  EXPECT_DOUBLE_EQ(hit->experts[0].score, 1.5);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.Get("golf", 1.0, 1).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ShardedResultCacheTest, TtlExpiresEntries) {
  CacheOptions options;
  options.ttl_seconds = 10.0;
  ShardedResultCache cache(options);
  cache.Put("tennis", MakeResult(1.5, 1), /*now=*/0.0);
  EXPECT_TRUE(cache.Get("tennis", /*now=*/9.9, 1).has_value());
  EXPECT_FALSE(cache.Get("tennis", /*now=*/10.1, 1).has_value());
  EXPECT_EQ(cache.stats().expirations, 1u);
  // The expired entry is gone, not just hidden.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedResultCacheTest, SnapshotVersionMismatchIsAMiss) {
  ShardedResultCache cache;
  cache.Put("tennis", MakeResult(1.5, /*version=*/1), /*now=*/0.0);
  EXPECT_TRUE(cache.Get("tennis", 0.0, /*current_version=*/1).has_value());
  // After a hot swap the stored generation no longer matches.
  EXPECT_FALSE(cache.Get("tennis", 0.0, /*current_version=*/2).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedResultCacheTest, LruEvictsOldestWithinShard) {
  CacheOptions options;
  options.shards = 1;  // single shard makes eviction order deterministic
  options.capacity_per_shard = 2;
  options.ttl_seconds = 0;  // disabled
  ShardedResultCache cache(options);
  cache.Put("a", MakeResult(1, 1), 0.0);
  cache.Put("b", MakeResult(2, 1), 0.0);
  // Touch "a" so "b" becomes the LRU tail.
  EXPECT_TRUE(cache.Get("a", 0.0, 1).has_value());
  cache.Put("c", MakeResult(3, 1), 0.0);
  EXPECT_TRUE(cache.Get("a", 0.0, 1).has_value());
  EXPECT_FALSE(cache.Get("b", 0.0, 1).has_value());
  EXPECT_TRUE(cache.Get("c", 0.0, 1).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedResultCacheTest, InvalidateAllDropsEverything) {
  ShardedResultCache cache;
  cache.Put("a", MakeResult(1, 1), 0.0);
  cache.Put("b", MakeResult(2, 1), 0.0);
  EXPECT_EQ(cache.size(), 2u);
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("a", 0.0, 1).has_value());
}

// Concurrent probes and fills across shards: each shard counts its hits
// and misses under the lock its lookups hold, and the shards' sum accounts
// for every Get exactly.
TEST(ShardedResultCacheTest, ConcurrentCountsAccountForEveryGet) {
  CacheOptions options;
  options.shards = 4;
  options.capacity_per_shard = 8;
  options.ttl_seconds = 2.0;  // expirations churn as well
  ShardedResultCache cache(options);
  constexpr size_t kThreads = 4;
  constexpr size_t kGetsPerThread = 5000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (size_t i = 0; i < kGetsPerThread; ++i) {
        // Three hot keys hit between their expiries on any schedule; 64
        // cold ones overflow the 32 entries, so evictions churn too.
        const std::string key =
            i % 4 == 0 ? "cold" + std::to_string((t * 31 + i * 7) % 64)
                       : "hot" + std::to_string(i % 3);
        const double now = static_cast<double>(i) * 0.01;
        if (!cache.Get(key, now, /*current_version=*/1).has_value()) {
          cache.Put(key, MakeResult(1.0, 1), now);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kGetsPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

// -------------------------------------------------------- Serving fixture --

// One small world shared by every engine test (the offline pipeline is the
// expensive part; build it once).
class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    querylog::UniverseOptions uo;
    uo.num_categories = 2;
    uo.domains_per_category = 8;
    uo.seed = 501;
    universe_ = new querylog::TopicUniverse(
        *querylog::TopicUniverse::Generate(uo));

    querylog::GeneratorOptions go;
    go.seed = 502;
    go.head_impressions = 20000;
    generated_ = new querylog::GeneratedLog(*GenerateQueryLog(*universe_, go));

    core::OfflineOptions offline;
    offline.extraction.min_similarity = 0.15;
    artifacts_ = new core::OfflineArtifacts(
        *RunOfflinePipeline(generated_->log, offline));

    microblog::CorpusOptions co;
    co.seed = 503;
    co.casual_users = 200;
    co.spam_users = 20;
    corpus_ = new microblog::TweetCorpus(*GenerateCorpus(*universe_, co));

    // A query the baseline detector demonstrably answers, for the
    // no-empty-result assertions below.
    core::ESharp probe(&artifacts_->store, corpus_);
    for (const querylog::TopicDomain& dom : universe_->domains()) {
      auto experts = probe.FindExperts(dom.terms[0]);
      if (experts.ok() && !experts->empty()) {
        answered_query_ = new std::string(dom.terms[0]);
        break;
      }
    }
    ASSERT_NE(answered_query_, nullptr)
        << "no domain head term with experts in the test world";
  }

  static void TearDownTestSuite() {
    delete universe_;
    delete generated_;
    delete artifacts_;
    delete corpus_;
    delete answered_query_;
    answered_query_ = nullptr;
  }

  /// Fresh manager with the world's store published as generation 1.
  std::unique_ptr<SnapshotManager> NewManager() {
    auto manager = std::make_unique<SnapshotManager>(corpus_);
    manager->Publish(std::make_shared<const community::CommunityStore>(
        artifacts_->store));
    return manager;
  }

  static querylog::TopicUniverse* universe_;
  static querylog::GeneratedLog* generated_;
  static core::OfflineArtifacts* artifacts_;
  static microblog::TweetCorpus* corpus_;
  static std::string* answered_query_;
};

querylog::TopicUniverse* ServingTest::universe_ = nullptr;
querylog::GeneratedLog* ServingTest::generated_ = nullptr;
core::OfflineArtifacts* ServingTest::artifacts_ = nullptr;
microblog::TweetCorpus* ServingTest::corpus_ = nullptr;
std::string* ServingTest::answered_query_ = nullptr;

// -------------------------------------------------------- SnapshotManager --

TEST_F(ServingTest, PublishBumpsVersionAndAcquireSeesIt) {
  SnapshotManager manager(corpus_);
  EXPECT_EQ(manager.version(), 0u);
  EXPECT_EQ(manager.Acquire(), nullptr);
  uint64_t v1 = manager.Publish(artifacts_->store);
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(manager.version(), 1u);
  auto snap = manager.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_EQ(snap->store().num_communities(),
            artifacts_->store.num_communities());
  uint64_t v2 = manager.Publish(artifacts_->store);
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(manager.Acquire()->version(), 2u);
}

TEST_F(ServingTest, AcquiredSnapshotSurvivesSwap) {
  SnapshotManager manager(corpus_);
  manager.Publish(artifacts_->store);
  auto pinned = manager.Acquire();
  // Swap twice; the pinned generation must stay fully usable (its store
  // pointer and every Community* into it remain alive).
  manager.Publish(artifacts_->store);
  manager.Publish(artifacts_->store);
  EXPECT_EQ(pinned->version(), 1u);
  auto found = pinned->store().Find(*answered_query_);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE((*found)->terms.empty());
}

TEST_F(ServingTest, FindCopyDetachesFromStoreLifetime) {
  community::Community copy;
  {
    community::CommunityStore store = artifacts_->store;
    auto found = store.FindCopy(*answered_query_);
    ASSERT_TRUE(found.ok());
    copy = *found;
  }  // store destroyed
  EXPECT_FALSE(copy.terms.empty());
  EXPECT_TRUE(artifacts_->store.FindCopy("no such term zz").status()
                  .IsNotFound());
}

// ---------------------------------------------------------- ServingEngine --

TEST_F(ServingTest, ServesSameExpertsAsDirectESharp) {
  auto manager = NewManager();
  ServingOptions options;
  options.num_threads = 2;
  ServingEngine engine(manager.get(), options);

  core::ESharp direct(&artifacts_->store, corpus_);
  auto expected = direct.FindExperts(*answered_query_);
  ASSERT_TRUE(expected.ok());

  auto response = engine.Query({*answered_query_});
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->from_cache);
  EXPECT_EQ(response->snapshot_version, 1u);
  ASSERT_EQ(response->experts.size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(response->experts[i].user, (*expected)[i].user);
    EXPECT_DOUBLE_EQ(response->experts[i].score, (*expected)[i].score);
  }
}

TEST_F(ServingTest, QueryBeforeFirstPublishFailsPrecondition) {
  SnapshotManager manager(corpus_);
  ServingEngine engine(&manager);
  EXPECT_TRUE(engine.Query({"tennis"}).status().IsFailedPrecondition());
  EXPECT_TRUE(engine.LookupDomain("tennis").status().IsFailedPrecondition());
}

TEST_F(ServingTest, EmptyQueryIsInvalid) {
  auto manager = NewManager();
  ServingEngine engine(manager.get());
  EXPECT_TRUE(engine.Query({""}).status().IsInvalidArgument());
}

TEST_F(ServingTest, SecondIdenticalQueryHitsCache) {
  auto manager = NewManager();
  ServingEngine engine(manager.get());
  auto first = engine.Query({*answered_query_});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);

  auto second = engine.Query({*answered_query_});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->experts.size(), first->experts.size());
  EXPECT_GE(engine.cache_stats().hits, 1u);

  // Case-insensitive: "Tennis" and "tennis" share an entry (§5 lower-cases).
  std::string upper = *answered_query_;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  auto third = engine.Query({upper});
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->from_cache);

  // bypass_cache forces a fresh execution.
  auto fourth = engine.Query({*answered_query_, /*deadline_ms=*/0,
                              /*bypass_cache=*/true});
  ASSERT_TRUE(fourth.ok());
  EXPECT_FALSE(fourth->from_cache);
}

TEST_F(ServingTest, SwapInvalidatesCachedResults) {
  auto manager = NewManager();
  ServingEngine engine(manager.get());
  ASSERT_TRUE(engine.Query({*answered_query_}).ok());
  ASSERT_TRUE(engine.Query({*answered_query_})->from_cache);

  manager->Publish(artifacts_->store);  // hot swap to generation 2
  auto after = engine.Query({*answered_query_});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);  // stale entry dropped
  EXPECT_EQ(after->snapshot_version, 2u);
}

TEST_F(ServingTest, OverloadShedsWithUnavailable) {
  auto manager = NewManager();
  ServingOptions options;
  options.max_in_flight = 0;  // admit nothing: every request sheds
  ServingEngine engine(manager.get(), options);
  auto r = engine.Query({*answered_query_});
  EXPECT_TRUE(r.status().IsUnavailable());
  auto fut = engine.SubmitQuery({*answered_query_});
  EXPECT_TRUE(fut.get().status().IsUnavailable());
  EXPECT_EQ(engine.metrics().Report().shed, 2u);
  EXPECT_EQ(engine.metrics().Report().completed, 0u);
}

TEST_F(ServingTest, TinyDeadlineTimesOut) {
  auto manager = NewManager();
  ServingOptions options;
  options.enable_cache = false;  // force execution past the deadline check
  ServingEngine engine(manager.get(), options);
  QueryRequest request;
  request.query = *answered_query_;
  request.deadline_ms = 1e-6;  // elapses before the first checkpoint
  auto r = engine.Query(request);
  EXPECT_TRUE(r.status().IsDeadlineExceeded());
  EXPECT_GE(engine.metrics().Report().timeouts, 1u);
  // And without a deadline the same query succeeds.
  EXPECT_TRUE(engine.Query({*answered_query_}).ok());
}

TEST_F(ServingTest, SubmitQueryRunsOnPoolAndCompletes) {
  auto manager = NewManager();
  ServingOptions options;
  options.num_threads = 2;
  ServingEngine engine(manager.get(), options);
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.SubmitQuery({*answered_query_}));
  }
  size_t ok = 0;
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->experts.empty());
    ++ok;
  }
  EXPECT_EQ(ok, 8u);
  EXPECT_EQ(engine.in_flight(), 0u);
  MetricsReport report = engine.metrics().Report();
  EXPECT_EQ(report.completed, 8u);
  // With the cache on, identical queries collapse: exactly one execution's
  // worth of stage time, the rest served from cache or deduplicated.
  EXPECT_GE(report.cache_hits + report.deduplicated, 7u);
}

TEST_F(ServingTest, SingleFlightCollapsesConcurrentIdenticalQueries) {
  auto manager = NewManager();
  std::atomic<int> leaders_entered{0};
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();

  ServingOptions options;
  options.enable_cache = false;  // leave single-flight as the only collapse
  options.num_threads = 4;
  options.max_in_flight = 64;
  // Pin the leader inside its execution until the test releases it, so the
  // followers deterministically find its flight in progress.
  options.execution_hook = [&](const std::string&) {
    leaders_entered.fetch_add(1);
    release_future.wait();
  };
  ServingEngine engine(manager.get(), options);

  std::vector<std::future<Result<QueryResponse>>> futures;
  futures.push_back(engine.SubmitQuery({*answered_query_}));
  while (leaders_entered.load() == 0) std::this_thread::yield();
  // The leader is now parked inside ExecuteUncached; these three become
  // followers (the cache is off, so they cannot be absorbed any other way).
  for (int i = 0; i < 3; ++i) {
    futures.push_back(engine.SubmitQuery({*answered_query_}));
  }
  // Give the followers time to reach the flight table, then unblock.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();

  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->experts.empty());
  }
  MetricsReport report = engine.metrics().Report();
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.deduplicated, 3u);
  // Exactly one execution ran the detector.
  EXPECT_EQ(leaders_entered.load(), 1);
}

// ------------------------------------------------- hot swap under load ----

// The acceptance-criterion test: N reader threads hammer the engine while
// the store is hot-swapped M times. No crash (TSan-clean), no empty answer
// for a query the baseline answers, and post-swap queries reflect the new
// store.
TEST_F(ServingTest, HotSwapUnderConcurrentLoad) {
  // store2 = store1 plus a sentinel term spliced into community 0, so the
  // two generations are distinguishable through the serving API.
  const std::string sentinel = "swapsentinelzz";
  auto parsed = community::CommunityStore::ParseTsv(
      artifacts_->store.SerializeTsv() + "t\t0\t" + sentinel + "\n");
  ASSERT_TRUE(parsed.ok());
  auto store1 =
      std::make_shared<const community::CommunityStore>(artifacts_->store);
  auto store2 =
      std::make_shared<const community::CommunityStore>(parsed.MoveValueUnsafe());

  SnapshotManager manager(corpus_);
  manager.Publish(store1);

  ServingOptions options;
  options.num_threads = 2;
  options.max_in_flight = 1 << 20;  // no shedding in this test
  ServingEngine engine(&manager, options);
  ASSERT_TRUE(engine.LookupDomain(sentinel).status().IsNotFound());

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 30;
  constexpr int kSwaps = 6;
  std::atomic<bool> start{false};
  std::atomic<int> failures{0};
  std::atomic<int> empty_answers{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kQueriesPerReader; ++i) {
        // Mix cached and uncached traffic on the known-answerable query.
        QueryRequest request;
        request.query = *answered_query_;
        request.bypass_cache = (i + t) % 3 == 0;
        auto r = engine.Query(request);
        if (!r.ok()) {
          failures.fetch_add(1);
        } else if (r->experts.empty()) {
          empty_answers.fetch_add(1);
        }
      }
    });
  }

  std::thread swapper([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int s = 0; s < kSwaps; ++s) {
      manager.Publish(s % 2 == 0 ? store2 : store1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    manager.Publish(store2);  // final generation carries the sentinel
  });

  start.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  swapper.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(empty_answers.load(), 0);

  // Post-swap: the serving path sees the new store.
  uint64_t final_version = manager.version();
  EXPECT_EQ(final_version, 1u + kSwaps + 1u);
  auto domain = engine.LookupDomain(sentinel);
  ASSERT_TRUE(domain.ok()) << domain.status().ToString();
  QueryRequest fresh;
  fresh.query = *answered_query_;
  fresh.bypass_cache = true;
  auto post = engine.Query(fresh);
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->snapshot_version, final_version);
  EXPECT_FALSE(post->experts.empty());
}

// Swapping also under SubmitQuery (async) traffic, exercising the queue.
TEST_F(ServingTest, AsyncTrafficAcrossASwapAllCompletes) {
  auto manager = NewManager();
  ServingOptions options;
  options.num_threads = 2;
  options.max_in_flight = 1 << 20;
  ServingEngine engine(manager.get(), options);

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 20; ++i) {
    QueryRequest request;
    request.query = *answered_query_;
    request.bypass_cache = i % 2 == 0;
    futures.push_back(engine.SubmitQuery(std::move(request)));
    if (i == 10) manager->Publish(artifacts_->store);
  }
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->experts.empty());
    EXPECT_GE(r->snapshot_version, 1u);
    EXPECT_LE(r->snapshot_version, 2u);
  }
  EXPECT_EQ(engine.metrics().Report().completed, 20u);
}

// ----------------------------------------------- concurrent publishing ----

// Regression: unserialized publishers could install snapshots out of
// version order (last writer wins on the pointer), leaving the acquirable
// generation behind version() — which made every cache entry look stale
// until the next publish. After racing publishers join, the pointer and
// the counter must agree on the newest generation.
TEST_F(ServingTest, ConcurrentPublishesInstallNewestGeneration) {
  SnapshotManager manager(corpus_);
  auto store =
      std::make_shared<const community::CommunityStore>(artifacts_->store);
  constexpr int kPublishers = 4;
  constexpr int kPerThread = 8;
  std::atomic<bool> start{false};
  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) manager.Publish(store);
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& th : publishers) th.join();

  EXPECT_EQ(manager.version(), uint64_t{kPublishers * kPerThread});
  auto snap = manager.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), manager.version());
}

// ----------------------------------------------- destruction draining -----

// Regression: destroying the engine while submitted requests were still
// queued or executing let worker lambdas touch already-destroyed members
// (cache_, metrics_, flights_). The destructor must not return until no
// admitted request can reach the engine again — and every future handed
// out by SubmitQuery must already be fulfilled when it does.
TEST_F(ServingTest, DestructionDrainsPendingAsyncWorkOnOwnedPool) {
  auto manager = NewManager();
  std::vector<std::future<Result<QueryResponse>>> futures;
  {
    ServingOptions options;
    options.num_threads = 2;
    options.max_in_flight = 1 << 20;
    options.enable_cache = false;  // every request runs the detector
    options.execution_hook = [](const std::string&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    ServingEngine engine(manager.get(), options);
    for (int i = 0; i < 16; ++i) {
      QueryRequest request;
      request.query = *answered_query_;
      request.bypass_cache = true;  // defeat single-flight: all execute
      futures.push_back(engine.SubmitQuery(std::move(request)));
    }
    // Engine destroyed here, with most requests still queued on its pool.
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "destructor returned before a submitted request completed";
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

// Same contract when the pool is external: the engine cannot join it, so
// the destructor waits for its own admitted requests to release their
// slots instead. The pool outlives the engine, as the options require.
TEST_F(ServingTest, DestructionDrainsPendingAsyncWorkOnExternalPool) {
  auto manager = NewManager();
  ThreadPool pool(2);
  std::vector<std::future<Result<QueryResponse>>> futures;
  {
    ServingOptions options;
    options.pool = &pool;
    options.max_in_flight = 1 << 20;
    options.enable_cache = false;
    options.execution_hook = [](const std::string&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    ServingEngine engine(manager.get(), options);
    for (int i = 0; i < 16; ++i) {
      QueryRequest request;
      request.query = *answered_query_;
      request.bypass_cache = true;
      futures.push_back(engine.SubmitQuery(std::move(request)));
    }
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "destructor returned before a submitted request completed";
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

// ------------------------------------------------------ health transitions --

// The /readyz contract at the engine level: not ready until the first
// Publish, ready (with version and age) afterwards, and the readiness
// probe layers a staleness bound on top.
TEST_F(ServingTest, HealthNotReadyBeforeFirstPublishThenReady) {
  SnapshotManager manager(corpus_);
  ServingEngine engine(&manager);

  HealthView before = engine.Health();
  EXPECT_FALSE(before.ready);
  EXPECT_FALSE(before.detail.empty());
  EXPECT_EQ(before.snapshot_version, 0u);
  obs::ProbeResult probe = EngineReadiness(&engine)();
  EXPECT_FALSE(probe.ok);
  EXPECT_FALSE(probe.detail.empty());

  manager.Publish(artifacts_->store);
  HealthView after = engine.Health();
  EXPECT_TRUE(after.ready);
  EXPECT_TRUE(after.detail.empty());
  EXPECT_EQ(after.snapshot_version, 1u);
  EXPECT_GE(after.snapshot_age_seconds, 0.0);
  EXPECT_TRUE(EngineReadiness(&engine)().ok);

  // A staleness bound turns a stalled weekly refresh into not-ready even
  // though the snapshot itself still serves.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  obs::ProbeResult stale =
      EngineReadiness(&engine, /*max_snapshot_age_seconds=*/1e-3)();
  EXPECT_FALSE(stale.ok);
  EXPECT_TRUE(EngineReadiness(&engine, /*max_snapshot_age_seconds=*/3600)().ok);
}

// Readiness must not flap during a hot swap: a prober polling Health()
// concurrently with traffic and repeated Publishes never observes a
// not-ready window.
TEST_F(ServingTest, HealthStaysReadyAcrossMidTrafficHotSwap) {
  auto manager = NewManager();
  ServingOptions options;
  options.num_threads = 2;
  options.max_in_flight = 1 << 20;
  ServingEngine engine(manager.get(), options);

  std::atomic<bool> stop{false};
  std::atomic<int> not_ready_observations{0};
  std::thread prober([&] {
    while (!stop.load(std::memory_order_acquire)) {
      HealthView h = engine.Health();
      if (!h.ready) not_ready_observations.fetch_add(1);
      std::this_thread::yield();
    }
  });
  std::thread traffic([&] {
    for (int i = 0; i < 60; ++i) {
      QueryRequest request;
      request.query = *answered_query_;
      request.bypass_cache = i % 2 == 0;
      (void)engine.Query(request);
    }
  });
  for (int s = 0; s < 4; ++s) {
    manager->Publish(artifacts_->store);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  traffic.join();
  stop.store(true, std::memory_order_release);
  prober.join();

  EXPECT_EQ(not_ready_observations.load(), 0);
  HealthView final_health = engine.Health();
  EXPECT_TRUE(final_health.ready);
  EXPECT_EQ(final_health.snapshot_version, 5u);  // initial publish + 4 swaps
  EXPECT_GT(final_health.completed, 0u);
}

// When the shed rate blows through the objective, the engine itself stays
// "ready" (the snapshot is fine) but the SLO watchdog degrades — the
// layering /readyz composes.
TEST_F(ServingTest, WatchdogDegradesWhenShedRateExceedsObjective) {
  auto manager = NewManager();
  ServingOptions options;
  options.max_in_flight = 0;  // everything sheds
  ServingEngine engine(manager.get(), options);

  double now = 0;
  obs::EventLog events(64);
  obs::SloWatchdog::Options wd_options;
  wd_options.events = &events;
  wd_options.clock = [&now] { return now; };
  obs::SloWatchdog watchdog(wd_options);
  for (obs::SloObjective& objective : DefaultServingObjectives(&engine)) {
    if (objective.name != "shed_rate") continue;
    objective.short_window_seconds = 5;  // compressed for the test clock
    objective.long_window_seconds = 10;
    watchdog.AddObjective(std::move(objective));
  }

  EXPECT_TRUE(engine.Health().ready);
  EXPECT_TRUE(watchdog.healthy());

  // Sustained 100% shed rate across both windows (target tolerates 5%).
  for (int t = 0; t <= 12; ++t) {
    EXPECT_TRUE(engine.Query({*answered_query_}).status().IsUnavailable());
    now = t;
    watchdog.Tick();
  }

  EXPECT_FALSE(watchdog.healthy());
  std::vector<obs::SloState> states = watchdog.Snapshot();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].name, "shed_rate");
  EXPECT_TRUE(states[0].breached);
  EXPECT_GE(states[0].short_burn, 1.0);
  EXPECT_GE(states[0].long_burn, 1.0);

  bool breach_logged = false;
  for (const obs::Event& e : events.Events()) {
    if (e.message.find("SLO breach: shed_rate") != std::string::npos) {
      breach_logged = true;
    }
  }
  EXPECT_TRUE(breach_logged);

  HealthView health = engine.Health();
  EXPECT_TRUE(health.ready);  // shedding is not a snapshot problem
  EXPECT_GE(health.shed, 13u);
  EXPECT_EQ(health.completed, 0u);
}

// /tracez lists in-flight requests by submission time, whichever pool
// thread (and so whichever registry shard) each one runs on.
TEST_F(ServingTest, ActiveRequestsListConcurrentRequestsInSubmissionOrder) {
  auto manager = NewManager();
  std::atomic<int> entered{0};
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();

  ServingOptions options;
  options.enable_cache = false;
  options.enable_single_flight = false;
  options.num_threads = 2;
  options.execution_hook = [&](const std::string&) {
    entered.fetch_add(1);
    release_future.wait();
  };
  ServingEngine engine(manager.get(), options);

  // The same request under another spelling (the engine lower-cases).
  std::string second_query = *answered_query_;
  for (char& c : second_query) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  auto first = engine.SubmitQuery({*answered_query_});
  while (entered.load() < 1) std::this_thread::yield();
  auto second = engine.SubmitQuery({second_query});
  while (entered.load() < 2) std::this_thread::yield();

  std::vector<ActiveRequestInfo> active = engine.ActiveRequests();
  release.set_value();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  EXPECT_TRUE(engine.ActiveRequests().empty());

  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(active[0].query, *answered_query_);
  EXPECT_EQ(active[1].query, second_query);
  EXPECT_GE(active[0].elapsed_ms, active[1].elapsed_ms);
  EXPECT_NE(active[0].id, 0u);
  EXPECT_NE(active[1].id, 0u);
  EXPECT_NE(active[0].id, active[1].id);
}

// The live records behind /tracez: a pinned request shows up with its
// stage, and finishing moves it into the slow-query log (/queryz) with its
// outcome.
TEST_F(ServingTest, ActiveRegistryTracksStageAndSamplesOutcome) {
  auto manager = NewManager();
  std::atomic<int> entered{0};
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();

  ServingOptions options;
  options.enable_cache = false;
  options.num_threads = 2;
  options.execution_hook = [&](const std::string&) {
    entered.fetch_add(1);
    release_future.wait();
  };
  ServingEngine engine(manager.get(), options);

  EXPECT_TRUE(engine.ActiveRequests().empty());
  auto future = engine.SubmitQuery({*answered_query_});
  while (entered.load() == 0) std::this_thread::yield();

  std::vector<ActiveRequestInfo> active = engine.ActiveRequests();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].query, *answered_query_);
  // The hook runs at the head of ExecuteUncached: the request has moved
  // past admission into the detector stages.
  EXPECT_FALSE(active[0].stage.empty());
  EXPECT_GE(active[0].elapsed_ms, 0.0);

  release.set_value();
  ASSERT_TRUE(future.get().ok());
  EXPECT_TRUE(engine.ActiveRequests().empty());

  std::vector<std::shared_ptr<const obs::QueryProfile>> samples =
      engine.slow_queries().Recent();
  ASSERT_FALSE(samples.empty());
  bool found_ok = false;
  for (const auto& s : samples) {
    if (s->query == *answered_query_ && s->outcome == "ok") found_ok = true;
  }
  EXPECT_TRUE(found_ok);

  // A shed never reaches the registry but error outcomes are sampled too:
  // an invalid (empty) query lands in the log as "invalid".
  ASSERT_TRUE(engine.Query({""}).status().IsInvalidArgument());
  samples = engine.slow_queries().Recent();
  bool found_invalid = false;
  for (const auto& s : samples) {
    if (s->outcome == "invalid") found_invalid = true;
  }
  EXPECT_TRUE(found_invalid);
}

// /queryz on an engine, like the router's: MountServingEndpoints serves the
// engine's slow-query log — the HTML table lists a profiled query,
// ?format=json summarizes, ?trace=<id> downloads its Chrome trace with the
// record's stages, and an unknown id is a 404. Cache hits stay out.
TEST_F(ServingTest, QueryzServesTheEngineSlowQueryLog) {
  auto manager = NewManager();
  ServingEngine engine(manager.get());
  QueryRequest request{*answered_query_};
  request.trace = obs::TraceContext::NewRoot();
  ASSERT_TRUE(engine.Query(request).ok());
  ASSERT_TRUE(engine.Query({*answered_query_})->from_cache);
  EXPECT_EQ(engine.slow_queries().recorded(), 1u);

  obs::DebugServer server;
  MountServingEndpoints(&server, &engine);
  ASSERT_TRUE(server.Start().ok());
  const std::string id = request.trace.TraceIdHex();

  auto html = obs::HttpGet("127.0.0.1", server.port(), "/queryz");
  ASSERT_TRUE(html.ok()) << html.status().ToString();
  ASSERT_EQ(html->status, 200);
  EXPECT_NE(html->body.find(id), std::string::npos);
  EXPECT_NE(html->body.find(*answered_query_), std::string::npos);

  auto json = obs::HttpGet("127.0.0.1", server.port(), "/queryz?format=json");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->body.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json->body.find(id), std::string::npos);

  auto chrome =
      obs::HttpGet("127.0.0.1", server.port(), "/queryz?trace=" + id);
  ASSERT_TRUE(chrome.ok());
  ASSERT_EQ(chrome->status, 200);
  EXPECT_NE(chrome->body.find("\"traceEvents\""), std::string::npos);
  for (const char* stage : {"admission", "cache", "expand", "detect", "rank"}) {
    EXPECT_NE(chrome->body.find("\"name\":\"" + std::string(stage) + "\""),
              std::string::npos)
        << stage;
  }

  auto miss = obs::HttpGet("127.0.0.1", server.port(),
                           "/queryz?trace=ffffffffffffffffffffffffffffffff");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->status, 404);
}

// ---------------------------------------------------------- Observability --

#if ESHARP_OBS_ENABLED
TEST_F(ServingTest, TraceCoversAllStagesOfAServedRequest) {
  auto manager = NewManager();
  obs::Tracer tracer;
  ServingOptions options;
  options.num_threads = 1;
  options.tracer = &tracer;
  ServingEngine engine(manager.get(), options);
  auto response = engine.Query({*answered_query_});
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  std::vector<obs::TraceEvent> events = tracer.Events();
  const obs::TraceEvent* request = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "request") request = &e;
  }
  ASSERT_NE(request, nullptr) << "no request span recorded";
  EXPECT_EQ(request->parent_id, 0u);

  // The full uncached pipeline: admission -> cache -> expand -> detect ->
  // rank, every stage a child of the request span.
  for (const char* stage :
       {"admission", "cache", "expand", "detect", "rank"}) {
    const obs::TraceEvent* found = nullptr;
    for (const obs::TraceEvent& e : events) {
      if (e.name == stage) found = &e;
    }
    ASSERT_NE(found, nullptr) << "missing stage span: " << stage;
    EXPECT_EQ(found->parent_id, request->id)
        << stage << " span not parented under the request span";
  }
  auto arg = [](const obs::TraceEvent& e, const std::string& key) {
    for (const auto& [k, v] : e.args) {
      if (k == key) return v;
    }
    return std::string();
  };
  for (const obs::TraceEvent& e : events) {
    if (e.name == "cache") {
      EXPECT_EQ(arg(e, "outcome"), "miss");
    }
    if (e.name == "request") {
      EXPECT_EQ(arg(e, "outcome"), "ok");
    }
  }

  // A repeat of the same query is served from the cache: a new request
  // span with a cache-hit outcome and no detector stages.
  size_t before = events.size();
  ASSERT_TRUE(engine.Query({*answered_query_}).ok());
  events = tracer.Events();
  size_t expands = 0;
  std::string hit_outcome;
  for (size_t i = before; i < events.size(); ++i) {
    if (events[i].name == "expand") ++expands;
    if (events[i].name == "cache") hit_outcome = arg(events[i], "outcome");
  }
  EXPECT_EQ(expands, 0u);
  EXPECT_EQ(hit_outcome, "hit");
}

TEST_F(ServingTest, ShedRequestsLeaveATraceEvent) {
  auto manager = NewManager();
  obs::Tracer tracer;
  ServingOptions options;
  options.num_threads = 1;
  options.max_in_flight = 0;  // everything sheds
  options.tracer = &tracer;
  ServingEngine engine(manager.get(), options);
  auto response = engine.Query({*answered_query_});
  EXPECT_FALSE(response.ok());
  std::vector<obs::TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "shed");
  EXPECT_DOUBLE_EQ(events[0].dur_us, 0.0);
}

// Golden span shapes of every engine request kind: names, parents, sorted
// annotation keys (outcome values spelled out) and recording order. Trace
// consumers depend on all of it — micro_engine pairs each detect span's
// "candidates" with the next rank span's "experts" — so the list is
// literal, and every child must lie inside its root.
TEST_F(ServingTest, SpanShapesArePinnedPerRequestKind) {
  using testing::EventsOfTrace;
  using testing::ExpectChildrenInsideRoots;
  using testing::SpanShapes;
  using Shapes = std::vector<std::string>;
  auto manager = NewManager();
  obs::Tracer tracer;
  std::atomic<bool> pin_leader{false};
  std::atomic<int> leaders_entered{0};
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ServingOptions options;
  options.num_threads = 2;
  options.tracer = &tracer;
  options.execution_hook = [&](const std::string&) {
    if (!pin_leader.load()) return;
    leaders_entered.fetch_add(1);
    release_future.wait();
  };
  ServingEngine engine(manager.get(), options);
  // Serves `request` alone on a clean tracer and returns its span shapes.
  auto shapes_of = [&](QueryRequest request, bool evidence = false) {
    tracer.Reset();
    if (evidence) {
      (void)engine.QueryEvidence(request);
    } else {
      (void)engine.Query(request);
    }
    std::vector<obs::TraceEvent> events = tracer.Events();
    ExpectChildrenInsideRoots(events);
    return SpanShapes(events);
  };
  const Shapes detector_stages = {
      "expand<request{terms}",
      "detect<request{candidates,terms_live,terms_precomputed}",
      "rank<request{experts}"};
  auto concat = [](Shapes a, const Shapes& b, const Shapes& c) {
    a.insert(a.end(), b.begin(), b.end());
    a.insert(a.end(), c.begin(), c.end());
    return a;
  };

  EXPECT_EQ(shapes_of({*answered_query_}),
            concat({"admission<request{}", "cache<request{outcome=miss}"},
                   detector_stages, {"request{outcome=ok,trace}"}));
  EXPECT_EQ(shapes_of({*answered_query_}),
            (Shapes{"admission<request{}", "cache<request{outcome=hit}",
                    "request{outcome=cache_hit,trace}"}));
  EXPECT_EQ(shapes_of({*answered_query_, /*deadline_ms=*/0,
                       /*bypass_cache=*/true}),
            concat({"admission<request{}", "cache<request{outcome=bypass}"},
                   detector_stages, {"request{outcome=ok,trace}"}));
  EXPECT_EQ(shapes_of({"deadline probe", /*deadline_ms=*/1e-6}),
            (Shapes{"admission<request{}", "cache<request{outcome=miss}",
                    "request{outcome=timeout,trace}"}));
  EXPECT_EQ(shapes_of({""}), (Shapes{"admission<request{}",
                                     "request{outcome=invalid,trace}"}));
  EXPECT_EQ(shapes_of({*answered_query_}, /*evidence=*/true),
            (Shapes{"admission<shard_request{}", "expand<shard_request{}",
                    "detect<shard_request{candidates,terms_live,"
                    "terms_precomputed}",
                    "shard_request{outcome=ok,trace}"}));

  // Single-flight: a leader pinned inside its execution, and a follower
  // that joins its flight. Each serves under its own trace id.
  engine.InvalidateCache();
  tracer.Reset();
  pin_leader.store(true);
  QueryRequest leader{*answered_query_};
  leader.trace = obs::TraceContext::NewRoot();
  QueryRequest follower = leader;
  follower.trace = obs::TraceContext::NewRoot();
  auto leader_future = engine.SubmitQuery(leader);
  while (leaders_entered.load() == 0) std::this_thread::yield();
  auto follower_future = engine.SubmitQuery(follower);
  for (bool waiting = false; !waiting; std::this_thread::yield()) {
    for (const ActiveRequestInfo& info : engine.ActiveRequests()) {
      if (info.stage == "flight_wait") waiting = true;
    }
  }
  release.set_value();
  ASSERT_TRUE(leader_future.get().ok());
  Result<QueryResponse> followed = follower_future.get();
  ASSERT_TRUE(followed.ok());
  EXPECT_TRUE(followed->deduplicated);
  std::vector<obs::TraceEvent> events = tracer.Events();
  ExpectChildrenInsideRoots(events);
  EXPECT_EQ(SpanShapes(EventsOfTrace(events, leader.trace)),
            concat({"admission<request{}", "cache<request{outcome=miss}"},
                   detector_stages, {"request{outcome=ok,trace}"}));
  EXPECT_EQ(SpanShapes(EventsOfTrace(events, follower.trace)),
            (Shapes{"admission<request{}", "cache<request{outcome=miss}",
                    "flight_wait<request{}",
                    "request{outcome=deduplicated,trace}"}));

  // Shed: one zero-length root, no record of its own.
  ServingOptions shed_options;
  shed_options.max_in_flight = 0;
  shed_options.tracer = &tracer;
  ServingEngine shedding(manager.get(), shed_options);
  tracer.Reset();
  EXPECT_TRUE(shedding.Query({*answered_query_}).status().IsUnavailable());
  EXPECT_EQ(SpanShapes(tracer.Events()), (Shapes{"shed{outcome=shed}"}));
}
#endif  // ESHARP_OBS_ENABLED

// Feeds `metrics` one finished 10 ms request, as the engine's Finish does.
void RecordOkRequest(ServingMetrics* metrics) {
  obs::RequestRecord record("request", "q", obs::NowSeconds() - 0.01);
  record.Finish(Status::OK());
  metrics->Record(record);
}

TEST(ServingMetricsTest, WindowedQpsRecoversAfterIdleUnlikeLifetimeQps) {
  ServingMetrics metrics;
  double now = 0;
  metrics.SetClockForTest([&now] { return now; });

  // Phase 1: 10 qps for 10 seconds.
  for (int i = 0; i < 100; ++i) {
    now = i * 0.1;
    RecordOkRequest(&metrics);
  }
  MetricsReport warm = metrics.Report();
  EXPECT_NEAR(warm.window_qps, 10.0, 2.5);

  // Long idle: the windowed rate decays to ~0; the lifetime average barely
  // moves and keeps overstating the current load.
  now = 1000;
  MetricsReport idle = metrics.Report();
  EXPECT_LT(idle.window_qps, 0.05);

  // Phase 2: a burst after the idle period. The lifetime qps is diluted by
  // the idle time (this was the Report() understatement bug); the windowed
  // rate tracks the recent burst instead.
  for (int i = 0; i < 100; ++i) {
    now = 1000 + i * 0.01;
    RecordOkRequest(&metrics);
  }
  MetricsReport burst = metrics.Report();
  EXPECT_LT(burst.qps, 1.0);  // 200 requests over ~1001 s
  EXPECT_GT(burst.window_qps, 5.0 * burst.qps);
  EXPECT_GT(burst.window_qps, 2.0);
  metrics.SetClockForTest(nullptr);
}

TEST(ServingMetricsTest, WindowedQpsEarlyLifeIsNotUnderestimated) {
  ServingMetrics metrics;
  double now = 0;
  metrics.SetClockForTest([&now] { return now; });
  // 20 qps for one second — much shorter than the window's time constant.
  // The warm-up fill correction must keep the estimate near the true rate
  // instead of diluting it across the whole (mostly unobserved) window.
  for (int i = 0; i < 20; ++i) {
    now = i * 0.05;
    RecordOkRequest(&metrics);
  }
  MetricsReport r = metrics.Report();
  EXPECT_NEAR(r.window_qps, 20.0, 5.0);
  metrics.SetClockForTest(nullptr);
}

// The windowed rate keeps one decayed mass per thread shard. Requests
// recorded from several threads, in phases at different clock readings,
// must give the single-window EWMA of all of them: the sum over requests
// of e^{-(now - t)/tau}, normalized by tau and the window's fill. Each
// phase's fresh threads take the next shards, so the shards' last events
// sit at different readings.
TEST(ServingMetricsTest, WindowedQpsSumsThreadShardsToOneWindow) {
  ServingMetrics metrics;
  std::atomic<double> now{0};
  metrics.SetClockForTest([&now] { return now.load(); });
  constexpr size_t kThreads = 4;
  constexpr size_t kPhases = 12;
  std::vector<double> times;
  for (size_t phase = 0; phase < kPhases; ++phase) {
    const double t = 0.7 * static_cast<double>(phase) + 0.05;
    now.store(t);
    std::vector<std::thread> threads;
    for (size_t j = 0; j < kThreads; ++j) {
      const size_t events = 1 + (j * 7 + phase * 3) % 5;
      times.insert(times.end(), events, t);
      threads.emplace_back([&metrics, events] {
        for (size_t e = 0; e < events; ++e) RecordOkRequest(&metrics);
      });
    }
    for (auto& th : threads) th.join();
  }

  for (double at : {0.7 * kPhases, 0.7 * kPhases + 25.0}) {
    now.store(at);
    MetricsReport r = metrics.Report();
    const double tau = r.window_tau_seconds;
    double mass = 0;
    for (double t : times) mass += std::exp(-(at - t) / tau);
    const double expected = mass / (tau * (1.0 - std::exp(-at / tau)));
    EXPECT_EQ(r.completed, times.size());
    EXPECT_NEAR(r.window_qps, expected, 1e-9 * expected) << "at " << at;
  }
  metrics.SetClockForTest(nullptr);
}

}  // namespace
}  // namespace esharp::serving
