// Streaming-ingest benchmark: delta publish against full offline rebuild
// (ingest/ingest.h vs ingest/verify.h's RebuildFromScratch) — the two ways
// a serving tier can fold new tweets and query-log triples into its
// answers. At each corpus size the delta batch is ~0.1% of the corpus,
// tweet-heavy (the realistic traffic mix); a second delta shape adds
// query-log triples so the re-cluster path is timed too. The acceptance
// floor is a 10x delta-vs-rebuild speedup at every benched size.
//
// Before any timing, the equivalence gate (VerifyAgainstRebuild /
// VerifySharded) proves the delta-maintained world — corpus, graph,
// store, evidence, ranked answers — bit-identical to a from-scratch
// rebuild, single-engine AND through the sharded router; the gate runs
// again after the timed publishes so no speedup can ship from a
// divergent batch. A final section A/Bs serving throughput with and
// without a continuous ingest-and-publish writer hot-swapping
// generations under the readers.
//
// Usage: ingest_bench [--iters=K] [--smoke] [--json=PATH]
//
// Results are published as bench.ingest.* gauges and written as a JSON
// snapshot (default BENCH_ingest.json; schema in EXPERIMENTS.md).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "ingest/ingest.h"
#include "ingest/sharded.h"
#include "ingest/verify.h"
#include "obs/obs.h"
#include "serving/engine.h"
#include "serving/snapshot.h"

namespace {

using namespace esharp;

volatile uint64_t g_sink = 0;

double BestOf(size_t iters, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < iters; ++i) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

void Fail(const std::string& why) {
  std::fprintf(stderr, "ingest_bench: %s\n", why.c_str());
  std::exit(1);
}

ingest::IngestOptions PipelineOptions() {
  ingest::IngestOptions options;
  options.extraction.min_query_count = 3;
  options.extraction.min_similarity = 0.10;
  options.extraction.max_url_fanout = 64;
  return options;
}

serving::ServingOptions EngineOptions() {
  serving::ServingOptions o;
  o.num_threads = 2;
  o.enable_cache = false;
  o.enable_single_flight = false;
  return o;
}

/// Synthetic stream shaped for delta measurement: a wide query-log-backed
/// vocabulary (every topic word survives filtering and lands in a
/// community) over which each tweet carries exactly ONE topic word plus
/// filler, so a 0.1% batch dirties a corpus-independent handful of
/// evidence pools — the regime the dirty-term tracker is built for.
/// Works against IngestPipeline and ShardedIngest (same writer API).
template <typename Target>
struct Feeder {
  Target* target;
  Rng rng;
  size_t topics;
  size_t fillers;
  microblog::UserId num_users = 0;
  size_t tweets_appended = 0;

  Feeder(Target* target, uint64_t seed, size_t topics, size_t fillers)
      : target(target), rng(seed), topics(topics), fillers(fillers) {}

  static std::string TopicWord(size_t i) {
    return "topic" + std::to_string(i);
  }

  void EnsureUsers(size_t want) {
    while (num_users < want) {
      microblog::UserProfile user;
      user.id = num_users;
      user.screen_name = "user" + std::to_string(num_users);
      user.followers = 10 + num_users;
      target->AppendUser(user);
      ++num_users;
    }
  }

  /// Registers every topic word as a surviving query; groups of four
  /// share a click url, so extraction yields one small component (and
  /// community) per group and the vocabulary covers all topic words.
  void SeedQueryLog() {
    for (size_t t = 0; t < topics; ++t) {
      target->AppendSearches(TopicWord(t), 5);
      target->AppendClicks(TopicWord(t), static_cast<uint32_t>(t / 4),
                           2 + t % 3);
    }
  }

  std::string TweetText() {
    std::string text = TopicWord(rng.Uniform(topics));
    for (int i = 0; i < 3; ++i) {
      text += " fill" + std::to_string(rng.Uniform(fillers));
    }
    return text;
  }

  void AppendTweets(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      std::vector<microblog::UserId> mentions;
      if (rng.Bernoulli(0.2)) mentions.push_back(rng.Uniform(num_users));
      target->AppendTweet(rng.Uniform(num_users), TweetText(), mentions,
                          rng.Uniform(4));
    }
    tweets_appended += count;
  }

  /// A few click triples on fresh urls: changes the touched queries'
  /// vectors, so the next publish takes the re-cluster path.
  void TouchGraph() {
    for (int i = 0; i < 3; ++i) {
      target->AppendClicks(TopicWord(rng.Uniform(topics)),
                           static_cast<uint32_t>(topics + rng.Uniform(8)),
                           1 + rng.Uniform(3));
    }
  }
};

std::vector<std::string> Probes(size_t topics) {
  std::vector<std::string> probes;
  for (size_t i = 0; i < std::min<size_t>(topics, 12); ++i) {
    probes.push_back(Feeder<ingest::IngestPipeline>::TopicWord(i));
  }
  probes.push_back("no such topic anywhere");
  return probes;
}

}  // namespace

int main(int argc, char** argv) {
  size_t iters = 5;
  bool smoke = false;
  std::string json_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::strtoul(argv[i] + 8, nullptr, 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (smoke) iters = std::min<size_t>(iters, 2);
  if (iters < 1) iters = 1;

  bench::PrintHeader("Streaming ingest: delta publish vs full rebuild");
  const size_t kTopics = smoke ? 48 : 1200;
  const size_t kFillers = smoke ? 48 : 400;
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{400}
            : std::vector<size_t>{10'000, 50'000, 100'000};
  const std::vector<std::string> probes = Probes(kTopics);

  obs::MetricsRegistry registry;
  // The largest stream stays alive for the serving-QPS A/B below.
  std::unique_ptr<serving::SnapshotManager> ab_manager;
  std::unique_ptr<ingest::IngestPipeline> ab_pipeline;
  std::unique_ptr<Feeder<ingest::IngestPipeline>> ab_feeder;

  for (size_t n : sizes) {
    auto manager = std::make_unique<serving::SnapshotManager>();
    auto pipeline = std::make_unique<ingest::IngestPipeline>(
        manager.get(), PipelineOptions());
    auto feeder = std::make_unique<Feeder<ingest::IngestPipeline>>(
        pipeline.get(), 2016 + n, kTopics, kFillers);
    feeder->EnsureUsers(50 + n / 100);
    feeder->SeedQueryLog();
    feeder->AppendTweets(n);
    Result<ingest::PublishStats> first = pipeline->Publish();
    if (!first.ok()) Fail("initial publish: " + first.status().ToString());
    std::printf("\ncorpus %zu tweets, %zu vocabulary terms, "
                "%zu communities\n",
                n, pipeline->published_vocabulary().size(),
                first->communities);

    // ---- Equivalence gate, before any timing -----------------------------
    Status gate = ingest::VerifyAgainstRebuild(*pipeline, probes);
    if (!gate.ok()) Fail("equivalence gate: " + gate.ToString());
    std::printf("  equivalence gate: delta world bit-identical to "
                "rebuild (%zu probes)\n",
                probes.size());

    // ---- Timing ----------------------------------------------------------
    const double rebuild_s = BestOf(iters, [&] {
      Result<ingest::RebuildArtifacts> r =
          ingest::RebuildFromScratch(*pipeline);
      if (!r.ok()) Fail("rebuild: " + r.status().ToString());
      g_sink = g_sink + r->store->communities().size();
    });

    // Tweet-only 0.1% batches: the fast path (store and clustering are
    // republished wholesale; only matched evidence pools re-collect).
    const size_t batch = std::max<size_t>(10, n / 1000);
    size_t dirty_terms = 0;
    double delta_s = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < iters; ++i) {
      feeder->AppendTweets(batch);
      Timer t;
      Result<ingest::PublishStats> stats = pipeline->Publish();
      delta_s = std::min(delta_s, t.ElapsedSeconds());
      if (!stats.ok()) Fail("delta publish: " + stats.status().ToString());
      dirty_terms = stats->dirty_terms;
    }

    // Same batch size but with query-log triples: the batch changes the
    // similarity graph, so this publish pays component re-clustering.
    double graph_delta_s = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < iters; ++i) {
      feeder->AppendTweets(batch);
      feeder->TouchGraph();
      Timer t;
      Result<ingest::PublishStats> stats = pipeline->Publish();
      graph_delta_s = std::min(graph_delta_s, t.ElapsedSeconds());
      if (!stats.ok()) {
        Fail("graph-delta publish: " + stats.status().ToString());
      }
      if (!stats->graph_changed) Fail("graph-delta batch took fast path");
    }

    // Re-gate: the timed publishes themselves must have converged.
    gate = ingest::VerifyAgainstRebuild(*pipeline, probes);
    if (!gate.ok()) Fail("post-timing gate: " + gate.ToString());

    const double speedup = delta_s > 0 ? rebuild_s / delta_s : 0;
    const double graph_speedup =
        graph_delta_s > 0 ? rebuild_s / graph_delta_s : 0;
    std::printf("  %-26s %10.4f s\n", "full rebuild", rebuild_s);
    std::printf("  %-26s %10.4f s  (%zu-tweet batch, %zu dirty terms)  "
                "%.1fx\n",
                "delta publish", delta_s, batch, dirty_terms, speedup);
    std::printf("  %-26s %10.4f s  %.1fx\n", "graph-delta publish",
                graph_delta_s, graph_speedup);
    std::printf("  %-26s %10.1f\n", "publishes/sec",
                delta_s > 0 ? 1.0 / delta_s : 0);
    if (!smoke && speedup < 10.0) {
      Fail("delta speedup " + std::to_string(speedup) +
           "x under the 10x acceptance floor at " + std::to_string(n) +
           " tweets");
    }

    const std::string label = std::to_string(n);
    registry.GetGauge("bench.ingest.full_rebuild_seconds",
                      {{"tweets", label}})->Set(rebuild_s);
    registry.GetGauge("bench.ingest.delta_publish_seconds",
                      {{"tweets", label}})->Set(delta_s);
    registry.GetGauge("bench.ingest.delta_speedup", {{"tweets", label}})
        ->Set(speedup);
    registry.GetGauge("bench.ingest.graph_delta_seconds",
                      {{"tweets", label}})->Set(graph_delta_s);
    registry.GetGauge("bench.ingest.graph_delta_speedup",
                      {{"tweets", label}})->Set(graph_speedup);
    registry.GetGauge("bench.ingest.publishes_per_sec", {{"tweets", label}})
        ->Set(delta_s > 0 ? 1.0 / delta_s : 0);
    registry.GetGauge("bench.ingest.dirty_terms_per_batch",
                      {{"tweets", label}})
        ->Set(static_cast<double>(dirty_terms));

    if (n == sizes.back()) {
      ab_manager = std::move(manager);
      ab_pipeline = std::move(pipeline);
      ab_feeder = std::move(feeder);
      ab_feeder->target = ab_pipeline.get();
    }
  }

  // ---- Sharded tier: gate + delta publish through the router --------------
  bench::PrintHeader("Sharded ingest: lockstep delta publish");
  const size_t n_sharded = smoke ? 200 : 3000;
  ingest::ShardedIngest sharded(3, PipelineOptions());
  Feeder<ingest::ShardedIngest> sharded_feeder(&sharded, 77, kTopics,
                                               kFillers);
  sharded_feeder.EnsureUsers(50 + n_sharded / 100);
  sharded_feeder.SeedQueryLog();
  sharded_feeder.AppendTweets(n_sharded);
  Result<ingest::PublishStats> sharded_first = sharded.Publish();
  if (!sharded_first.ok()) {
    Fail("sharded publish: " + sharded_first.status().ToString());
  }
  Status sharded_gate = ingest::VerifySharded(sharded, probes);
  if (!sharded_gate.ok()) Fail("sharded gate: " + sharded_gate.ToString());
  std::printf("equivalence gate: router bit-identical to "
              "partition-and-rebuild (%zu probes, 3 shards)\n",
              probes.size());
  const size_t sharded_batch = std::max<size_t>(10, n_sharded / 1000);
  double sharded_delta_s = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < iters; ++i) {
    sharded_feeder.AppendTweets(sharded_batch);
    Timer t;
    Result<ingest::PublishStats> stats = sharded.Publish();
    sharded_delta_s = std::min(sharded_delta_s, t.ElapsedSeconds());
    if (!stats.ok()) {
      Fail("sharded delta publish: " + stats.status().ToString());
    }
  }
  std::printf("sharded delta publish (union + 3 shards + router rebind): "
              "%.4f s\n",
              sharded_delta_s);
  registry.GetGauge("bench.ingest.sharded_delta_seconds")
      ->Set(sharded_delta_s);

  // ---- Serving QPS under continuous ingest --------------------------------
  bench::PrintHeader("Serving under continuous ingest (A/B)");
  serving::ServingEngine engine(ab_pipeline->manager(), EngineOptions());
  std::vector<std::string> workload;
  for (size_t i = 0; i < std::min<size_t>(kTopics, 16); ++i) {
    workload.push_back(Feeder<ingest::IngestPipeline>::TopicWord(i));
  }
  const double window_s = smoke ? 0.15 : 1.0;
  std::string writer_error;
  auto run_window = [&](bool with_ingest, size_t* publishes_out) -> double {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> served{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        size_t i = static_cast<size_t>(r);
        while (!stop.load(std::memory_order_relaxed)) {
          serving::QueryRequest request;
          request.query = workload[i++ % workload.size()];
          Result<serving::QueryResponse> response =
              engine.Query(std::move(request));
          if (response.ok()) g_sink = g_sink + response->experts.size();
          served.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    size_t publishes = 0;
    std::thread writer;
    if (with_ingest) {
      // The one writer thread: small batches, publish as fast as the
      // pipeline allows — every publish hot-swaps a generation under
      // the readers.
      writer = std::thread([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          ab_feeder->AppendTweets(20);
          Result<ingest::PublishStats> stats = ab_pipeline->Publish();
          if (!stats.ok()) {
            writer_error = stats.status().ToString();
            return;
          }
          ++publishes;
        }
      });
    }
    Timer wall;
    while (wall.ElapsedSeconds() < window_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true, std::memory_order_relaxed);
    const double secs = wall.ElapsedSeconds();
    for (std::thread& t : readers) t.join();
    if (writer.joinable()) writer.join();
    if (!writer_error.empty()) Fail("ingest writer: " + writer_error);
    *publishes_out = publishes;
    return static_cast<double>(served.load()) / secs;
  };
  size_t publishes_idle = 0, publishes_load = 0;
  const double qps_idle = run_window(false, &publishes_idle);
  const double qps_ingest = run_window(true, &publishes_load);
  const double retention = qps_idle > 0 ? qps_ingest / qps_idle : 0;
  std::printf("%-28s %10.0f qps\n", "A: frozen snapshot", qps_idle);
  std::printf("%-28s %10.0f qps  (%.0f publishes/sec riding along)\n",
              "B: continuous ingest", qps_ingest,
              publishes_load / window_s);
  std::printf("throughput retained under ingest: %.0f%%\n",
              retention * 100.0);
  registry.GetGauge("bench.ingest.qps_idle")->Set(qps_idle);
  registry.GetGauge("bench.ingest.qps_under_ingest")->Set(qps_ingest);
  registry.GetGauge("bench.ingest.qps_retention_ratio")->Set(retention);
  registry.GetGauge("bench.ingest.publishes_per_sec_under_load")
      ->Set(publishes_load / window_s);
  registry.GetGauge("bench.ingest.queries_verified")
      ->Set(static_cast<double>(probes.size()));

  Status written = registry.WriteJsonFile(json_path);
  if (!written.ok()) {
    ESHARP_LOG(WARN) << "could not write " << json_path << ": "
                     << written.ToString();
  } else {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
