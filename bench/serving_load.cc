// Load generator for the serving layer: replays Zipf-distributed query
// workloads from the synthetic query log against ServingEngine and prints a
// throughput/latency table.
//
// Two client models:
//   * closed-loop: T client threads, each issuing its next query as soon as
//     the previous one returns — measures saturated throughput;
//   * open-loop: queries submitted at a fixed offered rate regardless of
//     completion — measures behavior under a traffic level you pick,
//     including shedding once the offered rate exceeds capacity.
//
// Each workload runs twice against the same engine: a cold pass (cache
// freshly invalidated) and a warm pass (cache populated by the cold pass).
// On a Zipf workload the warm pass must show a clear speedup: the head of
// the distribution dominates and is served from the cache.
//
// Usage: serving_load [closed_threads] [queries_per_thread] [open_qps]
//                     [--json=PATH] [--reference] [--shards=N]
//
// --reference serves every request over an empty term-evidence index (every
// expansion term collected live), for A/B runs against the default fast
// path: diff the two JSON files with bench_diff.
//
// --shards=N routes the closed-loop workload through a ClusterRouter over
// N in-process shard engines instead of one engine — an A/B of the
// single-node vs sharded front door under identical traffic. Sharded mode
// runs the closed loop only (the router has no async submit path) and
// defaults the JSON snapshot to BENCH_serving_sharded.json so a sweep
// never clobbers the committed single-node baseline.
//
// Every run's results are also published as bench.serving.* gauges
// (labelled {run="closed_cold"|...}) into a bench-local MetricsRegistry
// and written as a JSON snapshot (default BENCH_serving.json; schema in
// EXPERIMENTS.md), so runs diff mechanically across commits.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "common/rng.h"
#include "expert/evidence_index.h"
#include "obs/debugz.h"
#include "obs/obs.h"
#include "serving/engine.h"
#include "serving/introspect.h"

namespace {

using namespace esharp;

/// The query universe of the workload: every distinct query that survived
/// the log's min-count filter, Zipf-ranked by total search count — replaying
/// the real popularity skew the log generator produced.
std::vector<std::string> WorkloadQueries(const querylog::QueryLog& log) {
  std::vector<const querylog::QueryInfo*> infos;
  infos.reserve(log.num_queries());
  for (const querylog::QueryInfo& q : log.queries()) infos.push_back(&q);
  std::sort(infos.begin(), infos.end(),
            [](const querylog::QueryInfo* a, const querylog::QueryInfo* b) {
              if (a->total_count != b->total_count)
                return a->total_count > b->total_count;
              return a->id < b->id;
            });
  std::vector<std::string> queries;
  queries.reserve(infos.size());
  for (const querylog::QueryInfo* q : infos) queries.push_back(q->text);
  return queries;
}

struct RunResult {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  double wall_seconds = 0;
  double qps = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double hit_rate = 0;
};

RunResult Summarize(const serving::ServingMetrics& metrics, uint64_t issued,
                    double wall_seconds) {
  serving::MetricsReport m = metrics.Report();
  RunResult r;
  r.issued = issued;
  r.ok = m.completed;
  r.shed = m.shed;
  r.errors = m.errors + m.timeouts;
  r.wall_seconds = wall_seconds;
  r.qps = wall_seconds > 0 ? static_cast<double>(m.completed) / wall_seconds
                           : 0;
  r.p50_ms = m.p50_ms;
  r.p95_ms = m.p95_ms;
  r.p99_ms = m.p99_ms;
  r.hit_rate = m.cache_hit_rate;
  return r;
}

/// Closed loop: `threads` clients, each issuing `per_thread` Zipf-sampled
/// queries back-to-back through the synchronous path.
RunResult RunClosedLoop(serving::ServingEngine& engine,
                        const std::vector<std::string>& queries,
                        const ZipfSampler& zipf, size_t threads,
                        size_t per_thread, uint64_t seed) {
  engine.mutable_metrics()->Reset();
  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(seed + t);
      for (size_t i = 0; i < per_thread; ++i) {
        serving::QueryRequest request;
        request.query = queries[zipf.Sample(&rng)];
        (void)engine.Query(std::move(request));
      }
    });
  }
  for (auto& c : clients) c.join();
  return Summarize(engine.metrics(), threads * per_thread, wall.ElapsedSeconds());
}

/// Open loop: submit asynchronously at `offered_qps`, never waiting for
/// completions; the admission queue sheds what the engine cannot absorb.
RunResult RunOpenLoop(serving::ServingEngine& engine,
                      const std::vector<std::string>& queries,
                      const ZipfSampler& zipf, double offered_qps,
                      size_t total, uint64_t seed) {
  engine.mutable_metrics()->Reset();
  Rng rng(seed);
  std::vector<std::future<Result<serving::QueryResponse>>> futures;
  futures.reserve(total);
  Timer wall;
  double interval_s = 1.0 / offered_qps;
  for (size_t i = 0; i < total; ++i) {
    serving::QueryRequest request;
    request.query = queries[zipf.Sample(&rng)];
    futures.push_back(engine.SubmitQuery(std::move(request)));
    double next_at = static_cast<double>(i + 1) * interval_s;
    double sleep_s = next_at - wall.ElapsedSeconds();
    if (sleep_s > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
    }
  }
  for (auto& f : futures) (void)f.get();
  return Summarize(engine.metrics(), total, wall.ElapsedSeconds());
}

void PrintRow(const char* label, const RunResult& r) {
  std::printf("%-22s %8llu %8llu %6llu %9.1f %9.3f %9.3f %9.3f %7.1f%%\n",
              label, static_cast<unsigned long long>(r.issued),
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.shed), r.qps, r.p50_ms,
              r.p95_ms, r.p99_ms, 100.0 * r.hit_rate);
}

/// Publishes one run's results into the bench-local registry as
/// bench.serving.<field>{run="<label>"} gauges.
void PublishRun(obs::MetricsRegistry& registry, const char* label,
                const RunResult& r) {
  const obs::Labels run{{"run", label}};
  registry.GetGauge("bench.serving.issued", run)
      ->Set(static_cast<double>(r.issued));
  registry.GetGauge("bench.serving.ok", run)->Set(static_cast<double>(r.ok));
  registry.GetGauge("bench.serving.shed", run)
      ->Set(static_cast<double>(r.shed));
  registry.GetGauge("bench.serving.errors", run)
      ->Set(static_cast<double>(r.errors));
  registry.GetGauge("bench.serving.wall_seconds", run)->Set(r.wall_seconds);
  registry.GetGauge("bench.serving.qps", run)->Set(r.qps);
  registry.GetGauge("bench.serving.p50_ms", run)->Set(r.p50_ms);
  registry.GetGauge("bench.serving.p95_ms", run)->Set(r.p95_ms);
  registry.GetGauge("bench.serving.p99_ms", run)->Set(r.p99_ms);
  registry.GetGauge("bench.serving.hit_rate", run)->Set(r.hit_rate);
}

/// Closed loop through a ClusterRouter (the --shards=N mode): identical
/// client model to the engine overload, so the two sides of the A/B see
/// the same traffic.
RunResult RunClosedLoop(cluster::ClusterRouter& router,
                        const std::vector<std::string>& queries,
                        const ZipfSampler& zipf, size_t threads,
                        size_t per_thread, uint64_t seed) {
  router.mutable_metrics()->Reset();
  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(seed + t);
      for (size_t i = 0; i < per_thread; ++i) {
        serving::QueryRequest request;
        request.query = queries[zipf.Sample(&rng)];
        (void)router.Query(std::move(request));
      }
    });
  }
  for (auto& c : clients) c.join();
  return Summarize(router.metrics(), threads * per_thread,
                   wall.ElapsedSeconds());
}

/// The --shards=N mode: the same closed-loop workload, served through the
/// cluster front door over N in-process shards. Closed loop only — the
/// router serves on the caller's thread and the open-loop/scrape sections
/// are single-engine measurements by design.
int RunShardedMode(bench::ExperimentWorld& world,
                   const std::vector<std::string>& queries,
                   const ZipfSampler& zipf, uint32_t num_shards,
                   size_t closed_threads, size_t per_thread,
                   const std::string& json_path) {
  cluster::PartitionedCorpus partition =
      cluster::PartitionCorpus(world.corpus, num_shards);
  auto store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  std::vector<std::unique_ptr<serving::SnapshotManager>> managers;
  std::vector<std::unique_ptr<serving::ServingEngine>> engines;
  std::vector<std::unique_ptr<cluster::ShardTransport>> transports;
  for (uint32_t s = 0; s < num_shards; ++s) {
    managers.push_back(std::make_unique<serving::SnapshotManager>(
        partition.shards[s].get()));
    managers.back()->Publish(store);
    serving::ServingOptions engine_options;
    engine_options.num_threads = 2;
    engine_options.enable_cache = false;  // the router caches
    engine_options.enable_single_flight = false;
    engines.push_back(std::make_unique<serving::ServingEngine>(
        managers.back().get(), engine_options));
    transports.push_back(std::make_unique<cluster::InProcessShard>(
        "shard-" + std::to_string(s), engines.back().get()));
  }
  expert::ExpertDetector union_detector(&world.corpus);
  cluster::RouterOptions router_options;
  router_options.num_threads = num_shards + 2;
  cluster::ClusterRouter router(std::move(transports), &union_detector,
                                router_options);

  std::printf("path: sharded (%u in-process shards behind the router)\n",
              num_shards);
  std::printf("workload: %zu distinct queries, zipf s=1.05\n\n",
              queries.size());
  std::printf("%-22s %8s %8s %6s %9s %9s %9s %9s %8s\n", "run", "issued",
              "ok", "shed", "qps", "p50ms", "p95ms", "p99ms", "hit");

  router.InvalidateCache();
  RunResult closed_cold =
      RunClosedLoop(router, queries, zipf, closed_threads, per_thread, 71);
  PrintRow("closed-loop cold", closed_cold);
  RunResult closed_warm =
      RunClosedLoop(router, queries, zipf, closed_threads, per_thread, 72);
  PrintRow("closed-loop warm", closed_warm);

  obs::MetricsRegistry registry;
  registry.GetGauge("bench.serving.workload_queries")
      ->Set(static_cast<double>(queries.size()));
  registry.GetGauge("bench.serving.closed_threads")
      ->Set(static_cast<double>(closed_threads));
  registry.GetGauge("bench.serving.shards")
      ->Set(static_cast<double>(num_shards));
  PublishRun(registry, "closed_cold", closed_cold);
  PublishRun(registry, "closed_warm", closed_warm);
  Status written = registry.WriteJsonFile(json_path);
  if (!written.ok()) {
    ESHARP_LOG(WARN) << "could not write " << json_path << ": "
                     << written.ToString();
  } else {
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool reference = false;
  uint32_t shards = 0;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--reference") == 0) {
      reference = true;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<uint32_t>(std::strtoul(argv[i] + 9, nullptr, 10));
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (json_path.empty()) {
    json_path = shards > 0 ? "BENCH_serving_sharded.json"
                           : "BENCH_serving.json";
  }
  size_t closed_threads =
      positional.size() > 0 ? std::strtoul(positional[0], nullptr, 10) : 4;
  size_t per_thread =
      positional.size() > 1 ? std::strtoul(positional[1], nullptr, 10) : 250;
  double open_qps =
      positional.size() > 2 ? std::strtod(positional[2], nullptr) : 200.0;

  bench::PrintHeader("Serving layer: Zipf workload replay");
  bench::WorldOptions world_options;
  world_options.scale = bench::WorldScale::kSmall;
  auto world = bench::BuildWorld(world_options);

  std::vector<std::string> queries = WorkloadQueries(world->generated.log);
  if (queries.empty()) {
    ESHARP_LOG(ERROR) << "empty workload: no query survived the log's "
                         "min-count filter";
    return 1;
  }
  // Web query popularity is famously Zipfian; s=1.05 matches the log
  // generator's own domain skew.
  ZipfSampler zipf(queries.size(), 1.05);

  if (shards > 0) {
    return RunShardedMode(*world, queries, zipf, shards, closed_threads,
                          per_thread, json_path);
  }

  serving::SnapshotManager manager(&world->corpus);
  manager.Publish(
      std::make_shared<const community::CommunityStore>(
          world->artifacts.store),
      {},
      reference ? std::make_shared<const expert::TermEvidenceIndex>()
                : nullptr);

  serving::ServingOptions serving_options;
  serving_options.num_threads = world_options.threads;
  serving_options.max_in_flight = 256;
  serving_options.cache.ttl_seconds = 3600;  // TTL out of the way; this
                                             // bench isolates cache effects
  serving::ServingEngine engine(&manager, serving_options);
  if (reference) std::printf("path: reference (empty evidence index)\n");

  std::printf("workload: %zu distinct queries, zipf s=1.05\n",
              queries.size());
  std::printf("engine: %zu workers, %zu max in flight, cache %zux%zu\n\n",
              serving_options.num_threads, serving_options.max_in_flight,
              engine.options().cache.shards,
              engine.options().cache.capacity_per_shard);
  std::printf("%-22s %8s %8s %6s %9s %9s %9s %9s %8s\n", "run", "issued",
              "ok", "shed", "qps", "p50ms", "p95ms", "p99ms", "hit");

  // Closed loop, cold then warm: same engine, cache invalidated between
  // nothing — the first pass fills the cache, the second replays over it.
  engine.InvalidateCache();
  RunResult closed_cold = RunClosedLoop(engine, queries, zipf,
                                        closed_threads, per_thread, 71);
  PrintRow("closed-loop cold", closed_cold);
  RunResult closed_warm = RunClosedLoop(engine, queries, zipf,
                                        closed_threads, per_thread, 72);
  PrintRow("closed-loop warm", closed_warm);

  // Open loop at the requested offered rate, cold then warm.
  size_t open_total = closed_threads * per_thread;
  engine.InvalidateCache();
  RunResult open_cold =
      RunOpenLoop(engine, queries, zipf, open_qps, open_total, 73);
  PrintRow("open-loop cold", open_cold);
  RunResult open_warm =
      RunOpenLoop(engine, queries, zipf, open_qps, open_total, 74);
  PrintRow("open-loop warm", open_warm);

  // ---- Scrape overhead: observation must stay off the hot path. -----------
  // Re-run the warm closed loop with the debugz server up, alternating
  // bare passes and passes with a client scraping /metrics at 1 Hz. The
  // scrape walks the whole registry on a debugz worker thread; the budget
  // says the serving threads must not notice (<2% qps regression). Two
  // precautions against measuring noise instead of the scrape: each pass
  // is scaled (from the measured warm qps) to last ~1.5 s, well past the
  // scrape period, and the A/B passes interleave so machine drift hits
  // both sides equally.
  // Calibrate the pass length against the engine as it is NOW (fully warm —
  // estimates from the earlier, cooler passes run several times too fast):
  // grow until one pass takes >= 0.75 s, then target ~1.5 s.
  size_t scrape_per_thread = per_thread;
  for (int tries = 0; tries < 6; ++tries) {
    RunResult calib = RunClosedLoop(engine, queries, zipf, closed_threads,
                                    scrape_per_thread, 70);
    if (calib.wall_seconds >= 0.75 || scrape_per_thread >= 2000000) break;
    double grow = 1.5 / std::max(calib.wall_seconds, 1e-3);
    scrape_per_thread = std::min<size_t>(
        2000000,
        static_cast<size_t>(
            static_cast<double>(scrape_per_thread) * std::min(grow, 16.0)) +
            1);
  }
  obs::DebugServer debug_server;  // ephemeral port
  serving::MountServingEndpoints(&debug_server, &engine);
  Status debug_started = debug_server.Start();
  std::atomic<bool> stop_scraper{false};
  std::atomic<bool> scraping{false};  // gates the on/off passes
  uint64_t scrapes = 0;
  std::thread scraper([&] {
    while (!stop_scraper.load(std::memory_order_acquire)) {
      bool active = scraping.load(std::memory_order_acquire);
      if (active) {
        auto scrape =
            obs::HttpGet("127.0.0.1", debug_server.port(), "/metrics", 2.0);
        if (scrape.ok() && scrape->status == 200) ++scrapes;
      }
      for (int i = 0; i < 10 && !stop_scraper.load(std::memory_order_acquire);
           ++i) {
        // Wake early when an on-pass starts so even a short pass is scraped.
        if (!active && scraping.load(std::memory_order_acquire)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
  });
  // Best pass per side: on a small (even single-core) machine scheduler
  // jitter between 1.5 s passes is far larger than the effect under test,
  // and it is symmetric — the fastest pass on each side is the run the
  // scheduler left alone, so their ratio isolates the scrape cost.
  constexpr int kScrapePairs = 3;
  RunResult scrape_off, scrape_on;
  double off_best = 0, on_best = 0;
  for (int pair = 0; pair < kScrapePairs; ++pair) {
    scraping.store(false, std::memory_order_release);
    RunResult off = RunClosedLoop(engine, queries, zipf, closed_threads,
                                  scrape_per_thread, 75 + 2 * pair);
    if (off.qps > off_best) {
      off_best = off.qps;
      scrape_off = off;
    }
    scraping.store(true, std::memory_order_release);
    RunResult on = RunClosedLoop(engine, queries, zipf, closed_threads,
                                 scrape_per_thread, 76 + 2 * pair);
    if (on.qps > on_best) {
      on_best = on.qps;
      scrape_on = on;
    }
  }
  stop_scraper.store(true, std::memory_order_release);
  scraper.join();
  debug_server.Stop();
  double scrape_overhead_pct =
      scrape_off.qps > 0
          ? 100.0 * (scrape_off.qps - scrape_on.qps) / scrape_off.qps
          : 0;
  PrintRow("warm, no scraper", scrape_off);
  PrintRow("warm, 1Hz /metrics", scrape_on);
  std::printf("\nscrape overhead: %.1f%% qps (budget < 2%%; %llu scrapes%s)\n",
              scrape_overhead_pct, static_cast<unsigned long long>(scrapes),
              debug_started.ok() ? "" : "; debugz failed to start");

  double speedup = closed_warm.qps > 0 && closed_cold.qps > 0
                       ? closed_warm.qps / closed_cold.qps
                       : 0;
  std::printf("\nwarm/cold closed-loop throughput: %.2fx\n", speedup);
  std::printf("\nengine metrics after the final run:\n%s",
              engine.metrics().ToTable().c_str());

  // Machine-readable snapshot: a bench-local registry (so the engine's own
  // global serving.* instruments do not leak into the file).
  obs::MetricsRegistry registry;
  registry.GetGauge("bench.serving.workload_queries")
      ->Set(static_cast<double>(queries.size()));
  registry.GetGauge("bench.serving.closed_threads")
      ->Set(static_cast<double>(closed_threads));
  registry.GetGauge("bench.serving.offered_qps")->Set(open_qps);
  registry.GetGauge("bench.serving.warm_cold_speedup")->Set(speedup);
  registry.GetGauge("bench.serving.scrape_off_qps")->Set(scrape_off.qps);
  registry.GetGauge("bench.serving.scrape_on_qps")->Set(scrape_on.qps);
  registry.GetGauge("bench.serving.scrape_overhead_pct")
      ->Set(scrape_overhead_pct);
  registry.GetGauge("bench.serving.scrape_count")
      ->Set(static_cast<double>(scrapes));
  PublishRun(registry, "closed_cold", closed_cold);
  PublishRun(registry, "closed_warm", closed_warm);
  PublishRun(registry, "open_cold", open_cold);
  PublishRun(registry, "open_warm", open_warm);
  PublishRun(registry, "scrape_off", scrape_off);
  PublishRun(registry, "scrape_on", scrape_on);
  Status written = registry.WriteJsonFile(json_path);
  if (!written.ok()) {
    ESHARP_LOG(WARN) << "could not write " << json_path << ": "
                     << written.ToString();
  } else {
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
