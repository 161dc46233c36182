// Serving demo: the e# online stage as a live, concurrent service.
//
//  1. Build a world (universe, query log, tweet corpus) and run the offline
//     pipeline — week 1's artifacts.
//  2. Publish them to a SnapshotManager and start a ServingEngine.
//  3. Fire mixed traffic at the engine from client threads: repeated hot
//     queries (cache hits), scattered tail queries (misses), an unknown
//     query (baseline degradation).
//  4. Mid-traffic, run the weekly refresh (warm-started offline pipeline,
//     §6.3) and hot-swap the store under the live load.
//  5. Print the serving metrics dashboard, the whole-process metrics
//     registry, and an EXPLAIN ANALYZE tree for one SQL-backend clustering
//     iteration.
//
// Build and run:
//   cmake -B build && cmake --build build -j
//   ./build/examples/serving_demo --metrics_json=/tmp/m.json --trace=/tmp/trace.json
//
// --metrics_json writes a JSON snapshot of every metric in the process;
// --trace writes a Chrome about:tracing / Perfetto-loadable trace covering
// both the served requests (request -> admission/cache/expand/detect/rank)
// and the weekly refresh (offline_pipeline -> extract/cluster/index with
// per-iteration modularity annotations).
//
// --port=N starts the embedded debugz server alongside the traffic (0 picks
// an ephemeral port) and self-scrapes /metrics and /readyz mid-swap to show
// the endpoints answering concurrently with serving. --serve_seconds=S keeps
// the process (and a trickle of traffic) alive afterwards so you can curl:
//   ./build/examples/serving_demo --port=8080 --serve_seconds=60 &
//   curl localhost:8080/statusz
//   curl localhost:8080/metrics
//   curl localhost:8080/tracez
//   curl localhost:8080/queryz

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "esharp/pipeline.h"
#include "microblog/generator.h"
#include "obs/debugz.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "querylog/generator.h"
#include "serving/engine.h"
#include "serving/introspect.h"

using namespace esharp;

int main(int argc, char** argv) {
  std::string metrics_json_path, trace_path;
  int port = -1;  // < 0: debugz server disabled
  double serve_seconds = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics_json=", 15) == 0) {
      metrics_json_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--port=", 7) == 0) {
      port = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--serve_seconds=", 16) == 0) {
      serve_seconds = std::atof(argv[i] + 16);
    }
  }

  obs::Tracer tracer;

  // ---- 1. Week 1: simulate inputs and run the offline pipeline ------------
  querylog::UniverseOptions universe_options;
  universe_options.num_categories = 3;
  universe_options.domains_per_category = 12;
  universe_options.seed = 11;
  auto universe = querylog::TopicUniverse::Generate(universe_options);
  if (!universe.ok()) return 1;

  querylog::GeneratorOptions log_options;
  log_options.seed = 12;
  log_options.head_impressions = 30000;
  auto week1 = GenerateQueryLog(*universe, log_options);
  if (!week1.ok()) return 1;

  core::OfflineOptions offline_options;
  offline_options.extraction.min_similarity = 0.15;
  offline_options.tracer = &tracer;
  auto artifacts = RunOfflinePipeline(week1->log, offline_options);
  if (!artifacts.ok()) return 1;

  microblog::CorpusOptions corpus_options;
  corpus_options.seed = 13;
  corpus_options.casual_users = 300;
  auto corpus = GenerateCorpus(*universe, corpus_options);
  if (!corpus.ok()) return 1;

  std::printf("offline week 1: %zu queries -> %zu communities\n",
              artifacts->similarity_graph.num_vertices(),
              artifacts->store.num_communities());

  // ---- 2. Publish week 1 and start serving --------------------------------
  serving::SnapshotManager manager(&*corpus);
  uint64_t v1 = manager.Publish(std::make_shared<const community::CommunityStore>(
      artifacts->store));
  std::printf("published snapshot v%llu\n\n",
              static_cast<unsigned long long>(v1));

  serving::ServingOptions serving_options;
  serving_options.num_threads = 4;
  serving_options.max_in_flight = 128;
  serving_options.tracer = &tracer;
  serving::ServingEngine engine(&manager, serving_options);

  // ---- 2b. The debugz server, watching the engine it shares a process with.
  // Declared after the engine so they tear down in the safe order: the
  // watchdog and server capture `&engine` and must stop first.
  std::unique_ptr<obs::SloWatchdog> watchdog;
  std::unique_ptr<obs::DebugServer> server;
  if (port >= 0) {
    watchdog = std::make_unique<obs::SloWatchdog>();
    for (obs::SloObjective& objective :
         serving::DefaultServingObjectives(&engine)) {
      watchdog->AddObjective(std::move(objective));
    }
    watchdog->Start(/*period_seconds=*/0.5);

    obs::DebugServerOptions server_options;
    server_options.port = port;
    server = std::make_unique<obs::DebugServer>(server_options);
    serving::ServingIntrospectionOptions wiring;
    wiring.build_info = "serving_demo (e# reproduction)";
    wiring.tracer = &tracer;
    wiring.watchdog = watchdog.get();
    serving::MountServingEndpoints(server.get(), &engine, wiring);
    Status started = server->Start();
    if (!started.ok()) {
      std::printf("debugz: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("debugz serving on http://127.0.0.1:%d — try:\n", server->port());
    std::printf("  curl localhost:%d/statusz\n", server->port());
    std::printf("  curl localhost:%d/metrics\n", server->port());
    std::printf("  curl localhost:%d/tracez\n", server->port());
    std::printf("  curl localhost:%d/queryz\n\n", server->port());
  }

  // ---- 3. Mixed traffic from client threads -------------------------------
  // Hot queries: the head terms of the first few domains (cache-friendly).
  // Cold queries: one term per remaining domain (mostly misses). Plus an
  // unknown query that degrades to the plain baseline.
  std::vector<std::string> hot, cold;
  for (size_t d = 0; d < universe->domains().size(); ++d) {
    const querylog::TopicDomain& dom = universe->domain(d);
    (d < 4 ? hot : cold).push_back(dom.terms[0]);
  }

  auto client = [&engine](const std::vector<std::string>& queries,
                          size_t rounds) {
    for (size_t r = 0; r < rounds; ++r) {
      for (const std::string& q : queries) {
        auto response = engine.Query({q});
        (void)response;
      }
    }
  };

  std::thread hot_client(client, hot, 25);
  std::thread cold_client(client, cold, 5);
  std::thread misc_client([&engine] {
    for (int i = 0; i < 20; ++i) {
      (void)engine.Query({"completely unknown query zz"});
    }
  });

  // ---- 4. The weekly refresh hot-swaps mid-traffic ------------------------
  // Week 2 re-runs the offline pipeline warm-started from week 1's
  // communities (§6.3) and republishes — while the clients above keep
  // querying. Readers in flight finish against week 1; new requests see
  // week 2; stale cache entries are invalidated by version. The refresh
  // shares the demo's tracer, so the trace file shows the offline job
  // overlapping the served requests.
  log_options.seed = 14;  // next week's log differs
  auto week2 = GenerateQueryLog(*universe, log_options);
  if (!week2.ok()) return 1;
  offline_options.previous_store = &artifacts->store;
  auto refreshed = RunOfflinePipeline(week2->log, offline_options);
  if (!refreshed.ok()) return 1;
  uint64_t v2 = manager.Publish(std::make_shared<const community::CommunityStore>(
      refreshed->store));
  std::printf("hot-swapped to snapshot v%llu mid-traffic (%zu communities)\n",
              static_cast<unsigned long long>(v2),
              refreshed->store.num_communities());

  // Self-scrape while the clients are still firing: the debug endpoints
  // answer concurrently with live traffic and the swap we just did.
  if (server != nullptr) {
    auto metrics = obs::HttpGet("127.0.0.1", server->port(), "/metrics");
    auto ready = obs::HttpGet("127.0.0.1", server->port(), "/readyz");
    if (metrics.ok() && ready.ok()) {
      std::printf(
          "mid-traffic self-scrape: /metrics %d (%zu bytes), /readyz %d (%s)\n",
          metrics->status, metrics->body.size(), ready->status,
          ready->body.substr(0, ready->body.find('\n')).c_str());
    }
  }

  hot_client.join();
  cold_client.join();
  misc_client.join();

  // A post-swap query answers from the new generation.
  auto post = engine.Query({hot[0], /*deadline_ms=*/0, /*bypass_cache=*/true});
  if (post.ok()) {
    std::printf("post-swap query '%s': %zu experts from snapshot v%llu\n\n",
                hot[0].c_str(), post->experts.size(),
                static_cast<unsigned long long>(post->snapshot_version));
  }

  // ---- 5. The dashboards --------------------------------------------------
  std::printf("serving metrics:\n%s", engine.metrics().ToTable().c_str());
  serving::CacheStats cache = engine.cache_stats();
  std::printf("cache: %llu hits, %llu misses, %llu invalidated/expired\n\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.expirations));

  // EXPLAIN ANALYZE: rerun clustering through the SQL engine backend with
  // profiling on — the per-operator tree of Fig. 4's main statement, with
  // exact row counts (the paper's deployment story made diagnosable).
  core::OfflineOptions sql_options;
  sql_options.extraction.min_similarity = 0.15;
  sql_options.backend = core::ClusteringBackend::kSqlEngine;
  sql_options.max_iterations = 3;
  sql::ExplainStats explain;
  sql_options.explain = &explain;
  auto sql_run = RunOfflinePipeline(week1->log, sql_options);
  if (sql_run.ok() && explain.NodeCount() > 0) {
    std::printf("EXPLAIN ANALYZE (SQL backend, clustering iteration 0):\n%s\n",
                explain.ToString().c_str());
  }

  // One pane of glass: every instrument in the process, Prometheus-style.
  std::printf("process metrics registry:\n%s", obs::DumpAll().c_str());

  if (!metrics_json_path.empty()) {
    Status s = obs::MetricsRegistry::Global().WriteJsonFile(metrics_json_path);
    std::printf("%s\n", s.ok() ? ("wrote " + metrics_json_path).c_str()
                               : s.ToString().c_str());
  }
  if (!trace_path.empty()) {
    Status s = tracer.WriteChromeJsonFile(trace_path);
    std::printf("%s\n", s.ok() ? ("wrote " + trace_path).c_str()
                               : s.ToString().c_str());
  }

  // ---- 6. Linger for curl -------------------------------------------------
  // With --serve_seconds the process stays up, trickling one query per 100ms
  // so /tracez, /statusz and the SLO table have live data to show.
  if (server != nullptr && serve_seconds > 0) {
    std::printf("serving debug endpoints for %.0fs (ctrl-c to stop early)\n",
                serve_seconds);
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(serve_seconds));
    size_t i = 0;
    while (std::chrono::steady_clock::now() < until) {
      (void)engine.Query({hot[i++ % hot.size()]});
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  return 0;
}
