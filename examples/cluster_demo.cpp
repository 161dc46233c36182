// Cluster demo: the e# serving tier sharded behind a scatter-gather router.
//
//  1. Build a world and run the offline pipeline (as in serving_demo).
//  2. Partition the tweet corpus across 4 shard engines — each a full
//     ServingEngine over its slice, with its own snapshot + evidence index.
//  3. Route traffic through a ClusterRouter: per-query scatter to every
//     shard, evidence merge, one rank step over the union corpus.
//     The answer is bit-identical to an unsharded engine (checked live).
//  4. Kill one shard mid-traffic: queries keep succeeding as degraded
//     partial answers (shards_answered/N annotation), the health tracker
//     marks the shard down, and /readyz drops to degraded-quorum detail.
//  5. Revive the shard and print the shard table + router metrics.
//
// Build and run:
//   cmake -B build && cmake --build build -j
//   ./build/examples/cluster_demo [--port=N] [--trace_out=PATH]
//
// --port=N additionally mounts the cluster debug endpoints (0 picks an
// ephemeral port):
//   curl localhost:N/statusz   # cluster summary + per-shard table
//   curl localhost:N/readyz    # quorum readiness
//   curl localhost:N/queryz    # slow-query log; ?trace=<id> = Chrome trace
//
// --trace_out=PATH dumps the slowest profiled query's stitched Chrome
// trace (one lane per shard, hedges and deadline attribution included) to
// PATH — load it in chrome://tracing or ui.perfetto.dev. With the outage
// below, the slowest query is usually one that lost shard-2.
//
// --incident_dir=PATH arms the full incident stack against the outage: a
// time-series sampler over the global registry, an SLO watchdog with
// demo-tight windows, and a flight recorder triggered both by the
// shard-down health transition and by the SLO breach. The demo then
// *asserts* on its own black box — a bundle landed, it names the dead
// shard, and its time series show the dead shard's completion rate
// dipping through the outage and recovering after revival — and exits
// non-zero if any of that is missing.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/introspect.h"
#include "cluster/partition.h"
#include "common/file_io.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "esharp/pipeline.h"
#include "expert/detector.h"
#include "microblog/generator.h"
#include "obs/debugz.h"
#include "obs/flightrecorder.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "querylog/generator.h"
#include "serving/engine.h"

using namespace esharp;

namespace {

/// Demo transport: an in-process shard with a kill switch, so "a shard
/// process died" is one atomic store.
class KillableShard final : public cluster::ShardTransport {
 public:
  KillableShard(std::string name, serving::ServingEngine* engine)
      : name_(std::move(name)), inner_(name_, engine) {}

  const std::string& name() const override { return name_; }

  Result<cluster::ShardEvidence> Collect(
      const cluster::ShardRequest& request) override {
    if (dead_.load(std::memory_order_relaxed)) {
      return Status::Unavailable(name_, " is down");
    }
    return inner_.Collect(request);
  }

  uint64_t VersionHint() const override { return inner_.VersionHint(); }

  void set_dead(bool dead) {
    dead_.store(dead, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  cluster::InProcessShard inner_;
  std::atomic<bool> dead_{false};
};

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  std::string trace_out;
  std::string incident_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--port=", 7) == 0) port = std::atoi(argv[i] + 7);
    if (std::strncmp(argv[i], "--trace_out=", 12) == 0) trace_out = argv[i] + 12;
    if (std::strncmp(argv[i], "--incident_dir=", 15) == 0) {
      incident_dir = argv[i] + 15;
    }
  }
  constexpr uint32_t kShards = 4;

  // ---- 1. Offline world ----------------------------------------------------
  querylog::UniverseOptions universe_options;
  universe_options.num_categories = 3;
  universe_options.domains_per_category = 10;
  universe_options.seed = 21;
  auto universe = querylog::TopicUniverse::Generate(universe_options);
  if (!universe.ok()) return 1;

  querylog::GeneratorOptions log_options;
  log_options.seed = 22;
  log_options.head_impressions = 25000;
  auto log = GenerateQueryLog(*universe, log_options);
  if (!log.ok()) return 1;

  core::OfflineOptions offline_options;
  offline_options.extraction.min_similarity = 0.15;
  auto artifacts = RunOfflinePipeline(log->log, offline_options);
  if (!artifacts.ok()) return 1;

  microblog::CorpusOptions corpus_options;
  corpus_options.seed = 23;
  corpus_options.casual_users = 300;
  auto corpus = GenerateCorpus(*universe, corpus_options);
  if (!corpus.ok()) return 1;

  // ---- 2. Partition + per-shard engines ------------------------------------
  cluster::PartitionedCorpus partition =
      cluster::PartitionCorpus(*corpus, kShards);
  auto store =
      std::make_shared<const community::CommunityStore>(artifacts->store);
  std::vector<std::unique_ptr<serving::SnapshotManager>> managers;
  std::vector<std::unique_ptr<serving::ServingEngine>> engines;
  std::vector<std::unique_ptr<cluster::ShardTransport>> transports;
  std::vector<KillableShard*> switches;
  for (uint32_t s = 0; s < kShards; ++s) {
    managers.push_back(std::make_unique<serving::SnapshotManager>(
        partition.shards[s].get()));
    managers.back()->Publish(store);
    serving::ServingOptions engine_options;
    engine_options.num_threads = 2;
    engine_options.enable_cache = false;  // the router caches final answers
    engine_options.enable_single_flight = false;
    engines.push_back(std::make_unique<serving::ServingEngine>(
        managers.back().get(), engine_options));
    auto shard = std::make_unique<KillableShard>("shard-" + std::to_string(s),
                                                 engines.back().get());
    switches.push_back(shard.get());
    transports.push_back(std::move(shard));
    std::printf("shard-%u: %zu tweets, snapshot v%llu\n", s,
                partition.shards[s]->num_tweets(),
                static_cast<unsigned long long>(
                    engines.back()->snapshot_version()));
  }

  // ---- 3. The router + an unsharded twin for the equivalence check ---------
  expert::ExpertDetector union_detector(&*corpus);
  cluster::RouterOptions router_options;
  router_options.num_threads = kShards + 2;
  // Cache off for the demo: every query scatters, so the outage below is
  // visible in the degraded counts and the health tracker (cached answers
  // never touch a shard and would mask the dead one).
  router_options.enable_cache = false;
  // The flight recorder is constructed after the router (it snapshots the
  // router's shard table), so the transition hook reaches it through a
  // slot filled in once both exist.
  auto recorder_slot =
      std::make_shared<std::atomic<obs::FlightRecorder*>>(nullptr);
  if (!incident_dir.empty()) {
    router_options.on_shard_transition =
        [recorder_slot](const cluster::ShardStatus& status,
                        cluster::ShardState /*previous*/) {
          obs::FlightRecorder* recorder = recorder_slot->load();
          if (recorder != nullptr &&
              status.state == cluster::ShardState::kDown) {
            (void)recorder->Trigger("shard_down:" + status.name,
                                    status.last_error);
          }
        };
  }
  cluster::ClusterRouter router(std::move(transports), &union_detector,
                                router_options);

  // ---- Incident stack (--incident_dir) -------------------------------------
  // Sampler at 20 Hz (the demo lives ~1 s; production would use the 1 Hz
  // default), watchdog with windows tightened to demo scale, recorder
  // armed on both the shard-down transition above and the SLO breach.
  std::unique_ptr<obs::TimeSeriesStore> sampler;
  std::unique_ptr<obs::SloWatchdog> watchdog;
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!incident_dir.empty()) {
    obs::TimeSeriesOptions sampler_options;
    sampler_options.capacity = 4096;
    sampler = std::make_unique<obs::TimeSeriesStore>(sampler_options);
    sampler->Start(0.05);

    cluster::ClusterSloThresholds thresholds;
    thresholds.shard_down_ratio = 0.1;  // one dead shard of 4 = breach
    watchdog = std::make_unique<obs::SloWatchdog>();
    for (obs::SloObjective& objective :
         cluster::DefaultClusterObjectives(&router, thresholds)) {
      objective.short_window_seconds = 0.3;
      objective.long_window_seconds = 0.6;
      objective.burn_threshold = 1.0;
      watchdog->AddObjective(std::move(objective));
    }

    obs::FlightRecorderOptions recorder_options;
    recorder_options.dir = incident_dir;
    recorder_options.min_interval_seconds = 0;  // demo: keep every trigger
    recorder_options.window_seconds = 60;
    recorder_options.timeseries = sampler.get();
    recorder_options.slow_queries = &router.slow_queries();
    recorder_options.statusz = [&router]() {
      return router.health().RenderTable();
    };
    recorder = std::make_unique<obs::FlightRecorder>(recorder_options);
    recorder_slot->store(recorder.get());
    watchdog->AddAlertCallback(recorder->SloAlertHook());
    watchdog->Start(0.05);
    std::printf("incident stack armed: bundles land in %s\n",
                incident_dir.c_str());
  }

  serving::SnapshotManager reference_manager(&*corpus);
  reference_manager.Publish(store);
  serving::ServingOptions reference_options;
  reference_options.num_threads = 2;
  reference_options.enable_cache = false;
  reference_options.enable_single_flight = false;
  serving::ServingEngine reference(&reference_manager, reference_options);

  std::unique_ptr<obs::DebugServer> server;
  if (port >= 0) {
    obs::DebugServerOptions server_options;
    server_options.port = port;
    server = std::make_unique<obs::DebugServer>(server_options);
    cluster::ClusterIntrospectionOptions wiring;
    wiring.build_info = "cluster_demo (e# reproduction)";
    wiring.timeseries = sampler.get();  // mounts /graphz when armed
    wiring.recorder = recorder.get();   // mounts /incidentz when armed
    cluster::MountClusterEndpoints(server.get(), &router, wiring);
    if (!server->Start().ok()) return 1;
    std::printf(
        "\ndebugz on http://127.0.0.1:%d (/statusz, /readyz, /queryz)\n",
        server->port());
  }

  std::vector<std::string> queries;
  for (const querylog::TopicDomain& dom : universe->domains()) {
    queries.push_back(dom.terms[0]);
  }

  size_t checked = 0, identical = 0;
  for (size_t i = 0; i < 8 && i < queries.size(); ++i) {
    auto routed = router.Query({queries[i]});
    auto direct = reference.Query({queries[i]});
    if (!routed.ok() || !direct.ok()) continue;
    ++checked;
    bool same = routed->experts.size() == direct->experts.size();
    for (size_t e = 0; same && e < routed->experts.size(); ++e) {
      same = routed->experts[e].user == direct->experts[e].user &&
             routed->experts[e].score == direct->experts[e].score;
    }
    identical += same;
  }
  std::printf("\nrank equivalence: %zu/%zu sampled queries bit-identical "
              "to the unsharded engine\n\n",
              identical, checked);

  // ---- 4. Kill shard-2 mid-traffic -----------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_count{0}, degraded_count{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      size_t i = t;
      while (!stop.load(std::memory_order_acquire)) {
        auto response = router.Query({queries[i++ % queries.size()]});
        if (response.ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
          if (response->degraded)
            degraded_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::printf("killing shard-2 under live traffic...\n");
  [[maybe_unused]] const double kill_t = obs::NowSeconds();
  switches[2]->set_dead(true);
  // With the incident stack armed the outage must outlast the watchdog's
  // long burn window (0.6 s) so the SLO breach fires, not just the
  // health transition.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(incident_dir.empty() ? 300 : 900));

  auto degraded = router.Query({queries[0], /*deadline_ms=*/0,
                                /*bypass_cache=*/true});
  if (degraded.ok()) {
    std::printf("degraded answer: %zu experts from %zu/%zu shards "
                "(degraded=%s)\n",
                degraded->experts.size(), degraded->shards_answered,
                degraded->shards_total, degraded->degraded ? "yes" : "no");
  }
  obs::ProbeResult quorum = cluster::ClusterQuorumReadiness(&router)();
  std::printf("readyz: %s (%s)\n", quorum.ok ? "ok" : "NOT READY",
              quorum.detail.c_str());

  std::printf("\nreviving shard-2...\n");
  [[maybe_unused]] const double revive_t = obs::NowSeconds();
  switches[2]->set_dead(false);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(incident_dir.empty() ? 150 : 400));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  auto healed = router.Query({queries[0], /*deadline_ms=*/0,
                              /*bypass_cache=*/true});
  if (healed.ok()) {
    std::printf("healed answer: %zu/%zu shards, degraded=%s\n",
                healed->shards_answered, healed->shards_total,
                healed->degraded ? "yes" : "no");
  }

  // ---- 5. Dashboards -------------------------------------------------------
  std::printf("\n%llu queries served, %llu degraded during the outage\n\n",
              static_cast<unsigned long long>(ok_count.load()),
              static_cast<unsigned long long>(degraded_count.load()));
  std::printf("shard table:\n%s\n", router.health().RenderTable().c_str());
  std::printf("router metrics:\n%s", router.metrics().ToTable().c_str());

  // The slow-query log saw every scattered query above; dump the slowest
  // one's stitched per-shard trace on request.
  std::vector<std::shared_ptr<const obs::QueryProfile>> slowest =
      router.slow_queries().TopK();
  std::printf("\nslow-query log: %llu profiled, slowest %.3f ms\n",
              static_cast<unsigned long long>(router.slow_queries().recorded()),
              slowest.empty() ? 0.0 : slowest.front()->total_ms);
  if (!trace_out.empty() && !slowest.empty()) {
    const obs::QueryProfile& slow = *slowest.front();
    Status written = WriteStringToFile(trace_out, slow.ExportChromeJson());
    if (written.ok()) {
      std::printf("wrote Chrome trace of '%s' (trace %s, %.3f ms, %s) to "
                  "%s — load in chrome://tracing\n",
                  slow.query.c_str(), slow.trace.TraceIdHex().c_str(),
                  slow.total_ms, slow.outcome.c_str(), trace_out.c_str());
    } else {
      std::printf("could not write %s: %s\n", trace_out.c_str(),
                  written.ToString().c_str());
    }
  }
  // ---- 6. Incident validation ----------------------------------------------
  // The incident stack must have caught the outage on its own: at least
  // one bundle on disk, one naming the dead shard, and the sampler's
  // rings showing shard-2's engine completion rate collapsing through
  // the outage window and recovering after revival.
  int verdict = 0;
  if (!incident_dir.empty()) {
    watchdog->Stop();
    sampler->Stop();
#if !ESHARP_OBS_ENABLED
    std::printf("\nincident stack: built with -DESHARP_OBS_OFF=ON, "
                "nothing recorded (as designed); skipping validation\n");
#else
    std::vector<obs::IncidentBundleInfo> bundles = recorder->Bundles();
    std::printf("\nincident bundles (%zu):\n", bundles.size());
    std::string all_bundles;
    for (const obs::IncidentBundleInfo& bundle : bundles) {
      std::printf("  #%llu %-28s %6zu bytes  %s\n",
                  static_cast<unsigned long long>(bundle.sequence),
                  bundle.reason.c_str(), bundle.size_bytes,
                  bundle.path.c_str());
      auto content = ReadFileToString(bundle.path);
      if (content.ok()) all_bundles += *content;
    }
    if (bundles.empty()) {
      std::printf("FAIL: no incident bundle was written\n");
      verdict = 1;
    } else if (all_bundles.find("shard-2") == std::string::npos ||
               all_bundles.find("down") == std::string::npos) {
      std::printf("FAIL: no bundle names the dead shard's down transition\n");
      verdict = 1;
    }

    // The dip: among the per-engine completion-rate series, exactly the
    // dead shard's should be busy before the kill, near zero during the
    // outage, and busy again after revival. The retired reference engine
    // fails the recovery leg; the surviving shards never dip.
    std::string dip_series;
    for (const std::string& name : sampler->SeriesNames()) {
      if (name.rfind("serving.completed{", 0) != 0) continue;
      double max_before = 0, min_during = -1, max_after = 0;
      for (const obs::TimeSeriesPoint& point : sampler->Range(name)) {
        if (point.time_seconds < kill_t) {
          max_before = std::max(max_before, point.value);
        } else if (point.time_seconds > kill_t + 0.2 &&
                   point.time_seconds < revive_t) {
          min_during = min_during < 0 ? point.value
                                      : std::min(min_during, point.value);
        } else if (point.time_seconds > revive_t + 0.1) {
          max_after = std::max(max_after, point.value);
        }
      }
      if (max_before > 0 && min_during >= 0 &&
          min_during < 0.2 * max_before && max_after > 0.2 * max_before) {
        dip_series = name;
        std::printf("outage visible in %s: %.0f qps before, %.0f during, "
                    "%.0f after revival\n",
                    name.c_str(), max_before, min_during, max_after);
      }
    }
    // Series ids carry label quotes, which land JSON-escaped in the
    // bundle file; escape the needle the same way before searching.
    std::string dip_needle;
    for (char c : dip_series) {
      if (c == '"' || c == '\\') dip_needle += '\\';
      dip_needle += c;
    }
    if (dip_series.empty()) {
      std::printf("FAIL: no sampled series shows the dip-and-recover "
                  "signature of the killed shard\n");
      verdict = 1;
    } else if (all_bundles.find(dip_needle) == std::string::npos) {
      std::printf("FAIL: bundle time series do not include %s\n",
                  dip_series.c_str());
      verdict = 1;
    }
    if (verdict == 0) {
      std::printf("incident validation: PASS (%zu bundles, dip captured)\n",
                  bundles.size());
    }
#endif
  }
  if (server != nullptr) server->Stop();
  return verdict;
}
