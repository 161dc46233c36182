// Cold-start benchmark: the versioned binary snapshot (mmap + validate +
// memcpy-decode; serving/snapshot_file.h) against a full offline pipeline
// rebuild (parse the query log, build the similarity graph, cluster,
// index, collect per-term evidence) — the two ways a serving process can
// reach "answering queries" after a restart. The acceptance floor is a
// 10x load-vs-rebuild speedup on this corpus.
//
// Before any timing, an equivalence gate proves the cold-started engine
// answers the whole workload bit-identically to an engine over the
// pipeline-built artifacts; a speedup can never ship from a divergent
// load path.
//
// A second section times the common/simd.h kernels at full dispatch
// against their forced-scalar twins (same binary, ForceLevelForTest), so
// the committed baseline records what vectorization buys on this machine.
//
// Usage: cold_start [--iters=K] [--smoke] [--json=PATH] [--snapshot=PATH]
//
// Results are published as bench.coldstart.* / bench.simd.* gauges and
// written as a JSON snapshot (default BENCH_coldstart.json; schema in
// EXPERIMENTS.md).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "obs/obs.h"
#include "serving/engine.h"
#include "serving/snapshot.h"
#include "serving/snapshot_file.h"

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
  std::fprintf(stderr, "cold_start: %s\n", why.c_str());
  std::exit(1);
}

/// The equivalence workload: one representative term per community (the
/// multi-term ones fan expansion out widest) plus an out-of-vocabulary
/// probe.
std::vector<std::string> Workload(const community::CommunityStore& store,
                                  size_t limit) {
  std::vector<std::string> queries;
  for (const community::Community& c : store.communities()) {
    if (c.terms.empty()) continue;
    queries.push_back(c.terms.front());
    if (queries.size() >= limit) break;
  }
  queries.push_back("no such topic anywhere");
  return queries;
}

serving::ServingOptions EngineOptions() {
  serving::ServingOptions o;
  o.num_threads = 2;
  o.enable_cache = false;
  o.enable_single_flight = false;
  return o;
}

bool SameEvidence(const std::vector<expert::CandidateEvidence>& a,
                  const std::vector<expert::CandidateEvidence>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user || a[i].is_author != b[i].is_author ||
        a[i].is_mentioned != b[i].is_mentioned ||
        a[i].tweets_on_topic != b[i].tweets_on_topic ||
        a[i].mentions_on_topic != b[i].mentions_on_topic ||
        a[i].retweets_on_topic != b[i].retweets_on_topic ||
        a[i].conversational_on_topic != b[i].conversational_on_topic ||
        a[i].hashtag_on_topic != b[i].hashtag_on_topic) {
      return false;
    }
  }
  return true;
}

/// The gate: every workload query must come back identical from the
/// pipeline-built engine and the cold-started one.
void VerifyEquivalence(serving::SnapshotManager* built,
                       serving::SnapshotManager* cold,
                       const std::vector<std::string>& queries) {
  serving::ServingEngine built_engine(built, EngineOptions());
  serving::ServingEngine cold_engine(cold, EngineOptions());
  for (const std::string& q : queries) {
    serving::QueryRequest a, b;
    a.query = q;
    b.query = q;
    Result<serving::EvidenceResponse> ra =
        built_engine.QueryEvidence(std::move(a));
    Result<serving::EvidenceResponse> rb =
        cold_engine.QueryEvidence(std::move(b));
    if (ra.ok() != rb.ok()) {
      Fail("equivalence gate: '" + q + "' ok-status diverges");
    }
    if (!ra.ok()) continue;
    if (ra->terms != rb->terms || !SameEvidence(ra->evidence, rb->evidence)) {
      Fail("equivalence gate: '" + q + "' answers diverge after cold start");
    }
  }
}

/// Dispatch-vs-scalar wall ratio of one kernel loop. Forcing the scalar
/// level and restoring full dispatch around the measured closure keeps the
/// two runs inside one binary, one data set, one cache state.
double KernelSpeedup(size_t iters, const std::function<void()>& fn) {
  simd::ForceLevelForTest(simd::Level::kScalar);
  const double scalar_s = BestOf(iters, fn);
  simd::ForceLevelForTest(simd::DetectedLevel());
  const double dispatch_s = BestOf(iters, fn);
  return dispatch_s > 0 ? scalar_s / dispatch_s : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t iters = 5;
  bool smoke = false;
  std::string json_path = "BENCH_coldstart.json";
  std::string snapshot_path = "/tmp/esharp_bench_coldstart.esnap";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--snapshot=", 11) == 0) {
      snapshot_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::strtoul(argv[i] + 8, nullptr, 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (smoke) iters = std::min<size_t>(iters, 2);
  if (iters < 1) iters = 1;

  bench::PrintHeader("Cold start: mmap snapshot vs pipeline rebuild");
  bench::WorldOptions world_options;
  world_options.scale = bench::WorldScale::kSmall;
  auto world = bench::BuildWorld(world_options);
  const microblog::TweetCorpus& corpus = world->corpus;

  // The rebuild being raced: everything the snapshot file replaces —
  // re-indexing the tweet collection (tokenize, intern, postings, per-user
  // totals; GenerateCorpus is the reproduction's stand-in for re-reading
  // raw tweets) plus the offline pipeline over the same query log,
  // evidence index included. Same artifacts, two roads.
  microblog::CorpusOptions corpus_options;
  corpus_options.seed = 2016 + 2;  // BuildWorld's kSmall configuration
  corpus_options.casual_users = 200;
  corpus_options.spam_users = 20;
  corpus_options.mean_experts_per_domain = 5.0;
  corpus_options.expert_tweets_mean = 30;
  auto rebuild = [&]() -> core::OfflineArtifacts {
    Result<microblog::TweetCorpus> rebuilt_corpus =
        GenerateCorpus(world->universe, corpus_options);
    if (!rebuilt_corpus.ok()) {
      Fail("corpus rebuild: " + rebuilt_corpus.status().ToString());
    }
    core::OfflineOptions offline;
    offline.extraction.min_similarity = 0.15;
    offline.corpus = &*rebuilt_corpus;
    Result<core::OfflineArtifacts> r =
        core::RunOfflinePipeline(world->generated.log, offline);
    if (!r.ok()) Fail("pipeline rebuild: " + r.status().ToString());
    return std::move(r).MoveValueUnsafe();
  };
  core::OfflineArtifacts artifacts = rebuild();

  // Save once; both the gate and the load loop read this file.
  Status saved = serving::SaveSnapshotFile(
      snapshot_path, corpus, artifacts.store, artifacts.evidence_index.get());
  if (!saved.ok()) Fail("save: " + saved.ToString());

  // ---- Equivalence gate ---------------------------------------------------
  serving::SnapshotManager built(&corpus);
  built.Publish(artifacts.store, {}, artifacts.evidence_index);
  Result<serving::SnapshotManager::ColdStartArtifacts> cold =
      serving::SnapshotManager::LoadSnapshot(snapshot_path);
  if (!cold.ok()) Fail("load: " + cold.status().ToString());
  std::vector<std::string> queries = Workload(
      built.Acquire()->store(), smoke ? 8 : 64);
  VerifyEquivalence(&built, cold->manager.get(), queries);
  std::printf("equivalence gate: %zu queries bit-identical after cold "
              "start\n",
              queries.size());

  // ---- Timing -------------------------------------------------------------
  const double pipeline_s = BestOf(iters, [&] {
    core::OfflineArtifacts rebuilt = rebuild();
    g_sink = g_sink + rebuilt.store.communities().size();
  });
  const double load_s = BestOf(iters, [&] {
    Result<serving::SnapshotArtifacts> loaded =
        serving::LoadSnapshotFile(snapshot_path);
    if (!loaded.ok()) Fail("load loop: " + loaded.status().ToString());
    g_sink = g_sink + loaded->corpus->num_tweets();
  });
  const double speedup = load_s > 0 ? pipeline_s / load_s : 0;
  const double file_bytes = static_cast<double>(cold->info.file_bytes);

  std::printf("\n%-24s %12s\n", "path", "seconds");
  std::printf("%-24s %12.4f\n", "pipeline rebuild", pipeline_s);
  std::printf("%-24s %12.4f\n", "snapshot load", load_s);
  std::printf("\ncold-start speedup: %.1fx (acceptance floor 10x); "
              "file %.1f KiB\n",
              speedup, file_bytes / 1024.0);

  // ---- SIMD kernels: dispatch vs forced scalar ----------------------------
  const size_t kn = smoke ? (1u << 12) : (1u << 16);
  Rng rng(2016);
  // Two filter shapes: a selective predicate (~3% pass — the regime the
  // zero-block skip is built for) and a dense one (25% — where the kernel
  // must at least hold scalar speed).
  std::vector<uint8_t> sparse_flags(kn), dense_flags(kn);
  std::vector<uint64_t> acc(kn), keys(kn);
  std::vector<uint32_t> idx(kn + 7), inter_out(kn);
  for (size_t i = 0; i < kn; ++i) {
    sparse_flags[i] = (rng.Next() & 31) == 0 ? 1 : 0;
    dense_flags[i] = (rng.Next() & 3) == 0 ? 1 : 0;
    acc[i] = rng.Next();
    keys[i] = rng.Next();
  }
  // Two overlapping sorted postings-shaped lists of similar length — the
  // regime the adaptive matcher routes to the SIMD linear merge.
  std::vector<uint32_t> list_a, list_b;
  for (uint32_t v = 0; v < kn; ++v) {
    if (rng.Next() & 1) list_a.push_back(v);
    if (rng.Next() & 1) list_b.push_back(v);
  }
  std::vector<uint8_t> blob(kn * 8);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(rng.Next());
  }

  const size_t kernel_iters = smoke ? 3 : 25;
  const double compact_sparse_speedup = KernelSpeedup(kernel_iters, [&] {
    g_sink =
        g_sink + simd::CompactSelection(sparse_flags.data(), kn, idx.data());
  });
  const double compact_dense_speedup = KernelSpeedup(kernel_iters, [&] {
    g_sink =
        g_sink + simd::CompactSelection(dense_flags.data(), kn, idx.data());
  });
  const double hash_speedup = KernelSpeedup(kernel_iters, [&] {
    std::vector<uint64_t> a = acc;
    simd::HashCombineMix64Batch(a.data(), keys.data(), kn);
    g_sink = g_sink + a[kn / 2];
  });
  const double intersect_speedup = KernelSpeedup(kernel_iters, [&] {
    g_sink = g_sink + simd::IntersectSortedU32(list_a.data(), list_a.size(),
                                               list_b.data(), list_b.size(),
                                               inter_out.data());
  });
  const double checksum_speedup = KernelSpeedup(kernel_iters, [&] {
    g_sink = g_sink + simd::Checksum64(blob.data(), blob.size());
  });
  simd::ForceLevelForTest(simd::DetectedLevel());

  std::printf("\nsimd kernels (dispatch %s vs scalar, n=%zu):\n",
              std::string(simd::LevelName(simd::DetectedLevel())).c_str(),
              kn);
  std::printf("  %-22s %6.2fx (3%% selectivity)\n", "compact_selection",
              compact_sparse_speedup);
  std::printf("  %-22s %6.2fx (25%% selectivity)\n", "compact_selection",
              compact_dense_speedup);
  std::printf("  %-22s %6.2fx\n", "hash_combine_mix64", hash_speedup);
  std::printf("  %-22s %6.2fx\n", "intersect_sorted_u32", intersect_speedup);
  std::printf("  %-22s %6.2fx\n", "checksum64", checksum_speedup);

  // ---- Machine-readable snapshot ------------------------------------------
  obs::MetricsRegistry registry;
  registry.GetGauge("bench.coldstart.pipeline_seconds")->Set(pipeline_s);
  registry.GetGauge("bench.coldstart.load_seconds")->Set(load_s);
  registry.GetGauge("bench.coldstart.speedup")->Set(speedup);
  registry.GetGauge("bench.coldstart.file_bytes")->Set(file_bytes);
  registry.GetGauge("bench.coldstart.queries_verified")
      ->Set(static_cast<double>(queries.size()));
  registry.GetGauge("bench.simd.level")
      ->Set(static_cast<double>(static_cast<int>(simd::DetectedLevel())));
  registry.GetGauge("bench.simd.compact_speedup", {{"selectivity", "sparse"}})
      ->Set(compact_sparse_speedup);
  registry.GetGauge("bench.simd.compact_speedup", {{"selectivity", "dense"}})
      ->Set(compact_dense_speedup);
  registry.GetGauge("bench.simd.hash_speedup")->Set(hash_speedup);
  registry.GetGauge("bench.simd.intersect_speedup")->Set(intersect_speedup);
  registry.GetGauge("bench.simd.checksum_speedup")->Set(checksum_speedup);
  Status written = registry.WriteJsonFile(json_path);
  if (!written.ok()) {
    ESHARP_LOG(WARN) << "could not write " << json_path << ": "
                     << written.ToString();
  } else {
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::remove(snapshot_path.c_str());
  return 0;
}
