// Distributed-tracing suite (ctest -L tracing): the TraceContext codec is
// pinned by golden values (the deterministic child derivation must never
// drift across platforms or refactors), fuzzed against malformed headers
// (a bad header yields a fresh root, never a crash or a poisoned id), and
// exercised end to end: one trace id must span the router and every shard
// over the real HTTP transport for N in {1,2,4}, /queryz?trace=<id> must
// serve the stitched Chrome trace with per-shard lanes, and profiles must
// stay complete under faults (dead shard, timed-out shard, hedge winner).
// The stress test at the bottom joins the serving label's TSan runs.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/health.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "cluster/transport_http.h"
#include "community/store.h"
#include "esharp/pipeline.h"
#include "expert/detector.h"
#include "microblog/corpus.h"
#include "microblog/generator.h"
#include "obs/debugz.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "querylog/generator.h"
#include "serving/engine.h"
#include "span_shapes.h"

namespace esharp {
namespace {

// ------------------------------------------------------------- helpers ----

/// One randomized world (universe -> query log -> offline pipeline ->
/// corpus), the same shape cluster_test.cc builds.
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

std::string FirstTopicQuery(const World& world) {
  for (const querylog::TopicDomain& dom : world.universe.domains()) {
    if (!dom.terms.empty()) return dom.terms[0];
  }
  return "tennis";
}

serving::ServingOptions ShardEngineOptions() {
  serving::ServingOptions o;
  o.num_threads = 2;
  o.enable_cache = false;
  o.enable_single_flight = false;
  return o;
}

/// Fault-injection transport, as in cluster_test.cc: all knobs are live
/// atomics so tests flip them mid-traffic.
class FaultShard final : public cluster::ShardTransport {
 public:
  FaultShard(std::string name,
             std::unique_ptr<cluster::ShardTransport> delegate)
      : name_(std::move(name)), delegate_(std::move(delegate)) {}

  const std::string& name() const override { return name_; }

  Result<cluster::ShardEvidence> Collect(
      const cluster::ShardRequest& request) override {
    double sleep_ms = sleep_first_ms_.exchange(0.0);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
    if (fail_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("injected fault on ", name_);
    }
    return delegate_->Collect(request);
  }

  uint64_t VersionHint() const override { return delegate_->VersionHint(); }

  void set_fail(bool fail) { fail_.store(fail, std::memory_order_relaxed); }
  void set_sleep_first_ms(double ms) { sleep_first_ms_.store(ms); }

 private:
  std::string name_;
  std::unique_ptr<cluster::ShardTransport> delegate_;
  std::atomic<bool> fail_{false};
  std::atomic<double> sleep_first_ms_{0.0};
};

/// In-process cluster whose transports are FaultShards.
struct FaultyCluster {
  cluster::PartitionedCorpus partition;
  std::shared_ptr<const community::CommunityStore> store;
  std::vector<std::unique_ptr<serving::SnapshotManager>> managers;
  std::vector<std::unique_ptr<serving::ServingEngine>> engines;
  std::unique_ptr<expert::ExpertDetector> union_detector;
  std::unique_ptr<cluster::ClusterRouter> router;
  std::vector<FaultShard*> faults;
};

FaultyCluster MakeFaultyCluster(const World& world, uint32_t num_shards,
                                cluster::RouterOptions router_options = {}) {
  FaultyCluster fc;
  fc.partition = cluster::PartitionCorpus(world.corpus, num_shards);
  fc.store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  std::vector<std::unique_ptr<cluster::ShardTransport>> transports;
  for (uint32_t s = 0; s < num_shards; ++s) {
    fc.managers.push_back(std::make_unique<serving::SnapshotManager>(
        fc.partition.shards[s].get()));
    fc.managers.back()->Publish(fc.store);
    fc.engines.push_back(std::make_unique<serving::ServingEngine>(
        fc.managers.back().get(), ShardEngineOptions()));
    std::string name = "shard-" + std::to_string(s);
    auto fault = std::make_unique<FaultShard>(
        name, std::make_unique<cluster::InProcessShard>(
                  name, fc.engines.back().get()));
    fc.faults.push_back(fault.get());
    transports.push_back(std::move(fault));
  }
  fc.union_detector = std::make_unique<expert::ExpertDetector>(&world.corpus);
  fc.router = std::make_unique<cluster::ClusterRouter>(
      std::move(transports), fc.union_detector.get(), router_options);
  return fc;
}

/// Real-wire cluster: every shard is a ServingEngine behind its own
/// DebugServer + MountShardEndpoint, reached over HttpShardTransport, and
/// every process (router + shards) runs its own Tracer so the test can
/// prove one trace id crossed the HTTP boundary into every shard's spans.
struct HttpCluster {
  cluster::PartitionedCorpus partition;
  std::shared_ptr<const community::CommunityStore> store;
  std::vector<std::unique_ptr<obs::Tracer>> shard_tracers;
  std::vector<std::unique_ptr<serving::SnapshotManager>> managers;
  std::vector<std::unique_ptr<serving::ServingEngine>> engines;
  std::vector<std::unique_ptr<obs::DebugServer>> shard_servers;
  std::unique_ptr<obs::Tracer> router_tracer =
      std::make_unique<obs::Tracer>();
  std::unique_ptr<expert::ExpertDetector> union_detector;
  std::unique_ptr<cluster::ClusterRouter> router;
};

HttpCluster MakeHttpCluster(const World& world, uint32_t num_shards,
                            cluster::RouterOptions router_options = {}) {
  HttpCluster hc;
  hc.partition = cluster::PartitionCorpus(world.corpus, num_shards);
  hc.store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  std::vector<std::unique_ptr<cluster::ShardTransport>> transports;
  for (uint32_t s = 0; s < num_shards; ++s) {
    hc.shard_tracers.push_back(std::make_unique<obs::Tracer>());
    hc.managers.push_back(std::make_unique<serving::SnapshotManager>(
        hc.partition.shards[s].get()));
    hc.managers.back()->Publish(hc.store);
    serving::ServingOptions so = ShardEngineOptions();
    so.tracer = hc.shard_tracers.back().get();
    hc.engines.push_back(std::make_unique<serving::ServingEngine>(
        hc.managers.back().get(), so));
    hc.shard_servers.push_back(std::make_unique<obs::DebugServer>());
    cluster::MountShardEndpoint(hc.shard_servers.back().get(),
                                hc.engines.back().get());
    EXPECT_TRUE(hc.shard_servers.back()->Start().ok());
    transports.push_back(std::make_unique<cluster::HttpShardTransport>(
        "shard-" + std::to_string(s), "127.0.0.1",
        hc.shard_servers.back()->port()));
  }
  hc.union_detector = std::make_unique<expert::ExpertDetector>(&world.corpus);
  router_options.tracer = hc.router_tracer.get();
  hc.router = std::make_unique<cluster::ClusterRouter>(
      std::move(transports), hc.union_detector.get(), router_options);
  return hc;
}

[[maybe_unused]] bool TracerSawTrace(const obs::Tracer& tracer,
                                     const obs::TraceContext& t) {
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (e.trace_hi == t.trace_hi && e.trace_lo == t.trace_lo) return true;
  }
  return false;
}

std::shared_ptr<const obs::QueryProfile> MakeProfile(double total_ms) {
  auto p = std::make_shared<obs::QueryProfile>();
  p->trace = obs::TraceContext::NewRoot();
  p->query = "q";
  p->outcome = "ok";
  p->total_ms = total_ms;
  p->shards_total = 1;
  p->shards_answered = 1;
  return p;
}

// ------------------------------------------------- codec golden values ----

// The child-id derivation and the header codec are part of the wire
// contract (a router and a shard on different hosts must agree), so they
// are pinned to literal values exactly like the shard partitioner.
TEST(TraceContextTest, GoldenChildDerivationIsPinned) {
  obs::TraceContext parent;
  parent.trace_hi = 0x0123456789abcdefULL;
  parent.trace_lo = 0xfedcba9876543210ULL;
  parent.span_id = 0x1122334455667788ULL;
  parent.sampled = true;

  EXPECT_EQ(parent.ToHeader(),
            "00-0123456789abcdeffedcba9876543210-1122334455667788-01");
  EXPECT_EQ(parent.TraceIdHex(), "0123456789abcdeffedcba9876543210");

  EXPECT_EQ(parent.Child(0).span_id, 0x6c52c59cbb911fccULL);
  EXPECT_EQ(parent.Child(1).span_id, 0x01ed84dccc942d69ULL);
  EXPECT_EQ(parent.Child(2).span_id, 0x2ec12d2ba8eb2649ULL);
  EXPECT_EQ(parent.Child(3).span_id, 0xba90ddc1044332c9ULL);
  EXPECT_EQ(parent.Child(2).Child(7).span_id, 0x3dd271f7b542d0c7ULL);
  EXPECT_EQ(parent.Child(0).ToHeader(),
            "00-0123456789abcdeffedcba9876543210-6c52c59cbb911fcc-01");

  // Children keep the trace id and the sampling bit; derivation is a pure
  // function of (parent, index).
  for (uint64_t i = 0; i < 64; ++i) {
    obs::TraceContext child = parent.Child(i);
    EXPECT_TRUE(child.SameTrace(parent));
    EXPECT_NE(child.span_id, 0u);
    EXPECT_EQ(child.span_id, parent.Child(i).span_id);
    for (uint64_t j = 0; j < i; ++j) {
      EXPECT_NE(child.span_id, parent.Child(j).span_id)
          << "collision between children " << i << " and " << j;
    }
  }
}

TEST(TraceContextTest, HeaderRoundTripsExactly) {
  for (int i = 0; i < 32; ++i) {
    obs::TraceContext root = obs::TraceContext::NewRoot(i % 2 == 0);
    ASSERT_TRUE(root.valid());
    std::string header = root.ToHeader();
    ASSERT_EQ(header.size(), 55u);
    EXPECT_EQ(header.substr(0, 3), "00-");
    auto parsed = obs::TraceContext::FromHeader(header);
    ASSERT_TRUE(parsed.ok()) << header;
    EXPECT_EQ(*parsed, root);
    // The lenient path adopts well-formed headers verbatim.
    EXPECT_EQ(obs::TraceContext::FromHeaderOrRoot(header), root);
  }
  // The flags byte carries the sampling bit.
  obs::TraceContext unsampled = obs::TraceContext::NewRoot(false);
  EXPECT_EQ(unsampled.ToHeader().substr(53), "00");
  EXPECT_EQ(obs::TraceContext::NewRoot(true).ToHeader().substr(53), "01");
  EXPECT_FALSE(obs::TraceContext::FromHeader(unsampled.ToHeader())->sampled);
}

TEST(TraceContextTest, NewRootsAreValidAndDistinct) {
  obs::TraceContext a = obs::TraceContext::NewRoot();
  obs::TraceContext b = obs::TraceContext::NewRoot();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a.SameTrace(b));
  EXPECT_NE(a.span_id, b.span_id);
}

// ---------------------------------------------------- codec robustness ----

// Satellite: malformed, truncated, duplicated or missing headers must
// yield a fresh root context — never a crash, never a poisoned (zero or
// partially-parsed) id.
TEST(TraceContextTest, MalformedHeadersRejectedStrictlyAndHealedLeniently) {
  const std::string good =
      "00-0123456789abcdeffedcba9876543210-1122334455667788-01";
  ASSERT_TRUE(obs::TraceContext::FromHeader(good).ok());

  std::vector<std::string> bad;
  bad.push_back("");                       // missing
  bad.push_back(good + "0");               // too long
  bad.push_back("01" + good.substr(2));    // future version
  bad.push_back("ff" + good.substr(2));    // reserved version
  bad.push_back("0-" + good.substr(2));    // mangled version field
  // Zero ids are the W3C "absent" sentinel, not a real context.
  bad.push_back("00-00000000000000000000000000000000-1122334455667788-01");
  bad.push_back("00-0123456789abcdeffedcba9876543210-0000000000000000-01");
  // Every truncation length.
  for (size_t n = 1; n < good.size(); ++n) bad.push_back(good.substr(0, n));
  // A non-hex byte in every field.
  for (size_t pos : {size_t(0), size_t(4), size_t(20), size_t(40),
                     size_t(53)}) {
    std::string s = good;
    s[pos] = 'g';
    bad.push_back(s);
  }
  // Misplaced separators.
  for (size_t pos : {size_t(2), size_t(35), size_t(52)}) {
    std::string s = good;
    s[pos] = '0';
    bad.push_back(s);
  }
  // Deterministic fuzz: random printable garbage of random lengths.
  uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 256; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::string s;
    size_t len = (lcg >> 33) % 80;
    for (size_t j = 0; j < len; ++j) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      s.push_back(static_cast<char>(' ' + ((lcg >> 40) % 95)));
    }
    if (s == good) continue;  // astronomically unlikely, but be exact
    // The strict parse may only succeed on an exactly well-formed header;
    // random garbage of the right length still has dashes/hex wrong.
    auto parsed = obs::TraceContext::FromHeader(s);
    if (parsed.ok()) {
      EXPECT_EQ(parsed->ToHeader(), s);  // then it must round-trip
    }
    EXPECT_TRUE(obs::TraceContext::FromHeaderOrRoot(s).valid());
  }

  for (const std::string& s : bad) {
    SCOPED_TRACE("header: \"" + s + "\"");
    auto parsed = obs::TraceContext::FromHeader(s);
    EXPECT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.status().IsInvalidArgument());
    // Lenient path: a fresh, valid root that shares nothing with the
    // garbage input's embedded ids.
    obs::TraceContext healed = obs::TraceContext::FromHeaderOrRoot(s);
    EXPECT_TRUE(healed.valid());
    EXPECT_NE(healed.TraceIdHex(), "0123456789abcdeffedcba9876543210");
  }
}

// ------------------------------------------------------ wire piggyback ----

TEST(TracingWireTest, TraceAndBreakdownRoundTripThroughTheFrame) {
  cluster::ShardEvidence evidence;
  evidence.snapshot_version = 7;
  evidence.terms = 3;
  evidence.shard_ms = 12.5;
  evidence.trace = obs::TraceContext::NewRoot();
  evidence.queue_ms = 0.25;
  evidence.expand_ms = 1.5;
  evidence.detect_ms = 9.75;
  expert::CandidateEvidence c;
  c.user = 42;
  evidence.evidence.push_back(c);

  auto decoded =
      cluster::DecodeShardEvidence(cluster::EncodeShardEvidence(evidence));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace, evidence.trace);
  EXPECT_EQ(decoded->queue_ms, 0.25);
  EXPECT_EQ(decoded->expand_ms, 1.5);
  EXPECT_EQ(decoded->detect_ms, 9.75);
  ASSERT_EQ(decoded->evidence.size(), 1u);
  EXPECT_EQ(decoded->evidence[0].user, 42u);

  // Raw fields: extreme ids, the unsampled bit and doubles no decimal
  // format would keep come back bit for bit.
  evidence.trace.trace_hi = ~uint64_t{0};
  evidence.trace.trace_lo = 1;
  evidence.trace.span_id = ~uint64_t{0};
  evidence.trace.sampled = false;
  evidence.snapshot_version = ~uint64_t{0};
  evidence.queue_ms = 1.0 / 3.0;
  evidence.expand_ms = 4.9e-324;  // smallest subnormal
  evidence.detect_ms = 1.7976931348623157e308;
  evidence.shard_ms = -0.0;
  auto extreme =
      cluster::DecodeShardEvidence(cluster::EncodeShardEvidence(evidence));
  ASSERT_TRUE(extreme.ok()) << extreme.status().ToString();
  EXPECT_EQ(extreme->trace, evidence.trace);
  EXPECT_FALSE(extreme->trace.sampled);
  EXPECT_EQ(extreme->snapshot_version, evidence.snapshot_version);
  EXPECT_EQ(extreme->queue_ms, evidence.queue_ms);
  EXPECT_EQ(extreme->expand_ms, evidence.expand_ms);
  EXPECT_EQ(extreme->detect_ms, evidence.detect_ms);
  EXPECT_TRUE(std::signbit(extreme->shard_ms));
}

TEST(TracingWireTest, FrameWithoutTraceDecodesAndUnknownVersionFails) {
  cluster::ShardEvidence evidence;
  evidence.snapshot_version = 7;
  // No trace: zero ids on the wire, an invalid trace after decoding.
  std::string body = cluster::EncodeShardEvidence(evidence);
  auto decoded = cluster::DecodeShardEvidence(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->trace.valid());
  EXPECT_EQ(decoded->snapshot_version, 7u);

  // A shard speaking another frame version is refused cleanly, with the
  // version named, instead of being half-parsed.
  evidence.trace = obs::TraceContext::NewRoot();
  std::string other = cluster::EncodeShardEvidence(evidence);
  other[4] = static_cast<char>(other[4] + 1);  // version u32 at offset 4
  auto refused = cluster::DecodeShardEvidence(other);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("version 2"), std::string::npos)
      << refused.status().ToString();
}

// ------------------------------------------------------- slow-query log ----

TEST(SlowQueryLogTest, BoundedRetentionKeepsTopKAndRecent) {
  obs::SlowQueryLogOptions options;
  options.top_k = 4;
  options.recent = 3;
  obs::SlowQueryLog log(options);
  std::vector<std::shared_ptr<const obs::QueryProfile>> all;
  for (int i = 0; i < 20; ++i) {
    all.push_back(MakeProfile(static_cast<double>(i)));
    log.Record(all.back());
  }
  EXPECT_EQ(log.recorded(), 20u);

  auto top = log.TopK();
  ASSERT_EQ(top.size(), 4u);
  EXPECT_DOUBLE_EQ(top[0]->total_ms, 19.0);
  EXPECT_DOUBLE_EQ(top[1]->total_ms, 18.0);
  EXPECT_DOUBLE_EQ(top[2]->total_ms, 17.0);
  EXPECT_DOUBLE_EQ(top[3]->total_ms, 16.0);

  auto recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_DOUBLE_EQ(recent[0]->total_ms, 19.0);  // newest first
  EXPECT_DOUBLE_EQ(recent[1]->total_ms, 18.0);
  EXPECT_DOUBLE_EQ(recent[2]->total_ms, 17.0);

  // Find accepts the bare 32-hex id and the full header; misses are null.
  EXPECT_EQ(log.Find(all[16]->trace.TraceIdHex()), all[16]);
  EXPECT_EQ(log.Find(all[19]->trace.ToHeader()), all[19]);
  EXPECT_EQ(log.Find(all[0]->trace.TraceIdHex()), nullptr);  // evicted
  EXPECT_EQ(log.Find("not a trace id"), nullptr);
}

TEST(SlowQueryLogTest, ChromeExportCarriesLanesHedgesAndDeadlines) {
  obs::QueryProfile p;
  p.trace = obs::TraceContext::NewRoot();
  p.query = "tennis";
  p.outcome = "degraded";
  p.total_ms = 50;
  p.merge_ms = 4;
  p.deadline_ms = 120;
  p.shards_total = 2;
  p.shards_answered = 1;
  p.hedges_fired = 1;
  p.degraded = true;
  p.stages.push_back({"gather", 1, 40});
  obs::ProfileLane ok_lane;
  ok_lane.name = "shard-0";
  obs::LaneAttempt primary;
  primary.outcome = "ok";
  primary.won = true;
  primary.deadline_ms = 100;
  primary.has_breakdown = true;
  primary.queue_ms = 0.5;
  primary.expand_ms = 2;
  primary.detect_ms = 7;
  primary.candidates = 31;
  ok_lane.attempts.push_back(primary);
  obs::LaneAttempt hedge;
  hedge.hedge = true;
  hedge.outcome = "outstanding";
  hedge.start_ms = 20;
  hedge.deadline_ms = 80;
  ok_lane.attempts.push_back(hedge);
  p.lanes.push_back(ok_lane);
  obs::ProfileLane dead_lane;
  dead_lane.name = "shard-1";
  dead_lane.annotation = "failed: Unavailable: injected";
  obs::LaneAttempt failed;
  failed.outcome = "error";
  failed.detail = "Unavailable: injected";
  dead_lane.attempts.push_back(failed);
  p.lanes.push_back(dead_lane);

  std::string json = p.ExportChromeJson();
  // Lane metadata: one named thread per shard plus the router.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("router"), std::string::npos);
  EXPECT_NE(json.find("shard-0"), std::string::npos);
  EXPECT_NE(json.find("shard-1 [failed: Unavailable: injected]"),
            std::string::npos);
  // The root event attributes the whole query.
  EXPECT_NE(json.find(p.trace.TraceIdHex()), std::string::npos);
  EXPECT_NE(json.find("\"shards_answered\":\"1/2\""), std::string::npos);
  EXPECT_NE(json.find("\"hedges_fired\":\"1\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_ms\":\"120.000\""), std::string::npos);
  // Attempt events: the hedge by name, per-attempt deadlines, the failed
  // attempt's error detail, and the nested shard-side breakdown.
  EXPECT_NE(json.find("\"name\":\"hedge\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_ms\":\"100.000\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"Unavailable: injected\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":\"31\""), std::string::npos);

  // The summary JSON (RenderJson) carries the same attribution.
  obs::SlowQueryLog log;
  log.Record(std::make_shared<const obs::QueryProfile>(p));
  std::string summary = log.RenderJson();
  EXPECT_NE(summary.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(summary.find("\"outcome\":\"degraded\""), std::string::npos);
  EXPECT_NE(summary.find("\"hedge\":true"), std::string::npos);
  EXPECT_NE(summary.find(p.trace.TraceIdHex()), std::string::npos);
}

// ------------------------------------------- end to end over real HTTP ----

// The PR's acceptance criterion: one trace id spans the router and every
// shard over the HTTP transport, and /queryz?trace=<id> serves the
// stitched Chrome trace with per-shard lanes — for N in {1, 2, 4}.
TEST(TracingHttpTest, OneTraceIdSpansRouterAndAllShardsOverHttp) {
  World world = MakeWorld(3101);
  for (uint32_t num_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(num_shards));
    cluster::RouterOptions ro;
    ro.enable_cache = false;
    ro.enable_hedging = false;
    HttpCluster hc = MakeHttpCluster(world, num_shards, ro);

    serving::QueryRequest request;
    request.query = FirstTopicQuery(world);
    request.deadline_ms = 5000;  // generous: only deadline *attribution*
    auto routed = hc.router->Query(request);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    ASSERT_TRUE(routed->trace.valid());
    EXPECT_EQ(routed->shards_answered, num_shards);

#if ESHARP_OBS_ENABLED
    // The router's own spans and every shard's spans carry the one id —
    // the shards learned it from the &trace= header on the wire.
    EXPECT_TRUE(TracerSawTrace(*hc.router_tracer, routed->trace));
    for (uint32_t s = 0; s < num_shards; ++s) {
      EXPECT_TRUE(TracerSawTrace(*hc.shard_tracers[s], routed->trace))
          << "shard " << s << " never served under the router's trace id";
    }
#endif

    // The stitched profile: one lane per shard, every attempt answered
    // with the piggybacked breakdown (proof the frame's trace fields
    // crossed the wire and matched this attempt's child context).
    auto profile = hc.router->slow_queries().Find(routed->trace.TraceIdHex());
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(profile->outcome, "ok");
    EXPECT_DOUBLE_EQ(profile->deadline_ms, 5000.0);
    ASSERT_EQ(profile->lanes.size(), num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      SCOPED_TRACE("lane " + std::to_string(s));
      const obs::ProfileLane& lane = profile->lanes[s];
      EXPECT_EQ(lane.name, "shard-" + std::to_string(s));
      EXPECT_TRUE(lane.annotation.empty()) << lane.annotation;
      ASSERT_EQ(lane.attempts.size(), 1u);
      EXPECT_EQ(lane.attempts[0].outcome, "ok");
      EXPECT_TRUE(lane.attempts[0].won);
      EXPECT_GT(lane.attempts[0].deadline_ms, 0.0);
      EXPECT_TRUE(lane.attempts[0].has_breakdown);
    }

    // /queryz on the router's own debug server: the HTML table lists the
    // query, ?trace= downloads the Chrome trace with the shard lanes and
    // the deadline attribution, ?format=json summarizes, unknown ids 404.
    obs::DebugServer server;
    obs::MountQueryz(&server, &hc.router->slow_queries());
    ASSERT_TRUE(server.Start().ok());
    std::string id = routed->trace.TraceIdHex();

    auto chrome =
        obs::HttpGet("127.0.0.1", server.port(), "/queryz?trace=" + id);
    ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
    ASSERT_EQ(chrome->status, 200);
    EXPECT_NE(chrome->body.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome->body.find(id), std::string::npos);
    EXPECT_NE(chrome->body.find("\"deadline_ms\""), std::string::npos);
    for (uint32_t s = 0; s < num_shards; ++s) {
      EXPECT_NE(chrome->body.find("shard-" + std::to_string(s)),
                std::string::npos);
    }

    auto html = obs::HttpGet("127.0.0.1", server.port(), "/queryz");
    ASSERT_TRUE(html.ok());
    ASSERT_EQ(html->status, 200);
    EXPECT_NE(html->body.find(id), std::string::npos);

    auto json =
        obs::HttpGet("127.0.0.1", server.port(), "/queryz?format=json");
    ASSERT_TRUE(json.ok());
    EXPECT_NE(json->body.find("\"recorded\""), std::string::npos);
    EXPECT_NE(json->body.find(id), std::string::npos);

    auto miss = obs::HttpGet("127.0.0.1", server.port(),
                             "/queryz?trace=ffffffffffffffffffffffffffffffff");
    ASSERT_TRUE(miss.ok());
    EXPECT_EQ(miss->status, 404);
  }
}

// A shard must answer normally when the trace header on the wire is
// garbage or duplicated — a bad peer cannot poison or crash the shard.
TEST(TracingHttpTest, ShardEndpointHealsMalformedAndDuplicateTraceParams) {
  World world = MakeWorld(3201);
  HttpCluster hc = MakeHttpCluster(world, 1);
  int port = hc.shard_servers[0]->port();
  std::string base =
      "/shard/evidence?q=" + cluster::UrlEncode(FirstTopicQuery(world));

  // Malformed header: served under a fresh root, never an error.
  auto garbage = obs::HttpGet("127.0.0.1", port, base + "&trace=not-a-trace");
  ASSERT_TRUE(garbage.ok()) << garbage.status().ToString();
  ASSERT_EQ(garbage->status, 200);
  auto healed = cluster::DecodeShardEvidence(garbage->body);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed->trace.valid());

  // Duplicate trace params: the first one wins (and is echoed back).
  obs::TraceContext first = obs::TraceContext::NewRoot();
  obs::TraceContext second = obs::TraceContext::NewRoot();
  auto dup = obs::HttpGet("127.0.0.1", port,
                          base + "&trace=" + first.ToHeader() +
                              "&trace=" + second.ToHeader());
  ASSERT_TRUE(dup.ok());
  ASSERT_EQ(dup->status, 200);
  auto echoed = cluster::DecodeShardEvidence(dup->body);
  ASSERT_TRUE(echoed.ok());
  EXPECT_TRUE(echoed->trace.SameTrace(first));
  EXPECT_FALSE(echoed->trace.SameTrace(second));
}

// --------------------------------------------------- golden span shapes ----

#if ESHARP_OBS_ENABLED
// The router's spans per request kind, pinned like the engine's in
// serving_test.cc: names, parents, sorted annotation keys (outcome values
// spelled out) and recording order, every child inside its root.
TEST(TracingGoldenTest, RouterSpanShapesArePinnedPerRequestKind) {
  using Shapes = std::vector<std::string>;
  World world = MakeWorld(3801);
  obs::Tracer tracer;
  cluster::RouterOptions ro;
  ro.enable_hedging = false;
  ro.tracer = &tracer;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  // Serves `request` alone on a clean tracer and returns its span shapes.
  auto shapes_of = [&](const serving::QueryRequest& request) {
    tracer.Reset();
    (void)fc.router->Query(request);
    std::vector<obs::TraceEvent> events = tracer.Events();
    testing::ExpectChildrenInsideRoots(events);
    return testing::SpanShapes(events);
  };
  serving::QueryRequest request;
  request.query = FirstTopicQuery(world);

  EXPECT_EQ(shapes_of(request),
            (Shapes{"gather<cluster_request{}",
                    "merge_rank<cluster_request{}",
                    "cluster_request{answered,hedges,outcome=ok,shards,"
                    "trace}"}));
  EXPECT_EQ(shapes_of(request),
            (Shapes{"cluster_request{outcome=cache_hit,shards,trace}"}));
  fc.faults[1]->set_fail(true);
  request.bypass_cache = true;
  EXPECT_EQ(shapes_of(request),
            (Shapes{"gather<cluster_request{}",
                    "merge_rank<cluster_request{}",
                    "cluster_request{answered,hedges,outcome=degraded,"
                    "shards,trace}"}));
}
#endif  // ESHARP_OBS_ENABLED

// ------------------------------------------- profile stitching on faults --

TEST(TracingFaultTest, DeadShardKeepsItsLaneWithErrorDetail) {
  World world = MakeWorld(3301);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  fc.faults[2]->set_fail(true);

  auto routed = fc.router->Query({FirstTopicQuery(world)});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(routed->degraded);

  auto profile = fc.router->slow_queries().Find(routed->trace.TraceIdHex());
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->outcome, "degraded");
  EXPECT_EQ(profile->shards_answered, 3u);
  ASSERT_EQ(profile->lanes.size(), 4u);  // the dead shard does not vanish
  const obs::ProfileLane& dead = profile->lanes[2];
  EXPECT_EQ(dead.name, "shard-2");
  EXPECT_NE(dead.annotation.find("failed:"), std::string::npos);
  EXPECT_NE(dead.annotation.find("injected fault"), std::string::npos);
  ASSERT_EQ(dead.attempts.size(), 1u);
  EXPECT_EQ(dead.attempts[0].outcome, "error");
  EXPECT_NE(dead.attempts[0].detail.find("injected fault on shard-2"),
            std::string::npos);
  EXPECT_FALSE(dead.attempts[0].won);
  EXPECT_FALSE(dead.attempts[0].has_breakdown);
  for (size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(profile->lanes[i].attempts[0].outcome, "ok");
    EXPECT_TRUE(profile->lanes[i].attempts[0].has_breakdown);
  }

  // Satellite: the health tracker now remembers *why* the shard failed,
  // and /statusz's table shows it.
  EXPECT_NE(fc.router->health().StatusOf(2).last_error.find("injected fault"),
            std::string::npos);
  EXPECT_NE(fc.router->health().RenderTable().find("injected fault"),
            std::string::npos);
}

TEST(TracingFaultTest, TimedOutShardLaneIsOutstandingNotAbsent) {
  World world = MakeWorld(3401);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  ASSERT_TRUE(fc.router->Query({FirstTopicQuery(world)}).ok());  // warm

  fc.faults[0]->set_sleep_first_ms(400);
  serving::QueryRequest request;
  request.query = FirstTopicQuery(world);
  request.deadline_ms = 120;
  auto routed = fc.router->Query(request);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(routed->degraded);

  auto profile = fc.router->slow_queries().Find(routed->trace.TraceIdHex());
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->outcome, "degraded");
  EXPECT_DOUBLE_EQ(profile->deadline_ms, 120.0);
  ASSERT_EQ(profile->lanes.size(), 2u);
  const obs::ProfileLane& late = profile->lanes[0];
  EXPECT_EQ(late.annotation, "no answer before deadline");
  ASSERT_GE(late.attempts.size(), 1u);
  EXPECT_EQ(late.attempts[0].outcome, "outstanding");
  EXPECT_FALSE(late.attempts[0].won);
  EXPECT_EQ(profile->lanes[1].attempts[0].outcome, "ok");
  // The Chrome export renders the outstanding attempt to the end of the
  // query, so the lost time stays visible.
  EXPECT_NE(profile->ExportChromeJson().find("\"outcome\":\"outstanding\""),
            std::string::npos);
}

TEST(TracingFaultTest, HedgeWinnerIsAttributedInTheLane) {
  World world = MakeWorld(3501);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = true;
  ro.hedge_warmup = 8;
  ro.hedge_min_ms = 5.0;
  ro.hedge_percentile = 95;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  const std::string query = FirstTopicQuery(world);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fc.router->Query({query}).ok());
  }

  fc.faults[0]->set_sleep_first_ms(500);
  auto routed = fc.router->Query({query});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_GE(routed->hedges_fired, 1u);

  auto profile = fc.router->slow_queries().Find(routed->trace.TraceIdHex());
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->hedges_fired, routed->hedges_fired);
  const obs::ProfileLane& hedged = profile->lanes[0];
  ASSERT_EQ(hedged.attempts.size(), 2u);
  EXPECT_FALSE(hedged.attempts[0].hedge);
  EXPECT_TRUE(hedged.attempts[1].hedge);
  EXPECT_GT(hedged.attempts[1].start_ms, 0.0);
  // The hedge finished first and its evidence won the lane; the sleeping
  // primary either resolved later (not won) or was still outstanding.
  EXPECT_TRUE(hedged.attempts[1].won);
  EXPECT_EQ(hedged.attempts[1].outcome, "ok");
  EXPECT_FALSE(hedged.attempts[0].won);
  // Both attempts of the lane appear in the Chrome export, one per name.
  std::string json = profile->ExportChromeJson();
  EXPECT_NE(json.find("\"name\":\"hedge\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"attempt\""), std::string::npos);
}

// The p99 exemplar: the latency histogram links its buckets to the trace
// ids of actual queries, so /varz points straight at /queryz.
TEST(TracingFaultTest, LatencyHistogramCarriesTraceExemplars) {
  World world = MakeWorld(3601);
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = false;
  FaultyCluster fc = MakeFaultyCluster(world, 2, ro);
  auto routed = fc.router->Query({FirstTopicQuery(world)});
  ASSERT_TRUE(routed.ok());
  std::string json = obs::MetricsRegistry::Global().ExportJson();
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":\"" + routed->trace.TraceIdHex() + "\""),
            std::string::npos);
}

// --------------------------------------------------- concurrency stress ----

// TSan coverage (ctest -L serving under -DESHARP_SANITIZE=thread): traced
// queries, fault flips, and /queryz-style readers all at once. Profile
// recording, the slow-query log, the health tracker's error strings and
// the tracer ring must stay coherent.
TEST(TracingStressTest, ConcurrentTracedQueriesAndReadersStayCoherent) {
  World world = MakeWorld(3701);
  obs::Tracer tracer;
  cluster::RouterOptions ro;
  ro.enable_cache = false;
  ro.enable_hedging = true;
  ro.hedge_warmup = 8;
  ro.hedge_min_ms = 1.0;
  ro.tracer = &tracer;
  ro.slow_query_log.top_k = 8;
  ro.slow_query_log.recent = 8;
  FaultyCluster fc = MakeFaultyCluster(world, 4, ro);
  const std::string query = FirstTopicQuery(world);

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t]() {
      for (int i = 0; i < 40; ++i) {
        serving::QueryRequest request;
        request.query = query;
        request.deadline_ms = (i % 4 == 0) ? 50 : 0;
        if (i % 3 == t % 3) request.trace = obs::TraceContext::NewRoot();
        auto routed = fc.router->Query(request);
        if (routed.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
          if (request.trace.valid()) {
            EXPECT_TRUE(routed->trace.SameTrace(request.trace));
          }
        }
      }
    });
  }
  std::thread flipper([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      fc.faults[3]->set_fail(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      fc.faults[3]->set_fail(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& p : fc.router->slow_queries().TopK()) {
        EXPECT_TRUE(p->trace.valid());
        (void)p->ExportChromeJson();
      }
      (void)fc.router->slow_queries().RenderJson();
      (void)fc.router->health().RenderTable();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& t : clients) t.join();
  stop.store(true);
  flipper.join();
  reader.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(fc.router->slow_queries().recorded(), 0u);
  // Retention stayed bounded under the churn.
  EXPECT_LE(fc.router->slow_queries().TopK().size(), 8u);
  EXPECT_LE(fc.router->slow_queries().Recent().size(), 8u);
}

}  // namespace
}  // namespace esharp
