#ifndef ESHARP_CLUSTER_ROUTER_H_
#define ESHARP_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/health.h"
#include "cluster/shard.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "expert/detector.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/trace_context.h"
#include "serving/cache.h"
#include "serving/engine.h"
#include "serving/metrics.h"

namespace esharp::cluster {

/// \brief Configuration of the query router.
struct RouterOptions {
  /// Worker threads when the router owns its pool (pool == nullptr). The
  /// scatter fan-out runs here, one task per shard attempt.
  size_t num_threads = 4;
  /// Existing pool to dispatch onto instead of owning one; must outlive
  /// the router. In-process clusters share one pool between the router
  /// and the shard engines without deadlock risk: router tasks call the
  /// shard engine synchronously, and a shard engine collects on the
  /// calling thread, so neither ever blocks waiting for pool capacity.
  ThreadPool* pool = nullptr;
  /// Admission bound, as in ServingOptions: beyond it requests are shed
  /// with Unavailable instead of queueing without bound.
  size_t max_in_flight = 256;
  /// Router-level result cache over final ranked answers (shards keep no
  /// result caches of their own on this path — their snapshot-time
  /// TermEvidenceIndex is the per-shard cache).
  bool enable_cache = true;
  serving::CacheOptions cache;
  /// Hedged requests (the tail-at-scale defense): when a shard has not
  /// answered after the cluster-p<hedge_percentile> latency, a second
  /// attempt is sent and the first finisher wins. With the
  /// in-process transport both attempts hit the same engine, so a hedge
  /// only helps against transient slowness (queue wait behind an
  /// expensive request) — exactly the tail this tier produces.
  bool enable_hedging = true;
  double hedge_percentile = 95;
  /// Floor on the hedge delay, so sub-millisecond in-process latencies do
  /// not turn every request into two.
  double hedge_min_ms = 1.0;
  /// Recorded shard attempts required before the trigger arms (an empty
  /// histogram would hedge everything instantly).
  size_t hedge_warmup = 64;
  /// Minimum shards that must answer for a (degraded) response; below it
  /// the query fails. 1 = serve whatever answered.
  size_t min_shards_answered = 1;
  /// Optional scatter tracing: each query's record becomes a
  /// "cluster_request" span with "gather" and "merge_rank" children,
  /// annotated with shard/hedge counts. Must outlive the router.
  obs::Tracer* tracer = nullptr;
  /// Head sampling for router-minted trace roots: every Nth request is
  /// sampled (1 = all, 0 = none); only sampled requests record spans into
  /// `tracer`, which keeps span-ring contention off the cache-hit fast
  /// path at high qps. Requests arriving with their own valid trace keep
  /// the caller's sampling decision. Profiles and the slow-query log are
  /// independent of this knob (they only engage on the scatter path).
  uint64_t trace_sample_period = 1;
  /// Per-query profiles: every routed query (cache hits excepted — they
  /// never scatter) is stitched into an obs::QueryProfile — one lane per
  /// shard, every attempt with its deadline and the shard's piggybacked
  /// breakdown — and recorded in the slow-query log behind /queryz.
  /// Independent of `tracer`: profiles are per-query trees, the tracer is
  /// the flat span ring.
  bool enable_profiles = true;
  obs::SlowQueryLogOptions slow_query_log;
  /// Test seam: clock for the health tracker's qps window.
  std::function<double()> clock;
  /// Forwarded to ShardHealthTracker::Options::on_transition: fires on
  /// every shard state transition, outside tracker locks, from the thread
  /// that recorded the attempt. Must be thread-safe. Wiring a flight
  /// recorder's shard-down trigger lives here (examples/cluster_demo).
  std::function<void(const ShardStatus& status, ShardState previous)>
      on_shard_transition;
};

/// \brief One routed answer, with cluster provenance.
struct ClusterResponse {
  std::vector<expert::RankedExpert> experts;
  /// Combined per-shard version hints (cache-validation key, not a
  /// globally meaningful generation number).
  uint64_t cluster_version = 0;
  bool from_cache = false;
  size_t shards_total = 0;
  /// Shards whose evidence made it into the answer. The degraded-mode
  /// annotation: shards_answered < shards_total means partial coverage.
  size_t shards_answered = 0;
  bool degraded = false;
  size_t hedges_fired = 0;
  /// Merge + rank time at the router, milliseconds.
  double merge_ms = 0;
  double total_ms = 0;
  /// Distributed trace context this query was served under (the request's
  /// when it carried a valid one, else a router-minted root). Its
  /// TraceIdHex() is the /queryz?trace= lookup key for this query's
  /// profile and the exemplar label on the latency histogram.
  obs::TraceContext trace{};
};

/// \brief The cluster tier's front door: scatter-gather over N shard
/// transports, evidence merge, one union-corpus rank step, hedging,
/// per-shard deadlines and health tracking, and a router-level result
/// cache.
///
/// Request lifecycle:
///
///   Query -> admission (shed over max_in_flight)
///         -> cache probe (validated against the combined shard versions)
///         -> scatter: one Collect task per shard on the pool, each with
///            90% of the remaining client budget (QueryRequest::deadline_ms)
///         -> gather: wait for all shards, firing one hedge per late
///            shard once the latency trigger arms; stop at the deadline
///            with whatever answered
///         -> merge evidence pools + rank once on the union detector
///         -> degraded bookkeeping (shards_answered/N), cache fill
///            (complete answers only), metrics
///
/// All public methods are thread-safe. The destructor drains: no shard
/// attempt can still touch router state after it returns.
class ClusterRouter {
 public:
  /// `detector` must rank over the union corpus (see cluster/merge.h) and
  /// must outlive the router, as must everything shard transports point
  /// at. Shard count = shards.size(); shard i keeps that identity in
  /// health accounting for its lifetime.
  ClusterRouter(std::vector<std::unique_ptr<ShardTransport>> shards,
                const expert::ExpertDetector* detector,
                RouterOptions options = {});
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Serves one query on the caller's thread (scatter legs run on the
  /// pool). Reuses serving::QueryRequest so clients and benches drive
  /// either tier with the same request type.
  Result<ClusterResponse> Query(serving::QueryRequest request);

  size_t num_shards() const { return shards_.size(); }
  const std::vector<std::unique_ptr<ShardTransport>>& shards() const {
    return shards_;
  }

  const ShardHealthTracker& health() const { return health_; }
  ShardHealthTracker* mutable_health() { return &health_; }

  /// The slow-query log of stitched per-query profiles (/queryz). Empty
  /// when RouterOptions::enable_profiles is false.
  const obs::SlowQueryLog& slow_queries() const { return slow_log_; }

  const serving::ServingMetrics& metrics() const { return metrics_; }
  serving::ServingMetrics* mutable_metrics() { return &metrics_; }

  serving::CacheStats cache_stats() const { return cache_.stats(); }

  /// Combined per-shard version hints: changes whenever any shard's last
  /// known snapshot version changes, which is what invalidates cached
  /// cluster answers.
  uint64_t ClusterVersion() const;

  void InvalidateCache() { cache_.InvalidateAll(); }

  const RouterOptions& options() const { return options_; }

  size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// Atomically rebinds the union detector used by the merge + rank step.
  /// The streaming ingest path calls this after publishing a new corpus
  /// generation (the union detector must rank over the union corpus, which
  /// grows with every batch). Queries already past the rank step keep the
  /// detector they loaded — the shared_ptr pins it — so a rebind never
  /// invalidates an in-flight merge. Pass the corresponding shard publishes
  /// first, then rebind, then InvalidateCache(): cached answers ranked by
  /// the old detector are invalidated by the shard version change.
  void SetUnionDetector(
      std::shared_ptr<const expert::ExpertDetector> detector) {
    detector_override_.store(std::move(detector), std::memory_order_release);
  }

 private:
  /// Shared state of one query's gather. Heap-owned and co-owned by every
  /// scatter/hedge task, so attempts finishing after the router gave up
  /// on them (deadline) still land somewhere valid.
  struct GatherState;

  bool TryAdmit();
  /// The routing pipeline, stamping `record` at each stage boundary. A
  /// query that scattered also gets `*profile`: its lanes and shard counts.
  Result<ClusterResponse> Execute(const serving::QueryRequest& request,
                                  obs::RequestRecord* record,
                                  std::shared_ptr<obs::QueryProfile>* profile);
  /// The one exit of every admitted query: finishes the record and feeds
  /// the metrics, the tracer, the slow-query log and the response's
  /// merge_ms/total_ms.
  void Finish(obs::RequestRecord* record, Result<ClusterResponse>* result,
              std::shared_ptr<obs::QueryProfile> profile);
  /// Launches one attempt (primary or hedge) against shard `index`.
  void LaunchAttempt(const std::shared_ptr<GatherState>& state, size_t index,
                     bool is_hedge);

  std::vector<std::unique_ptr<ShardTransport>> shards_;
  const expert::ExpertDetector* detector_;
  /// When set, wins over detector_ (SetUnionDetector); loaded once per
  /// ranked merge.
  std::atomic<std::shared_ptr<const expert::ExpertDetector>>
      detector_override_{nullptr};
  RouterOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;  // owned_pool_.get() or options_.pool
  ShardHealthTracker health_;
  obs::SlowQueryLog slow_log_;
  serving::ShardedResultCache cache_;
  serving::ServingMetrics metrics_;
  Timer clock_;  // monotonic time base for cache TTLs
  std::atomic<size_t> in_flight_{0};
  /// Round-robin position of the trace head sampler (trace_sample_period).
  std::atomic<uint64_t> trace_counter_{0};
  /// Attempts still running or queued anywhere; the destructor spins on
  /// zero after draining the owned pool (mirrors ServingEngine).
  std::atomic<size_t> outstanding_{0};
};

}  // namespace esharp::cluster

#endif  // ESHARP_CLUSTER_ROUTER_H_
