#ifndef ESHARP_SERVING_ENGINE_H_
#define ESHARP_SERVING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/trace_context.h"
#include "serving/cache.h"
#include "serving/metrics.h"
#include "serving/snapshot.h"

namespace esharp::serving {

/// \brief Configuration of the query-serving engine.
struct ServingOptions {
  /// Worker threads when the engine owns its pool (pool == nullptr).
  size_t num_threads = 4;
  /// Existing pool to dispatch onto instead of owning one. Must outlive
  /// the engine; the engine's destructor waits for its own admitted
  /// requests to finish, so no extra draining is required of the caller.
  /// This is how serving shares workers with the offline pipeline in a
  /// single process.
  ThreadPool* pool = nullptr;
  /// Admission bound: maximum requests in flight (queued + executing).
  /// Beyond it, requests are shed with Status::Unavailable instead of
  /// queuing without bound — an overloaded service must fail fast, not
  /// collapse under its own backlog.
  size_t max_in_flight = 64;
  /// Result cache; set enable_cache = false to force every request through
  /// the detector (benchmarking, tests).
  bool enable_cache = true;
  CacheOptions cache;
  /// Collapse concurrent identical queries into one detector execution
  /// (the followers wait for the leader's result).
  bool enable_single_flight = true;
  /// Instrumentation seam: invoked with the cache key at the start of every
  /// uncached execution, on the executing thread. Tests use it to pin a
  /// leader in place and prove single-flight behavior; benches can inject
  /// artificial stage latency or faults. Must be thread-safe.
  std::function<void(const std::string& key)> execution_hook;
  /// Optional request tracing. Each served request's record becomes a
  /// "request" span (starting at submission, so queue wait is visible)
  /// with an "admission" child covering the queue, a "cache" child
  /// annotated with the probe outcome, and — when the detector actually
  /// runs — "expand" / "detect" / "rank" children. Single-flight followers
  /// get a "flight_wait" child instead; shed requests appear as
  /// zero-length "shed" events. Must outlive the engine.
  obs::Tracer* tracer = nullptr;
};

/// \brief One query to serve.
struct QueryRequest {
  std::string query;
  /// Deadline in milliseconds, measured from submission (queue wait
  /// counts against it); <= 0 means none.
  double deadline_ms = 0;
  /// Skips cache lookup AND population for this request.
  bool bypass_cache = false;
  /// Distributed trace context to serve under. Invalid (default) = the
  /// engine mints a fresh root at admission; valid = the request joins an
  /// existing trace (the cluster router's scatter sets this, so shard
  /// spans carry the router's trace id across the process boundary).
  obs::TraceContext trace{};
};

/// \brief Point-in-time health of one engine: the signals /healthz and
/// /readyz derive from, exposed as one coherent read. `ready` is the
/// engine's own verdict (a snapshot is published); callers layer policy on
/// the raw signals — staleness bounds, shed-rate objectives via the SLO
/// watchdog — without the engine hard-coding their thresholds.
struct HealthView {
  /// A published snapshot exists, so requests can be served at all.
  bool ready = false;
  std::string detail;  ///< Why not ready ("" when ready).
  uint64_t snapshot_version = 0;
  /// Seconds since the current generation was published (0 when none).
  double snapshot_age_seconds = 0;
  size_t in_flight = 0;
  size_t max_in_flight = 0;
  /// in_flight / max_in_flight — the admission queue's fullness in [0, 1].
  double queue_fill = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  /// Recent request rate (ServingMetrics windowed EWMA).
  double window_qps = 0;
};

/// \brief Live introspection record of one in-flight request (/tracez).
struct ActiveRequestInfo {
  uint64_t id = 0;
  std::string query;
  std::string stage;  ///< "admitted", "cache", "expand", "detect", "rank",
                      ///< "flight_wait".
  double elapsed_ms = 0;
};

/// \brief The shard-side answer of the cluster tier: one query's merged
/// candidate evidence against this engine's corpus partition, *before*
/// ranking. Ranking is not shard-local — the z-scores of §3 are computed
/// over the union candidate pool with union-corpus denominators — so a
/// sharded deployment ships raw evidence to the router and ranks exactly
/// once there (see src/cluster). The same struct is the cluster tier's
/// cluster::ShardEvidence and the payload of its binary wire frame.
struct EvidenceResponse {
  /// Union of the expansion terms' candidate pools over this engine's
  /// corpus; sorted by user with unique users (the MergeEvidence
  /// invariant). Counts are partition-local: integer sums over the tweets
  /// this corpus holds, so pools from disjoint partitions merge exactly.
  std::vector<expert::CandidateEvidence> evidence;
  uint64_t snapshot_version = 0;
  /// Expansion width (the same store is shared across shards, so every
  /// shard reports the same value; the router sanity-checks nothing here,
  /// it is for introspection).
  size_t terms = 0;
  /// End-to-end latency on this shard, including queue wait, milliseconds.
  double shard_ms = 0;
  /// The trace context the shard actually served under: the request's when
  /// it was valid, otherwise the fresh root the shard minted. Lets the
  /// router (and tests) confirm cross-process adoption.
  obs::TraceContext trace{};
  /// Where shard_ms went, from the shard's request record (piggybacked to
  /// the router so cross-shard profiles attribute shard latency to queue
  /// vs work): the admission-queue wait, expansion and detection. The
  /// shard path never ranks.
  double queue_ms = 0;
  double expand_ms = 0;
  double detect_ms = 0;
};

/// \brief One served answer, with provenance.
struct QueryResponse {
  std::vector<expert::RankedExpert> experts;
  /// Generation of the community store that produced the answer.
  uint64_t snapshot_version = 0;
  /// True when the answer came straight from the result cache.
  bool from_cache = false;
  /// True when this request waited on an identical in-flight one.
  bool deduplicated = false;
  /// Per-stage breakdown from the request's record (zero for cache hits
  /// and deduplicated waits).
  StageTimings stages;
  /// End-to-end latency from the record, including queue wait, in
  /// milliseconds.
  double total_ms = 0;
};

/// \brief The online query service: ESharp behind admission control, a
/// result cache, single-flight collapsing and hot-swappable snapshots.
///
/// The paper's online stage is a low-latency service over a weekly
/// refreshed index (§6.3); this engine is that stage made concurrent.
/// Request lifecycle:
///
///   Submit -> admission check (shed when over max_in_flight)
///          -> acquire snapshot (lock-free), pinning one generation for
///             the whole request
///          -> cache probe (lower-cased key, TTL check, entry version
///             validated against the pinned generation)
///          -> single-flight: followers wait for an identical leader
///          -> expand / collect / rank against the pinned snapshot, with
///             deadline checks between stages
///          -> populate cache
///
/// Each admitted request carries one obs::RequestRecord, stamped at every
/// stage boundary and finished once; the finish feeds the metrics, the
/// tracer, the slow-query log (/queryz) and the response breakdown, and
/// the record is visible in ActiveRequests() (/tracez) until then.
///
/// All public methods are thread-safe. The engine never blocks a swap:
/// SnapshotManager::Publish is wait-free with respect to readers, and
/// requests already executing finish against the generation they acquired.
class ServingEngine {
 public:
  /// `snapshots` must outlive the engine and should already have a
  /// published generation (requests fail FailedPrecondition otherwise).
  explicit ServingEngine(SnapshotManager* snapshots,
                         ServingOptions options = {});

  /// Blocks until no admitted request can still touch the engine: the
  /// owned pool (if any) is drained and joined, then the destructor waits
  /// for the in-flight count to hit zero, which covers requests queued on
  /// an external pool. Submitting new requests concurrently with
  /// destruction is undefined behavior, as for any object.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Asynchronous entry point: admission control runs inline (so shedding
  /// is immediate and cheap), the rest runs on the worker pool.
  std::future<Result<QueryResponse>> SubmitQuery(QueryRequest request);

  /// Synchronous entry point: same pipeline, executed on the caller's
  /// thread (closed-loop clients and tests).
  Result<QueryResponse> Query(QueryRequest request);

  /// Shard-side entry point of the cluster tier: expansion + candidate
  /// collection against the pinned snapshot, skipping the rank stage and
  /// the result cache (partition-local ranks are meaningless — see
  /// EvidenceResponse). Runs on the caller's thread under the same
  /// admission control, snapshot pinning and cooperative deadline as
  /// Query(); in-vocabulary terms are served from the snapshot's
  /// TermEvidenceIndex, which is this path's per-shard cache.
  Result<EvidenceResponse> QueryEvidence(QueryRequest request);

  /// Version of the current snapshot generation without acquiring it — a
  /// single atomic load, cheap enough for per-request cluster cache
  /// validation (0 before the first publish).
  uint64_t snapshot_version() const { return snapshots_->version(); }

  /// Snapshot-safe domain lookup (returns the community by value; see
  /// CommunityStore::FindCopy). NotFound when the term matches nothing.
  Result<community::Community> LookupDomain(const std::string& term) const;

  /// Drops every cached result (also happens lazily on snapshot swaps).
  void InvalidateCache() { cache_.InvalidateAll(); }

  const ServingMetrics& metrics() const { return metrics_; }
  ServingMetrics* mutable_metrics() { return &metrics_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  size_t cache_size() const { return cache_.size(); }
  const ServingOptions& options() const { return options_; }

  /// Requests currently admitted and not yet finished.
  size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// The health signals /readyz-style probes consume. Thread-safe, cheap
  /// enough to poll per scrape (one snapshot acquire + metric reads).
  HealthView Health() const;

  /// In-flight requests with their current stage and elapsed time, for
  /// /tracez. Ordered by submission time (admission order).
  std::vector<ActiveRequestInfo> ActiveRequests() const;

  /// The slow-query log behind /queryz: every finished request but cache
  /// hits, as a profile of its record.
  const obs::SlowQueryLog& slow_queries() const { return slow_log_; }

 private:
  /// Shared state of one single-flight group: the leader publishes its
  /// result here and wakes the followers.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<QueryResponse> result = Status::Internal("flight not finished");
  };

  /// Admission: returns false (and records the shed) when over capacity.
  bool TryAdmit();

  /// One admitted Query/SubmitQuery request, submitted at
  /// `submitted_seconds` (obs::NowSeconds() time base): opens its record,
  /// runs Execute and finishes the record.
  Result<QueryResponse> Run(const QueryRequest& request,
                            double submitted_seconds);

  /// The query pipeline, stamping `record` at each stage boundary.
  Result<QueryResponse> Execute(const QueryRequest& request,
                                obs::RequestRecord* record);

  /// The detector work proper, against one pinned snapshot.
  Result<QueryResponse> ExecuteUncached(
      const std::string& key, const QueryRequest& request,
      const std::shared_ptr<const ServingSnapshot>& snapshot,
      obs::RequestRecord* record);

  /// The detect stage shared by ExecuteUncached and ExecuteEvidence: look
  /// each expansion term up in the snapshot's evidence index, collect any
  /// term it lacks on this thread (deadline enforced cooperatively inside
  /// the collection loop), then merge the pools. Begins the record's
  /// "detect" stamp and annotates it with the terms/candidates counts, or
  /// with a "timeout" outcome when the deadline fires mid-collection (and
  /// returns DeadlineExceeded).
  Result<std::vector<expert::CandidateEvidence>> DetectMerged(
      const std::vector<std::string>& terms, double deadline_ms,
      const std::shared_ptr<const ServingSnapshot>& snapshot,
      obs::RequestRecord* record);

  /// The QueryEvidence pipeline, stamping `record`.
  Result<EvidenceResponse> ExecuteEvidence(const QueryRequest& request,
                                           obs::RequestRecord* record);

  /// Opens the record of an admitted request: its queue wait becomes the
  /// "admission" stage, and it joins the /tracez registry until Finish.
  void Open(obs::RequestRecord* record, const obs::TraceContext& trace);

  /// The one exit of every admitted request: finishes the record and feeds
  /// the metrics, the tracer and (all but cache hits) the slow-query log,
  /// then drops the record from the /tracez registry.
  void Finish(obs::RequestRecord* record, const Status& status,
              double deadline_ms);

  /// Drops stale cache entries when the snapshot generation moved.
  void MaybeInvalidateOnSwap(uint64_t current_version);

  SnapshotManager* snapshots_;
  ServingOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;  // owned_pool_.get() or options_.pool
  ShardedResultCache cache_;
  ServingMetrics metrics_;
  Timer clock_;  // monotonic time base for cache TTLs
  std::atomic<size_t> in_flight_{0};
  std::atomic<uint64_t> last_seen_version_{0};

  std::mutex flights_mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  obs::LiveRequests live_;      // /tracez in-flight table
  obs::SlowQueryLog slow_log_;  // /queryz
};

}  // namespace esharp::serving

#endif  // ESHARP_SERVING_ENGINE_H_
