#include "serving/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "common/strings.h"

namespace esharp::serving {

namespace {

/// The cooperative deadline of one request's live collection: polled by
/// CollectCandidates on entry and every kCollectCancelStride matching
/// tweets, on the clock every deadline of the request runs on.
class RecordDeadline final : public expert::CollectCancel {
 public:
  RecordDeadline(const obs::RequestRecord* record, double deadline_ms)
      : record_(record), deadline_ms_(deadline_ms) {}

  bool Cancelled() override {
    return deadline_ms_ > 0 && record_->ElapsedMs() > deadline_ms_;
  }

 private:
  const obs::RequestRecord* record_;
  double deadline_ms_;  // <= 0: none
};

}  // namespace

ServingEngine::ServingEngine(SnapshotManager* snapshots,
                             ServingOptions options)
    : snapshots_(snapshots),
      options_(options),
      owned_pool_(options.pool == nullptr
                      ? std::make_unique<ThreadPool>(options.num_threads)
                      : nullptr),
      pool_(options.pool != nullptr ? options.pool : owned_pool_.get()),
      cache_(options.cache),
      last_seen_version_(snapshots->version()) {}

ServingEngine::~ServingEngine() {
  // Drain before any member is destroyed. Destroying the owned pool runs
  // its remaining queued tasks and joins the workers; queued work on an
  // external pool cannot be cancelled, so additionally wait for every
  // admitted request to release its admission slot — the release is the
  // last access a worker task makes to this engine's members, so once
  // in_flight_ reads zero no task can touch cache_, metrics_ or flights_.
  owned_pool_.reset();
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

bool ServingEngine::TryAdmit() {
  size_t admitted = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (admitted >= options_.max_in_flight) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_.RecordShed();
#if ESHARP_OBS_ENABLED
    if (options_.tracer != nullptr) {
      // Zero-length event: the request never got a span of its own.
      double now = obs::NowSeconds();
      options_.tracer->RecordSpan("shed", /*parent=*/nullptr, now, now,
                                  {{"outcome", "shed"}});
    }
#endif
    return false;
  }
  return true;
}

std::future<Result<QueryResponse>> ServingEngine::SubmitQuery(
    QueryRequest request) {
  std::promise<Result<QueryResponse>> promise;
  std::future<Result<QueryResponse>> future = promise.get_future();
  if (!TryAdmit()) {
    promise.set_value(Status::Unavailable(
        "overloaded: ", options_.max_in_flight, " requests in flight"));
    return future;
  }
  auto shared_promise =
      std::make_shared<std::promise<Result<QueryResponse>>>(
          std::move(promise));
  const double submitted = obs::NowSeconds();
  pool_->Submit([this, shared_promise, submitted,
                 request = std::move(request)]() mutable {
    Result<QueryResponse> result = Run(request, submitted);
    // Release the admission slot before fulfilling the future, so a caller
    // that observed completion also observes the slot as free.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    shared_promise->set_value(std::move(result));
  });
  return future;
}

Result<QueryResponse> ServingEngine::Query(QueryRequest request) {
  if (!TryAdmit()) {
    return Status::Unavailable("overloaded: ", options_.max_in_flight,
                               " requests in flight");
  }
  Result<QueryResponse> result = Run(request, obs::NowSeconds());
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return result;
}

// ---- The request record: open once, finish once --------------------------

void ServingEngine::Open(obs::RequestRecord* record,
                         const obs::TraceContext& trace) {
  record->set_trace(trace);
  record->Add("admission", record->submitted_seconds(), obs::NowSeconds());
  live_.Add(record);
}

void ServingEngine::Finish(obs::RequestRecord* record, const Status& status,
                           double deadline_ms) {
  record->Finish(status);
  const bool cache_hit = std::string_view(record->outcome()) == "cache_hit";
  // Spans and profiles are keyed by trace id; only an untraced cache hit
  // can do without one.
  if (!record->trace().valid() &&
      (options_.tracer != nullptr || !cache_hit)) {
    record->set_trace(obs::TraceContext::NewRoot());
  }
  metrics_.Record(*record);
  record->EmitSpans(options_.tracer);
  if (!cache_hit) {
    auto profile = std::make_shared<obs::QueryProfile>();
    record->FillProfile(profile.get());
    profile->deadline_ms = std::max(0.0, deadline_ms);
    slow_log_.Record(std::move(profile));
  }
  live_.Remove(record);
}

Result<QueryResponse> ServingEngine::Run(const QueryRequest& request,
                                         double submitted_seconds) {
  obs::RequestRecord record("request", request.query, submitted_seconds);
  Open(&record, request.trace);
  Result<QueryResponse> result = Execute(request, &record);
  Finish(&record, result.status(), request.deadline_ms);
  if (result.ok()) {
    result->stages = StageTimings{record.StageMs("expand"),
                                  record.StageMs("detect"),
                                  record.StageMs("rank")};
    result->total_ms = record.total_ms();
  }
  return result;
}

std::vector<ActiveRequestInfo> ServingEngine::ActiveRequests() const {
  const double now = obs::NowSeconds();
  std::vector<ActiveRequestInfo> out;
  live_.ForEach([&out, now](const obs::RequestRecord& record) {
    ActiveRequestInfo info;
    info.id = record.id();
    info.query = std::string(record.query());
    info.stage = record.live_stage();
    info.elapsed_ms = (now - record.submitted_seconds()) * 1e3;
    out.push_back(std::move(info));
  });
  // The registry lists per thread shard; the longest-waiting request was
  // submitted first.
  std::sort(out.begin(), out.end(),
            [](const ActiveRequestInfo& a, const ActiveRequestInfo& b) {
              return a.elapsed_ms != b.elapsed_ms ? a.elapsed_ms > b.elapsed_ms
                                                  : a.id < b.id;
            });
  return out;
}

HealthView ServingEngine::Health() const {
  HealthView view;
  std::shared_ptr<const ServingSnapshot> snapshot = snapshots_->Acquire();
  if (snapshot == nullptr) {
    view.ready = false;
    view.detail = "no snapshot published yet";
  } else {
    view.ready = true;
    view.snapshot_version = snapshot->version();
    view.snapshot_age_seconds =
        obs::NowSeconds() - snapshot->published_at_seconds();
  }
  view.in_flight = in_flight_.load(std::memory_order_relaxed);
  view.max_in_flight = options_.max_in_flight;
  view.queue_fill =
      options_.max_in_flight == 0
          ? 0
          : static_cast<double>(view.in_flight) /
                static_cast<double>(options_.max_in_flight);
  MetricsReport report = metrics_.Report();
  view.completed = report.completed;
  view.shed = report.shed;
  view.window_qps = report.window_qps;
  return view;
}

Result<community::Community> ServingEngine::LookupDomain(
    const std::string& term) const {
  std::shared_ptr<const ServingSnapshot> snapshot = snapshots_->Acquire();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no snapshot published yet");
  }
  // FindCopy: the returned Community is detached from the store, so the
  // caller may hold it across any number of hot swaps.
  return snapshot->store().FindCopy(term);
}

void ServingEngine::MaybeInvalidateOnSwap(uint64_t current_version) {
  uint64_t seen = last_seen_version_.load(std::memory_order_acquire);
  // `seen > current_version` means this request pinned an older generation
  // than one already swept for; never move the high-water mark backwards.
  if (seen >= current_version) return;
  // One thread wins the CAS and performs the eager sweep; per-entry
  // version checks in Get() cover any race window.
  if (last_seen_version_.compare_exchange_strong(seen, current_version,
                                                 std::memory_order_acq_rel)) {
    cache_.InvalidateAll();
  }
}

Result<QueryResponse> ServingEngine::Execute(const QueryRequest& request,
                                             obs::RequestRecord* record) {
  if (request.query.empty()) {
    record->set_outcome("invalid");
    return Status::InvalidArgument("empty query");
  }
  // Pin the serving generation before touching the cache, so validation,
  // execution and provenance all agree on one version. Reading the version
  // counter separately would open a window where a swap completing between
  // the read and the probe serves one cached answer computed against the
  // just-replaced generation.
  std::shared_ptr<const ServingSnapshot> snapshot = snapshots_->Acquire();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no snapshot published yet");
  }
  uint64_t version = snapshot->version();
  MaybeInvalidateOnSwap(version);

  // Cache keys use the same normalization as the store lookup (§5).
  std::string key = ToLowerAscii(request.query);
  bool use_cache = options_.enable_cache && !request.bypass_cache;
  obs::RequestRecord::Stamp& cache_stage = record->Begin("cache");
  if (use_cache) {
    std::optional<CachedResult> cached =
        cache_.Get(key, clock_.ElapsedSeconds(), version);
    if (cached.has_value()) {
      cache_stage.outcome = "hit";
      record->set_outcome("cache_hit");
      QueryResponse response;
      response.experts = std::move(cached->experts);
      response.snapshot_version = cached->snapshot_version;
      response.from_cache = true;
      return response;
    }
    cache_stage.outcome = "miss";
  } else {
    cache_stage.outcome = request.bypass_cache ? "bypass" : "off";
  }
  record->End();

  const double deadline_ms = request.deadline_ms;
  if (deadline_ms > 0 && record->ElapsedMs() > deadline_ms) {
    return Status::DeadlineExceeded("deadline of ", deadline_ms,
                                    " ms elapsed in queue");
  }

  if (!options_.enable_single_flight || request.bypass_cache) {
    return ExecuteUncached(key, request, snapshot, record);
  }

  // Single-flight: the first request for a key becomes the leader and runs
  // the detector; identical concurrent requests wait for its result.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(key);
    if (it == flights_.end()) {
      flight = std::make_shared<Flight>();
      flights_.emplace(key, flight);
      leader = true;
    } else {
      flight = it->second;
    }
  }

  if (leader) {
    Result<QueryResponse> result =
        ExecuteUncached(key, request, snapshot, record);
    {
      std::lock_guard<std::mutex> lock(flights_mu_);
      flights_.erase(key);
    }
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      flight->result = result;
      flight->done = true;
    }
    flight->cv.notify_all();
    return result;
  }

  // Follower: wait for the leader. Followers share the leader's outcome
  // (including its error, mirroring the usual single-flight contract), but
  // report their own end-to-end latency and honor their own deadline. An
  // inherited failure is still this request's outcome, so the timeout and
  // error counters stay consistent across the leader/follower split.
  record->Begin("flight_wait");
  std::unique_lock<std::mutex> lock(flight->mu);
  if (deadline_ms > 0) {
    double remaining_ms = std::max(0.0, deadline_ms - record->ElapsedMs());
    bool done = flight->cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(remaining_ms),
        [&flight] { return flight->done; });
    if (!done) {
      return Status::DeadlineExceeded("deadline of ", deadline_ms,
                                      " ms elapsed waiting for leader");
    }
  } else {
    flight->cv.wait(lock, [&flight] { return flight->done; });
  }
  record->End();
  Result<QueryResponse> result = flight->result;
  lock.unlock();
  if (!result.ok()) return result;
  QueryResponse response = result.MoveValueUnsafe();
  response.deduplicated = true;
  record->set_outcome("deduplicated");
  return response;
}

Result<QueryResponse> ServingEngine::ExecuteUncached(
    const std::string& key, const QueryRequest& request,
    const std::shared_ptr<const ServingSnapshot>& snapshot,
    obs::RequestRecord* record) {
  if (options_.execution_hook) options_.execution_hook(key);
  const core::ESharp& esharp = snapshot->esharp();
  QueryResponse response;
  response.snapshot_version = snapshot->version();

  // Stage 1: expansion (§5 — the paper's < 100 ms stage).
  obs::RequestRecord::Stamp& expand = record->Begin("expand");
  core::QueryExpansion expansion = esharp.Expand(request.query);
  expand.Count("terms", static_cast<int64_t>(expansion.terms.size()));

  // Stage 2: candidate collection (shared with the cluster tier's
  // QueryEvidence path; see DetectMerged).
  Result<std::vector<expert::CandidateEvidence>> detected =
      DetectMerged(expansion.terms, request.deadline_ms, snapshot, record);
  if (!detected.ok()) return detected.status();

  // Stage 3: ranking (z-scored features over the union pool).
  obs::RequestRecord::Stamp& rank = record->Begin("rank");
  Result<std::vector<expert::RankedExpert>> ranked =
      esharp.detector().RankCandidates(detected.ValueOrDie());
  if (!ranked.ok()) {
    rank.outcome = "error";
    return ranked.status();
  }
  response.experts = ranked.MoveValueUnsafe();
  rank.Count("experts", static_cast<int64_t>(response.experts.size()));
  record->End();

  if (options_.enable_cache && !request.bypass_cache) {
    cache_.Put(key, CachedResult{response.experts, response.snapshot_version},
               clock_.ElapsedSeconds());
  }
  return response;
}

Result<std::vector<expert::CandidateEvidence>> ServingEngine::DetectMerged(
    const std::vector<std::string>& terms, double deadline_ms,
    const std::shared_ptr<const ServingSnapshot>& snapshot,
    obs::RequestRecord* record) {
  // A term in the generation's index resolves to its precomputed pool (a
  // hash lookup); any other term is collected here, on the request's
  // thread, with the deadline polled inside the collection so one term
  // over a head token's postings cannot blow the budget unchecked.
  obs::RequestRecord::Stamp& detect = record->Begin("detect");
  const expert::TermEvidenceIndex& evidence = *snapshot->evidence();
  const expert::ExpertDetector& detector = snapshot->esharp().detector();
  RecordDeadline deadline(record, deadline_ms);
  std::vector<const expert::TermEvidenceIndex::Pool*> pools;
  pools.reserve(terms.size());
  std::vector<expert::TermEvidenceIndex::Pool> live;
  live.reserve(terms.size());  // pools point into it
  for (const std::string& term : terms) {
    const expert::TermEvidenceIndex::Pool* pool = evidence.Find(term);
    if (pool == nullptr) {
      // Expansion terms are already lower-cased: split + intern only.
      std::optional<expert::TermEvidenceIndex::Pool> collected =
          detector.CollectCandidates(
              detector.corpus()->TokenizeNormalized(term), &deadline);
      if (!collected.has_value()) {
        detect.outcome = "timeout";
        return Status::DeadlineExceeded("deadline of ", deadline_ms,
                                        " ms elapsed during detection");
      }
      live.push_back(std::move(*collected));
      pool = &live.back();
    }
    pools.push_back(pool);
  }

  std::vector<expert::CandidateEvidence> merged =
      expert::MergeEvidenceViews(pools);
  detect.Count("terms_precomputed",
               static_cast<int64_t>(terms.size() - live.size()));
  detect.Count("terms_live", static_cast<int64_t>(live.size()));
  detect.Count("candidates", static_cast<int64_t>(merged.size()));
  return merged;
}

Result<EvidenceResponse> ServingEngine::QueryEvidence(QueryRequest request) {
  if (!TryAdmit()) {
    return Status::Unavailable("overloaded: ", options_.max_in_flight,
                               " requests in flight");
  }
  // Adopt the router's trace context when the request carries one; a
  // direct caller (tests, single-node serving) gets a fresh root. Echoed
  // in the response so the router can assert cross-process adoption.
  obs::RequestRecord record("shard_request", request.query,
                            obs::NowSeconds());
  Open(&record, request.trace.valid() ? request.trace
                                      : obs::TraceContext::NewRoot());
  Result<EvidenceResponse> result = ExecuteEvidence(request, &record);
  Finish(&record, result.status(), request.deadline_ms);
  if (result.ok()) {
    result->shard_ms = record.total_ms();
    result->queue_ms = record.StageMs("admission");
    result->expand_ms = record.StageMs("expand");
    result->detect_ms = record.StageMs("detect");
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return result;
}

Result<EvidenceResponse> ServingEngine::ExecuteEvidence(
    const QueryRequest& request, obs::RequestRecord* record) {
  // A leaner Execute(): no result cache and no single-flight — the
  // per-term pools in the snapshot's TermEvidenceIndex already are this
  // path's cache, and deduplication belongs at the router, which sees the
  // whole query stream. Shows up in /tracez like any other request.
  if (request.query.empty()) {
    record->set_outcome("invalid");
    return Status::InvalidArgument("empty query");
  }
  std::shared_ptr<const ServingSnapshot> snapshot = snapshots_->Acquire();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no snapshot published yet");
  }
  const double deadline_ms = request.deadline_ms;
  if (deadline_ms > 0 && record->ElapsedMs() > deadline_ms) {
    return Status::DeadlineExceeded("deadline of ", deadline_ms,
                                    " ms elapsed in queue");
  }

  EvidenceResponse response;
  response.snapshot_version = snapshot->version();
  response.trace = record->trace();

  record->Begin("expand");
  core::QueryExpansion expansion = snapshot->esharp().Expand(request.query);
  response.terms = expansion.terms.size();

  Result<std::vector<expert::CandidateEvidence>> detected =
      DetectMerged(expansion.terms, deadline_ms, snapshot, record);
  if (!detected.ok()) return detected.status();
  response.evidence = detected.MoveValueUnsafe();
  record->End();
  return response;
}

}  // namespace esharp::serving
