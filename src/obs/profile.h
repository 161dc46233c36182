#ifndef ESHARP_OBS_PROFILE_H_
#define ESHARP_OBS_PROFILE_H_

/// \file Per-request records, per-query profiles and the bounded
/// slow-query log.
///
/// A RequestRecord is the one timing record of a served request on either
/// tier: the engine and the router stamp it at each stage boundary and
/// finish it once, and every timing sink — metrics, spans, the slow-query
/// log, the response's own breakdown — reads the finished record.
///
/// A QueryProfile is the stitched cross-process picture of ONE query: the
/// router's own stages plus one lane per shard, each lane holding every
/// attempt (primary and hedge) the router launched there, with the shard's
/// piggybacked timing breakdown when the attempt answered. It is the
/// "which shard made this query slow, and was it the hedge or the
/// primary?" answer, exportable as a Chrome/Perfetto trace with one lane
/// per shard.
///
/// The SlowQueryLog retains a bounded set of profiles — the top-K slowest
/// plus a ring of recent ones — and backs the /queryz debugz endpoint.
/// Profiles never hold the result payload (no expert lists), only timing,
/// attribution and the query text, so the log's footprint is a few KB per
/// entry regardless of answer size.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace esharp::obs {

class DebugServer;  // obs/debugz.h; only needed by MountQueryz
class Tracer;       // obs/trace.h

/// \brief One named interval inside a profile, relative to the query's
/// admission (milliseconds).
struct ProfileStage {
  std::string name;
  double start_ms = 0;
  double dur_ms = 0;
};

/// \brief One attempt the router launched against one shard. A lane holds
/// one of these for the primary and, when the hedge trigger fired, a
/// second for the hedge.
struct LaneAttempt {
  bool hedge = false;
  /// True when this attempt's evidence is the one the answer used (the
  /// first finisher per shard wins; a hedge with won=true is a hedge win).
  bool won = false;
  /// "ok", "error", or "outstanding" (still running when the router
  /// stopped gathering — the deadline attribution for a lane that never
  /// answered).
  std::string outcome = "outstanding";
  /// Error detail when outcome == "error" (shard status message).
  std::string detail;
  double start_ms = 0;  ///< Launch offset from query admission.
  double dur_ms = 0;    ///< 0 while outstanding.
  /// Budget the router granted this attempt (90% of the remaining client
  /// budget at launch); 0 = none.
  double deadline_ms = 0;
  /// Shard-side breakdown piggybacked on the evidence response (all 0 when
  /// the attempt failed before the shard answered).
  double queue_ms = 0;
  double expand_ms = 0;
  double detect_ms = 0;
  size_t candidates = 0;
  bool has_breakdown = false;
};

/// \brief One shard's lane in the profile. Present for every shard the
/// query scattered to — a dead or timed-out shard keeps its lane with an
/// annotation, it does not silently vanish from the picture.
struct ProfileLane {
  std::string name;
  /// Why this lane contributed nothing ("" when it answered).
  std::string annotation;
  std::vector<LaneAttempt> attempts;
};

/// \brief The profile of one query. A routed query's is stitched across
/// processes: the router's stages plus one lane per shard. An engine's
/// holds its own stages and no lanes.
struct QueryProfile {
  TraceContext trace;
  std::string query;
  /// The record's outcome: "ok", "degraded", "deduplicated", "timeout",
  /// "error", "invalid".
  std::string outcome;
  double total_ms = 0;
  double merge_ms = 0;
  double deadline_ms = 0;  ///< Client budget; 0 = none.
  size_t shards_total = 0;
  size_t shards_answered = 0;
  size_t hedges_fired = 0;
  bool degraded = false;
  /// The record's stages: the router's gather and merge_rank, or the
  /// engine's admission, cache, expand, detect and rank.
  std::vector<ProfileStage> stages;
  std::vector<ProfileLane> lanes;  ///< One per shard, scatter order.
  double recorded_at_seconds = 0;  ///< obs::NowSeconds() time base.

  /// Chrome trace JSON for this one query: tid 0 is the router (or engine)
  /// lane, tid i+1 is shard lane i (thread_name metadata carries the shard
  /// names).
  /// Attempts render as complete events with hedge/won/deadline/outcome
  /// args; an answered attempt nests its shard-side queue/expand/detect
  /// breakdown inside itself. Loads in chrome://tracing and Perfetto.
  std::string ExportChromeJson() const;
};

/// \brief The timing record of one served request, shared by the serving
/// engine and the cluster router: the trace context, the submission time,
/// a fixed array of named stage stamps and one outcome. The request path
/// makes one call per stage boundary and one Finish; the sinks then read
/// the finished record — serving::ServingMetrics::Record, EmitSpans (the
/// tracer), FillProfile (the slow-query log) and the caller's response
/// breakdown. A stack value: stamping allocates nothing and locks nothing.
class RequestRecord {
 public:
  /// Stages one record holds. The longest chain, an engine miss, has five:
  /// admission, cache, expand, detect, rank.
  static constexpr size_t kMaxStages = 6;
  /// Integer annotations one stamp holds (detect carries three).
  static constexpr size_t kMaxCounts = 3;

  /// One named interval and the annotations its span carries.
  struct Stamp {
    const char* name = nullptr;
    double start_seconds = 0;  ///< obs::NowSeconds() time base.
    double end_seconds = 0;
    /// The span's "outcome" annotation; null when it carries none.
    const char* outcome = nullptr;
    std::array<std::pair<const char*, int64_t>, kMaxCounts> counts{};
    size_t num_counts = 0;

    double ms() const { return (end_seconds - start_seconds) * 1e3; }
    /// Adds an integer annotation; beyond kMaxCounts it is dropped.
    void Count(const char* key, int64_t value) {
      if (num_counts < kMaxCounts) counts[num_counts++] = {key, value};
    }
  };

  /// `root` names the request's own span ("request", "shard_request",
  /// "cluster_request"). `query` must outlive the record.
  RequestRecord(const char* root, std::string_view query,
                double submitted_seconds);

  RequestRecord(const RequestRecord&) = delete;
  RequestRecord& operator=(const RequestRecord&) = delete;

  /// Stage boundary: closes the running stage, if any, and starts `name`
  /// now. The returned stamp takes the stage's annotations.
  Stamp& Begin(const char* name);
  /// Closes the running stage now (no-op when none runs).
  void End();
  /// Appends an already-finished stage (the engine's queue wait).
  void Add(const char* name, double start_seconds, double end_seconds);

  /// The request's own stamp: its span's integer annotations go here.
  Stamp& root() { return root_; }
  void set_outcome(const char* outcome) { root_.outcome = outcome; }
  void set_trace(const TraceContext& trace) { trace_ = trace; }

  /// Closes the running stage and the request, now. An outcome the path
  /// did not set follows `status`: "ok", "timeout" (DeadlineExceeded) or
  /// "error". Called once per request.
  void Finish(const Status& status);

  const TraceContext& trace() const { return trace_; }
  std::string_view query() const { return query_; }
  const char* outcome() const { return root_.outcome; }
  double submitted_seconds() const { return root_.start_seconds; }
  /// Milliseconds since submission: the clock every deadline runs on.
  double ElapsedMs() const;
  /// Submission to Finish, milliseconds.
  double total_ms() const { return root_.ms(); }
  /// Duration of the named stage in milliseconds; 0 when it never ran.
  double StageMs(std::string_view name) const;
  /// The stage /tracez shows: the last one begun, "admitted" before any.
  /// Safe to read from any thread while the record is registered.
  const char* live_stage() const {
    return live_stage_.load(std::memory_order_relaxed);
  }
  /// Unique non-zero id, assigned by LiveRequests::Add (0 = unregistered).
  uint64_t id() const { return id_; }

  /// Emits the request as spans: the root span (named by `root`, tagged
  /// with the trace id and annotated with the root counts and outcome) and
  /// one child per stamp, children first in stage order — the order in
  /// which they ended. Null `tracer` emits nothing; so does a build with
  /// ESHARP_OBS_OFF.
  void EmitSpans(Tracer* tracer) const;

  /// Fills the trace, query, outcome, total, finish time and one stage per
  /// stamp (offsets from submission) of `profile`. Tier-specific fields —
  /// the router's lanes and shard counts, the deadline — are the caller's.
  void FillProfile(QueryProfile* profile) const;

 private:
  friend class LiveRequests;

  /// Takes the next stage slot for a stamp starting at `start_seconds`.
  Stamp& Append(const char* name, double start_seconds);

  Stamp root_;
  std::array<Stamp, kMaxStages> stages_;
  size_t num_stages_ = 0;
  bool running_ = false;  // stages_[num_stages_ - 1] has not ended
  TraceContext trace_;
  std::string_view query_;
  std::atomic<const char*> live_stage_{"admitted"};
  // LiveRequests membership (guarded by the mutex of the record's shard).
  uint64_t id_ = 0;
  RequestRecord* prev_ = nullptr;
  RequestRecord* next_ = nullptr;
};

/// \brief The in-flight records of one engine, behind the /tracez table:
/// one intrusive list per thread shard (see ThreadShard in obs/metrics.h).
/// Add and Remove take the calling thread's shard mutex and link only
/// records of that shard, so requests on different threads share no lock
/// and write no other request's record; the stage changes of a registered
/// record take none.
class LiveRequests {
 public:
  /// Registers `record` until Remove, assigning its id: unique and
  /// non-zero, and naming the shard that holds the record, so Remove may
  /// run on any thread.
  void Add(RequestRecord* record);
  void Remove(RequestRecord* record);

  /// Calls `fn(const RequestRecord&)` for every registered record, one
  /// shard at a time under that shard's mutex (so `fn` must be quick and
  /// must not block). The order is unspecified: sort by
  /// submitted_seconds() for admission order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const RequestRecord* r = shard.head; r != nullptr; r = r->next_) {
        fn(*r);
      }
    }
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    RequestRecord* head = nullptr;
    uint64_t next_sequence = 1;
  };
  std::array<Shard, kThreadShards> shards_;
};

struct SlowQueryLogOptions {
  /// Slowest profiles retained (by total_ms), a bounded leaderboard.
  size_t top_k = 16;
  /// Most recent profiles retained regardless of latency, a ring.
  size_t recent = 32;
};

/// \brief Bounded retention of query profiles: the top-K slowest plus a
/// ring of recent ones. Thread-safe; entries are shared_ptr<const ...> so
/// a /queryz render never blocks or races recording. Never stores result
/// payloads — see the file comment.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(SlowQueryLogOptions options = {});

  void Record(std::shared_ptr<const QueryProfile> profile);

  /// Slowest first.
  std::vector<std::shared_ptr<const QueryProfile>> TopK() const;

  /// Newest first.
  std::vector<std::shared_ptr<const QueryProfile>> Recent() const;

  /// Profile whose 32-hex trace id matches, or nullptr. Also accepts a
  /// full "00-...-...-.." header (the id is extracted).
  std::shared_ptr<const QueryProfile> Find(std::string_view trace_id) const;

  /// Profiles recorded since construction (retention is bounded; this is
  /// not).
  uint64_t recorded() const;

  const SlowQueryLogOptions& options() const { return options_; }

  /// {"recorded":N,"top":[...],"recent":[...]} — the /queryz?format=json
  /// body. Each entry is a summary (trace id, query, outcome, totals, per
  /// lane attempt outcomes), not the full Chrome trace.
  std::string RenderJson() const;

 private:
  SlowQueryLogOptions options_;
  mutable std::mutex mu_;
  /// Sorted descending by total_ms, size <= top_k.
  std::vector<std::shared_ptr<const QueryProfile>> top_;
  std::vector<std::shared_ptr<const QueryProfile>> recent_;  // ring
  size_t recent_pos_ = 0;
  uint64_t recorded_ = 0;
};

/// \brief Mounts /queryz on `server`: an HTML table of the slowest and
/// most recent queries (?format=json for machines), and
/// ?trace=<32-hex id> to download one query's stitched Chrome trace. The
/// log must outlive the server.
void MountQueryz(DebugServer* server, const SlowQueryLog* log);

}  // namespace esharp::obs

#endif  // ESHARP_OBS_PROFILE_H_
