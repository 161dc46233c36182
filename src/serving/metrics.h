#ifndef ESHARP_SERVING_METRICS_H_
#define ESHARP_SERVING_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace esharp::serving {

/// \brief Wall time spent in each stage of one served request, in
/// milliseconds. Mirrors the paper's online split: Expansion (< 100 ms)
/// and Detection (< 1 s), with detection further split into candidate
/// collection and ranking.
struct StageTimings {
  double expand_ms = 0;
  double detect_ms = 0;
  double rank_ms = 0;
};

/// \brief Point-in-time view of the serving counters.
struct MetricsReport {
  uint64_t completed = 0;
  uint64_t cache_hits = 0;
  uint64_t deduplicated = 0;  // single-flight followers
  uint64_t shed = 0;
  uint64_t timeouts = 0;
  uint64_t errors = 0;
  double uptime_seconds = 0;
  double qps = 0;  // completed / uptime (lifetime average)
  /// Exponentially-decayed recent rate (time constant window_tau_seconds).
  /// Unlike `qps`, this recovers after idle periods: a steady 100 qps burst
  /// reads ~100 here even if the engine sat idle for an hour before.
  double window_qps = 0;
  double window_tau_seconds = 0;
  double cache_hit_rate = 0;
  // Total request latency percentiles, milliseconds.
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  // Per-stage mean latencies over executed (non-cached) requests, ms.
  double mean_expand_ms = 0;
  double mean_detect_ms = 0;
  double mean_rank_ms = 0;
};

/// \brief Thread-safe accounting for the serving engine, now a thin view
/// over instruments owned by the global obs::MetricsRegistry: counters as
/// sharded lock-free obs::Counter, latency distributions as registry
/// histograms. Each ServingMetrics instance gets an {"engine":"<n>"} label
/// so several engines in one process stay distinguishable, and everything
/// recorded here shows up in obs::DumpAll() / the JSON exporter alongside
/// the offline pipeline's resource gauges.
///
/// Every write Record makes goes to the calling thread's shard (counters,
/// histograms and the windowed rate alike), so requests finishing on
/// different threads share no lock. The shed path stays lock-free (sharded
/// counter increment), which must stay cheap precisely when the system is
/// overloaded.
class ServingMetrics {
 public:
  ServingMetrics();

  /// Records one finished request from its record. A "timeout" outcome
  /// counts a timeout, "error" and "invalid" count an error; every other
  /// outcome completed. A completed request's latency carries its trace id
  /// as an exemplar unless it was a cache hit, linking the histogram
  /// bucket to the request's /queryz profile. Requests that executed (not
  /// cache hits, not deduplicated) also feed the stage histograms: expand,
  /// detect and rank — the router's gather and merge_rank count as detect
  /// and rank.
  void Record(const obs::RequestRecord& record);

  /// Records a request rejected by admission control (it never gets a
  /// record).
  void RecordShed() { shed_->Increment(); }

  /// Snapshot of every counter and distribution.
  MetricsReport Report() const;

  /// Renders a human-readable dashboard block.
  std::string ToTable() const;

  /// Clears counters, histograms and the rate window (bench runs reuse one
  /// engine). Registry instrument pointers stay valid.
  void Reset();

  /// Test seam: replaces the clock used for uptime and the windowed rate.
  /// Pass nullptr to restore the default (obs::NowSeconds). Must return a
  /// monotonically non-decreasing seconds value, and may be called from
  /// any thread that records.
  void SetClockForTest(std::function<double()> clock);

 private:
  /// One thread shard of the windowed rate (see obs::ThreadShard): the
  /// EWMA mass of the requests its threads recorded, decayed to the last
  /// of them. The EWMA is linear, so the shards' masses, each decayed to
  /// one instant, sum to the mass of a single window over every request.
  struct alignas(64) RateShard {
    mutable std::mutex mu;
    double mass = 0;
    double last_event_time = 0;
  };

  /// The clock. Callers hold at least one rate shard's mutex: clock_ and
  /// start_time_ change only with every shard locked.
  double Now() const;
  /// Locks every rate shard, in index order.
  std::array<std::unique_lock<std::mutex>, obs::kThreadShards> LockRate()
      const;
  /// Empties the window and restarts uptime now; callers hold LockRate().
  void RestartWindow();

  // Registry-owned instruments (never deleted; safe to cache).
  obs::Counter* completed_;
  obs::Counter* cache_hits_;
  obs::Counter* deduplicated_;
  obs::Counter* shed_;
  obs::Counter* timeouts_;
  obs::Counter* errors_;
  obs::Histogram* total_;   // seconds, all completed requests
  obs::Histogram* expand_;  // seconds, executed requests only
  obs::Histogram* detect_;
  obs::Histogram* rank_;

  // Windowed-rate state (EWMA of request arrivals, time constant kTau).
  std::function<double()> clock_;  // null = obs::NowSeconds
  double start_time_ = 0;
  std::array<RateShard, obs::kThreadShards> rate_;
};

}  // namespace esharp::serving

#endif  // ESHARP_SERVING_METRICS_H_
