#ifndef ESHARP_CLUSTER_HEALTH_H_
#define ESHARP_CLUSTER_HEALTH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace esharp::cluster {

/// \brief Router-side verdict on one shard, derived from its recent attempt
/// outcomes (no out-of-band health checks: the query traffic itself is the
/// probe, so a shard that answers queries is healthy by construction).
enum class ShardState {
  kHealthy,   ///< Last attempt succeeded.
  kDegraded,  ///< 1 or 2 consecutive failures.
  kDown,      ///< 3 or more consecutive failures.
};

const char* ShardStateName(ShardState state);

/// \brief Point-in-time stats of one shard, for /statusz and tests.
struct ShardStatus {
  std::string name;
  ShardState state = ShardState::kHealthy;
  uint64_t snapshot_version = 0;  ///< Last version a success reported.
  uint64_t requests = 0;          ///< Attempts, successes + failures.
  uint64_t failures = 0;
  uint64_t hedges = 0;
  uint64_t consecutive_failures = 0;
  double window_qps = 0;  ///< EWMA attempt rate (tau ~10 s).
  double p50_ms = 0;
  double p99_ms = 0;
  /// The most recent failure's Status::ToString() — over the HTTP
  /// transport this is the shard's own error detail carried through the
  /// wire ("Failed precondition: no snapshot published yet"), not just an
  /// HTTP code. Empty until a failure occurs; kept after recovery so
  /// /statusz still shows what last went wrong.
  std::string last_error;
};

/// \brief Per-shard outcome/latency accounting behind the router: feeds the
/// hedging trigger (cluster-wide latency percentile), the degraded-mode
/// decision (StateOf), the /statusz shard table and the quorum readiness
/// probe. Every attempt — primary or hedge, success or failure — is
/// recorded, so a down shard keeps accumulating evidence of being down.
///
/// All methods are thread-safe. Counters mirror into the global
/// MetricsRegistry as cluster.shard.* with a {shard=<name>} label.
class ShardHealthTracker {
 public:
  struct Options {
    /// Test seam: replaces obs::NowSeconds for the qps window.
    std::function<double()> clock;
    /// Invoked on every state transition (healthy <-> degraded <-> down),
    /// outside the per-shard lock, on whichever thread recorded the
    /// attempt. Must be thread-safe. The flight recorder's
    /// shard-down trigger hangs off this.
    std::function<void(const ShardStatus& status, ShardState previous)>
        on_transition;
    /// Transition events land here (null = obs::EventLog::Global()).
    obs::EventLog* events = nullptr;
  };

  explicit ShardHealthTracker(std::vector<std::string> names)
      : ShardHealthTracker(std::move(names), Options()) {}
  ShardHealthTracker(std::vector<std::string> names, Options options);

  size_t num_shards() const { return shards_.size(); }

  void RecordSuccess(size_t shard, double latency_seconds,
                     uint64_t snapshot_version);
  /// `error` becomes the shard's last_error (default keeps the old
  /// call shape working where the cause is unknown).
  void RecordFailure(size_t shard, double latency_seconds,
                     const Status& error = Status::Internal("unknown"));
  void RecordHedge(size_t shard);

  ShardState StateOf(size_t shard) const;

  /// Shards currently not kDown.
  size_t healthy_shards() const;

  /// Cluster-wide shard-attempt latency percentile in milliseconds,
  /// merged across shards (the hedging trigger's input). 0 until any
  /// attempt was recorded.
  double LatencyPercentileMs(double p) const;

  /// Total attempts recorded across all shards (hedging warmup gate).
  size_t total_samples() const;

  ShardStatus StatusOf(size_t shard) const;
  std::vector<ShardStatus> Snapshot() const;

  /// Plain-text shard table for the /statusz overview block.
  std::string RenderTable() const;

 private:
  struct PerShard {
    mutable std::mutex mu;
    std::string name;
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t hedges = 0;
    uint64_t consecutive_failures = 0;
    uint64_t snapshot_version = 0;
    std::string last_error;
    LatencyHistogram latency;  // seconds
    double ewma_events = 0;
    double last_event_time = 0;
    // Registry mirrors (never deleted; safe to cache).
    obs::Counter* requests_counter = nullptr;
    obs::Counter* failures_counter = nullptr;
    obs::Counter* hedges_counter = nullptr;
  };

  double Now() const;
  void RecordAttempt(PerShard& shard, double latency_seconds, bool ok,
                     uint64_t snapshot_version, const Status& error);
  ShardState StateForLocked(const PerShard& shard) const;
  ShardStatus StatusOfLocked(const PerShard& shard) const;

  Options options_;
  std::vector<std::unique_ptr<PerShard>> shards_;
};

}  // namespace esharp::cluster

#endif  // ESHARP_CLUSTER_HEALTH_H_
