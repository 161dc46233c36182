#include "cluster/health.h"

#include <cmath>
#include <memory>

#include "common/strings.h"
#include "obs/obs.h"

namespace esharp::cluster {

namespace {
/// Time constant of the per-shard qps window (matches ServingMetrics).
constexpr double kRateTauSeconds = 10.0;

/// Consecutive failures after which a shard reads kDown.
constexpr uint64_t kDownThreshold = 3;
}  // namespace

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kDegraded:
      return "degraded";
    case ShardState::kDown:
      return "down";
  }
  return "unknown";
}

ShardHealthTracker::ShardHealthTracker(std::vector<std::string> names,
                                       Options options)
    : options_(options) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  shards_.reserve(names.size());
  for (std::string& name : names) {
    auto shard = std::make_unique<PerShard>();
    shard->name = std::move(name);
    const obs::Labels labels{{"shard", shard->name}};
    shard->requests_counter =
        registry.GetCounter("cluster.shard.requests", labels);
    shard->failures_counter =
        registry.GetCounter("cluster.shard.failures", labels);
    shard->hedges_counter = registry.GetCounter("cluster.shard.hedges", labels);
    shard->last_event_time = Now();
    shards_.push_back(std::move(shard));
  }
}

double ShardHealthTracker::Now() const {
  return options_.clock ? options_.clock() : obs::NowSeconds();
}

void ShardHealthTracker::RecordAttempt(PerShard& shard, double latency_seconds,
                                       bool ok, uint64_t snapshot_version,
                                       const Status& error) {
  shard.requests_counter->Increment();
  if (!ok) shard.failures_counter->Increment();
  ShardState before;
  ShardState after;
  ShardStatus status_copy;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    before = StateForLocked(shard);
    ++shard.requests;
    if (ok) {
      shard.consecutive_failures = 0;
      if (snapshot_version != 0) shard.snapshot_version = snapshot_version;
    } else {
      ++shard.failures;
      ++shard.consecutive_failures;
      shard.last_error = error.ToString();
    }
    shard.latency.Add(latency_seconds);
    double now = Now();
    double dt = now - shard.last_event_time;
    if (dt > 0) shard.ewma_events *= std::exp(-dt / kRateTauSeconds);
    shard.ewma_events += 1.0;
    shard.last_event_time = now;
    after = StateForLocked(shard);
    if (after != before) status_copy = StatusOfLocked(shard);
  }
  if (after == before) return;
  // Emit outside the shard lock: the event log takes its own mutex, and
  // the transition hook may do arbitrary work (trigger a flight-recorder
  // bundle) that must never run under health-tracker locks.
  obs::EventLog* events =
      options_.events != nullptr ? options_.events : &obs::EventLog::Global();
  obs::LogLevel severity = after == ShardState::kDown ? obs::LogLevel::kERROR
                           : after == ShardState::kDegraded
                               ? obs::LogLevel::kWARN
                               : obs::LogLevel::kINFO;
  events->Add(severity, "cluster",
              StrFormat("shard %s %s -> %s", status_copy.name.c_str(),
                        ShardStateName(before), ShardStateName(after)),
              {{"shard", status_copy.name},
               {"from", ShardStateName(before)},
               {"to", ShardStateName(after)},
               {"consecutive_failures",
                StrFormat("%llu", static_cast<unsigned long long>(
                                      status_copy.consecutive_failures))},
               {"last_error", status_copy.last_error}});
  if (options_.on_transition) options_.on_transition(status_copy, before);
}

void ShardHealthTracker::RecordSuccess(size_t shard, double latency_seconds,
                                       uint64_t snapshot_version) {
  RecordAttempt(*shards_[shard], latency_seconds, /*ok=*/true,
                snapshot_version, Status::OK());
}

void ShardHealthTracker::RecordFailure(size_t shard, double latency_seconds,
                                       const Status& error) {
  RecordAttempt(*shards_[shard], latency_seconds, /*ok=*/false,
                /*snapshot_version=*/0, error);
}

void ShardHealthTracker::RecordHedge(size_t shard) {
  PerShard& s = *shards_[shard];
  s.hedges_counter->Increment();
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.hedges;
}

ShardState ShardHealthTracker::StateForLocked(const PerShard& shard) const {
  if (shard.consecutive_failures == 0) return ShardState::kHealthy;
  if (shard.consecutive_failures < kDownThreshold) {
    return ShardState::kDegraded;
  }
  return ShardState::kDown;
}

ShardState ShardHealthTracker::StateOf(size_t shard) const {
  const PerShard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return StateForLocked(s);
}

size_t ShardHealthTracker::healthy_shards() const {
  size_t healthy = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (StateOf(i) != ShardState::kDown) ++healthy;
  }
  return healthy;
}

double ShardHealthTracker::LatencyPercentileMs(double p) const {
  LatencyHistogram merged;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    merged.Merge(shard->latency);
  }
  return merged.Percentile(p) * 1e3;
}

size_t ShardHealthTracker::total_samples() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->latency.count();
  }
  return total;
}

ShardStatus ShardHealthTracker::StatusOfLocked(const PerShard& shard) const {
  ShardStatus status;
  status.name = shard.name;
  status.state = StateForLocked(shard);
  status.snapshot_version = shard.snapshot_version;
  status.requests = shard.requests;
  status.failures = shard.failures;
  status.hedges = shard.hedges;
  status.consecutive_failures = shard.consecutive_failures;
  double now = Now();
  double dt = now - shard.last_event_time;
  double decayed =
      dt > 0 ? shard.ewma_events * std::exp(-dt / kRateTauSeconds)
             : shard.ewma_events;
  status.window_qps = decayed / kRateTauSeconds;
  status.p50_ms = shard.latency.Percentile(50) * 1e3;
  status.p99_ms = shard.latency.Percentile(99) * 1e3;
  status.last_error = shard.last_error;
  return status;
}

ShardStatus ShardHealthTracker::StatusOf(size_t shard) const {
  const PerShard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return StatusOfLocked(s);
}

std::vector<ShardStatus> ShardHealthTracker::Snapshot() const {
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.push_back(StatusOfLocked(*shard));
  }
  return out;
}

std::string ShardHealthTracker::RenderTable() const {
  std::string out =
      "shard              state     snapshot      qps    p50_ms    p99_ms"
      "  requests  failures  hedges  last_error\n";
  for (const ShardStatus& s : Snapshot()) {
    out += StrFormat(
        "%-18s %-9s %8llu %8.1f %9.2f %9.2f %9llu %9llu %7llu  %s\n",
        s.name.c_str(), ShardStateName(s.state),
        static_cast<unsigned long long>(s.snapshot_version), s.window_qps,
        s.p50_ms, s.p99_ms, static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.failures),
        static_cast<unsigned long long>(s.hedges),
        s.last_error.empty() ? "-" : s.last_error.c_str());
  }
  return out;
}

}  // namespace esharp::cluster
