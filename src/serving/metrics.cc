#include "serving/metrics.h"

#include <atomic>
#include <cmath>

#include "common/strings.h"

namespace esharp::serving {

namespace {

/// Time constant of the windowed rate: a burst that stops decays to ~37%
/// in one tau, so the window tracks "the last ten seconds or so".
constexpr double kRateTauSeconds = 10.0;

/// Distinguishes several engines in one process: the registry interns
/// instruments by (name, labels), so each ServingMetrics instance needs
/// its own label value to avoid merging another engine's traffic.
std::string NextEngineLabel() {
  static std::atomic<uint64_t> next{0};
  return StrFormat("%llu", static_cast<unsigned long long>(
                               next.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

ServingMetrics::ServingMetrics() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Labels engine{{"engine", NextEngineLabel()}};
  auto stage_labels = [&engine](const char* stage) {
    obs::Labels labels = engine;
    labels.emplace_back("stage", stage);
    return labels;
  };
  completed_ = registry.GetCounter("serving.completed", engine);
  cache_hits_ = registry.GetCounter("serving.cache_hits", engine);
  deduplicated_ = registry.GetCounter("serving.deduplicated", engine);
  shed_ = registry.GetCounter("serving.shed", engine);
  timeouts_ = registry.GetCounter("serving.timeouts", engine);
  errors_ = registry.GetCounter("serving.errors", engine);
  total_ = registry.GetHistogram("serving.latency_seconds", engine);
  expand_ = registry.GetHistogram("serving.stage_seconds",
                                  stage_labels("expand"));
  detect_ = registry.GetHistogram("serving.stage_seconds",
                                  stage_labels("detect"));
  rank_ = registry.GetHistogram("serving.stage_seconds", stage_labels("rank"));
  RestartWindow();
}

double ServingMetrics::Now() const {
  return clock_ ? clock_() : obs::NowSeconds();
}

std::array<std::unique_lock<std::mutex>, obs::kThreadShards>
ServingMetrics::LockRate() const {
  std::array<std::unique_lock<std::mutex>, obs::kThreadShards> locks;
  for (size_t i = 0; i < rate_.size(); ++i) {
    locks[i] = std::unique_lock<std::mutex>(rate_[i].mu);
  }
  return locks;
}

void ServingMetrics::RestartWindow() {
  start_time_ = Now();
  for (RateShard& shard : rate_) {
    shard.mass = 0;
    shard.last_event_time = start_time_;
  }
}

void ServingMetrics::SetClockForTest(std::function<double()> clock) {
  auto locks = LockRate();
  clock_ = std::move(clock);
  RestartWindow();
}

void ServingMetrics::Record(const obs::RequestRecord& record) {
  const std::string_view outcome = record.outcome();
  if (outcome == "timeout") {
    timeouts_->Increment();
    return;
  }
  if (outcome == "error" || outcome == "invalid") {
    errors_->Increment();
    return;
  }
  const bool cache_hit = outcome == "cache_hit";
  const bool deduplicated = outcome == "deduplicated";
  completed_->Increment();
  if (cache_hit) cache_hits_->Increment();
  if (deduplicated) deduplicated_->Increment();
  std::string exemplar;
  if (!cache_hit && record.trace().valid()) {
    exemplar = record.trace().TraceIdHex();
  }
  total_->Observe(record.total_ms() / 1e3, exemplar);
  if (!cache_hit && !deduplicated) {
    // One name of each pair is absent from any one record.
    expand_->Observe(record.StageMs("expand") / 1e3);
    detect_->Observe((record.StageMs("detect") + record.StageMs("gather")) /
                     1e3);
    rank_->Observe((record.StageMs("rank") + record.StageMs("merge_rank")) /
                   1e3);
  }
  RateShard& shard = rate_[obs::ThreadShard()];
  std::lock_guard<std::mutex> lock(shard.mu);
  const double now = Now();
  const double dt = now - shard.last_event_time;
  if (dt > 0) shard.mass *= std::exp(-dt / kRateTauSeconds);
  shard.mass += 1.0;
  shard.last_event_time = now;
}

MetricsReport ServingMetrics::Report() const {
  MetricsReport r;
  r.completed = completed_->Value();
  r.cache_hits = cache_hits_->Value();
  r.deduplicated = deduplicated_->Value();
  r.shed = shed_->Value();
  r.timeouts = timeouts_->Value();
  r.errors = errors_->Value();
  {
    auto locks = LockRate();
    const double now = Now();
    r.uptime_seconds = now - start_time_;
    r.window_tau_seconds = kRateTauSeconds;
    // Decay every shard's mass to "now" and sum, then normalize. The plain
    // EWMA estimate is mass / tau; the (1 - e^{-age/tau}) factor corrects
    // the early-life bias (with only age << tau seconds observed, the
    // window has had no time to fill, so divide by the fraction that could
    // fill).
    double mass = 0;
    for (const RateShard& shard : rate_) {
      const double dt = now - shard.last_event_time;
      mass += dt > 0 ? shard.mass * std::exp(-dt / kRateTauSeconds)
                     : shard.mass;
    }
    const double fill = 1.0 - std::exp(-r.uptime_seconds / kRateTauSeconds);
    if (fill > 1e-12) r.window_qps = mass / (kRateTauSeconds * fill);
  }
  r.qps = r.uptime_seconds > 0
              ? static_cast<double>(r.completed) / r.uptime_seconds
              : 0.0;
  r.cache_hit_rate = r.completed > 0 ? static_cast<double>(r.cache_hits) /
                                           static_cast<double>(r.completed)
                                     : 0.0;
  obs::HistogramSnapshot total = total_->Snapshot();
  r.p50_ms = total.p50 * 1e3;
  r.p95_ms = total.p95 * 1e3;
  r.p99_ms = total.p99 * 1e3;
  r.max_ms = total.max * 1e3;
  r.mean_expand_ms = expand_->Snapshot().mean * 1e3;
  r.mean_detect_ms = detect_->Snapshot().mean * 1e3;
  r.mean_rank_ms = rank_->Snapshot().mean * 1e3;
  return r;
}

std::string ServingMetrics::ToTable() const {
  MetricsReport r = Report();
  std::string out;
  out += StrFormat("requests completed   %10llu  (%.1f qps over %.1fs, "
                   "%.1f qps last ~%.0fs)\n",
                   static_cast<unsigned long long>(r.completed), r.qps,
                   r.uptime_seconds, r.window_qps, r.window_tau_seconds);
  out += StrFormat("cache hits           %10llu  (%.1f%% hit rate)\n",
                   static_cast<unsigned long long>(r.cache_hits),
                   100.0 * r.cache_hit_rate);
  out += StrFormat("deduplicated         %10llu\n",
                   static_cast<unsigned long long>(r.deduplicated));
  out += StrFormat("shed / timeouts      %10llu / %llu\n",
                   static_cast<unsigned long long>(r.shed),
                   static_cast<unsigned long long>(r.timeouts));
  out += StrFormat("errors               %10llu\n",
                   static_cast<unsigned long long>(r.errors));
  out += StrFormat("latency p50/p95/p99  %7.2f / %.2f / %.2f ms (max %.2f)\n",
                   r.p50_ms, r.p95_ms, r.p99_ms, r.max_ms);
  out += StrFormat("stage means          expand %.3f ms, detect %.3f ms, "
                   "rank %.3f ms\n",
                   r.mean_expand_ms, r.mean_detect_ms, r.mean_rank_ms);
  return out;
}

void ServingMetrics::Reset() {
  completed_->Reset();
  cache_hits_->Reset();
  deduplicated_->Reset();
  shed_->Reset();
  timeouts_->Reset();
  errors_->Reset();
  total_->Reset();
  expand_->Reset();
  detect_->Reset();
  rank_->Reset();
  auto locks = LockRate();
  RestartWindow();
}

}  // namespace esharp::serving
