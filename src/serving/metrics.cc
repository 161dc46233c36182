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
  start_time_ = obs::NowSeconds();
  last_event_time_ = start_time_;
}

double ServingMetrics::Now() const {
  // Callers hold mu_ (clock_ is mutable state).
  return clock_ ? clock_() : obs::NowSeconds();
}

void ServingMetrics::SetClockForTest(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = std::move(clock);
  start_time_ = Now();
  last_event_time_ = start_time_;
  ewma_events_ = 0;
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
  std::lock_guard<std::mutex> lock(mu_);
  double now = Now();
  double dt = now - last_event_time_;
  if (dt > 0) ewma_events_ *= std::exp(-dt / kRateTauSeconds);
  ewma_events_ += 1.0;
  last_event_time_ = now;
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
    std::lock_guard<std::mutex> lock(mu_);
    double now = Now();
    r.uptime_seconds = now - start_time_;
    r.window_tau_seconds = kRateTauSeconds;
    // Decay the accumulated mass to "now", then normalize. The plain EWMA
    // estimate is mass / tau; the (1 - e^{-age/tau}) factor corrects the
    // early-life bias (with only age << tau seconds observed, the window
    // has had no time to fill, so divide by the fraction that could fill).
    double age = now - start_time_;
    double mass = ewma_events_;
    double dt = now - last_event_time_;
    if (dt > 0) mass *= std::exp(-dt / kRateTauSeconds);
    double fill = 1.0 - std::exp(-age / kRateTauSeconds);
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
  std::lock_guard<std::mutex> lock(mu_);
  start_time_ = Now();
  last_event_time_ = start_time_;
  ewma_events_ = 0;
}

}  // namespace esharp::serving
