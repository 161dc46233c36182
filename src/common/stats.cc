#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace esharp {

double OnlineStats::Variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double OnlineStats::StdDev() const { return std::sqrt(Variance()); }

double OnlineStats::ZScore(double x) const {
  double sd = StdDev();
  if (sd == 0.0) return 0.0;
  return (x - mean_) / sd;
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  size_t total = n_ + other.n_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(total);
  n_ = total;
}

namespace {
// Bucket bounds span [1us, ~100s]: 1e-6 * kGrowth^i with kGrowth chosen so
// bucket kNumBuckets-1 tops out at 1e2 seconds.
constexpr double kMinLatency = 1e-6;
constexpr double kMaxLatency = 1e2;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

double LatencyHistogram::BucketUpperBound(size_t i) {
  double frac = static_cast<double>(i + 1) / static_cast<double>(kNumBuckets);
  return kMinLatency * std::pow(kMaxLatency / kMinLatency, frac);
}

size_t LatencyHistogram::BucketIndex(double seconds) {
  if (seconds <= kMinLatency) return 0;
  if (seconds >= kMaxLatency) return kNumBuckets - 1;
  double log_span = std::log(kMaxLatency / kMinLatency);
  double frac = std::log(seconds / kMinLatency) / log_span;
  size_t i = static_cast<size_t>(frac * static_cast<double>(kNumBuckets));
  return i >= kNumBuckets ? kNumBuckets - 1 : i;
}

void LatencyHistogram::Add(double seconds) {
  if (seconds < 0 || std::isnan(seconds)) seconds = 0;
  ++buckets_[BucketIndex(seconds)];
  ++n_;
  sum_ += seconds;
  if (seconds > max_) max_ = seconds;
}

double LatencyHistogram::Mean() const {
  return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
}

double LatencyHistogram::Percentile(double p) const {
  if (n_ == 0) return 0.0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank of the observation we want, 1-based; ceil so p=0 maps to rank 1.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n_)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return BucketUpperBound(i);
  }
  return max_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  n_ += other.n_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  n_ = 0;
  sum_ = 0.0;
  max_ = 0.0;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double s = 0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  double mx = Mean(xs), my = Mean(ys);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0 || syy == 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace esharp
