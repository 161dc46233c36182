#ifndef ESHARP_COMMON_STATS_H_
#define ESHARP_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace esharp {

/// \brief Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used by the expert ranker to z-score the (log-transformed) TS/MI/RI
/// features over the candidate pool, as §3 of the paper prescribes.
class OnlineStats {
 public:
  /// Adds one observation. Inline: the ranker calls it per candidate and
  /// feature on the query path.
  void Add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  /// Number of observations added.
  size_t count() const { return n_; }

  /// Arithmetic mean (0 when empty).
  double Mean() const { return n_ == 0 ? 0.0 : mean_; }

  /// Population variance (0 when fewer than 2 observations).
  double Variance() const;

  /// Population standard deviation.
  double StdDev() const;

  /// Z-score of x under the accumulated distribution. Returns 0 when the
  /// standard deviation is 0 (all observations identical).
  double ZScore(double x) const;

  /// Merges another accumulator into this one (parallel reduction).
  void Merge(const OnlineStats& other);

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// \brief Fixed-footprint latency histogram with geometric buckets.
///
/// Observations (in seconds) land in one of 128 buckets whose bounds grow
/// geometrically from 1 microsecond to ~100 seconds, giving ~16% relative
/// resolution across the whole range — the usual trade for serving-side
/// p50/p95/p99 accounting where exact samples would be too much state.
/// Not thread-safe; callers that record from many threads shard or lock
/// (obs::Histogram in obs/metrics.h keeps one per thread shard).
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one observation, clamped into the bucket range.
  void Add(double seconds);

  /// Number of observations recorded.
  size_t count() const { return n_; }

  /// Arithmetic mean in seconds (0 when empty).
  double Mean() const;

  /// Largest observation in seconds (0 when empty).
  double Max() const { return max_; }

  /// Approximate p-th percentile (p in [0, 100]) in seconds: the upper
  /// bound of the bucket where the cumulative count crosses p% (0 when
  /// empty). Error is bounded by the bucket width (~16%).
  double Percentile(double p) const;

  /// Adds another histogram's observations into this one.
  void Merge(const LatencyHistogram& other);

  /// Resets to empty.
  void Reset();

 private:
  static constexpr size_t kNumBuckets = 128;
  /// Upper bound of bucket i in seconds.
  static double BucketUpperBound(size_t i);
  static size_t BucketIndex(double seconds);

  std::vector<uint64_t> buckets_;
  size_t n_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// \brief Mean of a vector (0 when empty).
double Mean(const std::vector<double>& xs);

/// \brief Population standard deviation of a vector.
double StdDev(const std::vector<double>& xs);

/// \brief Pearson correlation of two equal-length vectors (0 if degenerate).
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace esharp

#endif  // ESHARP_COMMON_STATS_H_
