#ifndef ESHARP_OBS_METRICS_H_
#define ESHARP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/status.h"

namespace esharp::obs {

/// \brief Metric labels: a small set of key/value dimensions
/// (`{"stage","extract"}`). Kept sorted by key inside the registry so two
/// call sites with the same labels in different order share one instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Shards of every per-thread-sharded instrument: Counter, Histogram,
/// LiveRequests (obs/profile.h) and the serving engine's windowed rate.
inline constexpr size_t kThreadShards = 16;

/// \brief The calling thread's shard in [0, kThreadShards): assigned
/// round-robin on the thread's first call and fixed for its lifetime, and
/// the same in every sharded instrument. Writers on different threads
/// therefore touch different shards as long as threads <= kThreadShards.
inline size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kThreadShards;
  return index;
}

/// \brief Monotonic counter, sharded across cache lines so concurrent
/// writers on the hot serving path never contend on one atomic. Reads sum
/// the shards (eventually consistent between increments, exact at rest).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    shards_[ThreadShard()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Sum over shards.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kThreadShards> shards_;
};

/// \brief Last-writer-wins double value (queue depths, stage seconds,
/// bench results).
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }

  void Add(double delta) {
    uint64_t observed = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(observed,
                                        Encode(Decode(observed) + delta),
                                        std::memory_order_relaxed)) {
    }
  }

  double Value() const {
    return Decode(bits_.load(std::memory_order_relaxed));
  }

  void Reset() { Set(0.0); }

 private:
  static uint64_t Encode(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Decode(uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};
};

/// \brief Point-in-time view of a histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  double mean = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// \brief One exemplar: a concrete observation a histogram bucket can
/// point at — typically a trace id, so the p99 bucket in /varz links to
/// the /queryz profile of an actual slow query instead of an anonymous
/// quantile.
struct Exemplar {
  double le_seconds = 0;  ///< Bucket upper bound (inf rendered as 1e300).
  double value_seconds = 0;
  std::string label;  ///< Trace id (32 hex) or other correlation key.
};

/// \brief Thread-safe latency distribution: one `common/stats.h`
/// LatencyHistogram per thread shard (see ThreadShard), each behind its
/// own mutex, so concurrent observers on different threads never share a
/// lock or a cache line. A shard allocates its buckets on its first
/// observation. Readers merge the shards: counts and buckets add exactly,
/// so a snapshot equals that of one histogram fed the same observations.
///
/// Observations may carry an exemplar label; the histogram keeps the
/// latest labeled observation per decade bucket (1ms/10ms/100ms/1s/inf),
/// exported in the JSON snapshot. Exemplars share one mutex, taken only by
/// labeled observations.
class Histogram {
 public:
  void Observe(double seconds) { Observe(seconds, {}); }

  void Observe(double seconds, std::string_view exemplar_label) {
    Shard& shard = shards_[ThreadShard()];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (!shard.hist.has_value()) shard.hist.emplace();
      shard.hist->Add(seconds);
    }
    if (exemplar_label.empty()) return;
    size_t bucket = 0;
    while (bucket + 1 < kExemplarBuckets &&
           seconds > kExemplarUpperSeconds[bucket]) {
      ++bucket;
    }
    std::lock_guard<std::mutex> lock(exemplar_mu_);
    exemplars_[bucket].le_seconds = kExemplarUpperSeconds[bucket];
    exemplars_[bucket].value_seconds = seconds;
    exemplars_[bucket].label = std::string(exemplar_label);
  }

  /// Buckets that have seen a labeled observation, ascending by bound.
  std::vector<Exemplar> Exemplars() const {
    std::lock_guard<std::mutex> lock(exemplar_mu_);
    std::vector<Exemplar> out;
    for (const Exemplar& e : exemplars_) {
      if (!e.label.empty()) out.push_back(e);
    }
    return out;
  }

  /// Merges the shards, each read under its own lock.
  HistogramSnapshot Snapshot() const {
    LatencyHistogram merged;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.hist.has_value()) merged.Merge(*shard.hist);
    }
    HistogramSnapshot s;
    s.count = merged.count();
    s.mean = merged.Mean();
    s.max = merged.Max();
    s.p50 = merged.Percentile(50);
    s.p95 = merged.Percentile(95);
    s.p99 = merged.Percentile(99);
    return s;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.hist.has_value()) shard.hist->Reset();
    }
    std::lock_guard<std::mutex> lock(exemplar_mu_);
    for (Exemplar& e : exemplars_) e = Exemplar{};
  }

 private:
  static constexpr size_t kExemplarBuckets = 5;
  static constexpr double kExemplarUpperSeconds[kExemplarBuckets] = {
      0.001, 0.01, 0.1, 1.0, 1e300};

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::optional<LatencyHistogram> hist;  // empty until first observed
  };

  std::array<Shard, kThreadShards> shards_;
  mutable std::mutex exemplar_mu_;
  std::array<Exemplar, kExemplarBuckets> exemplars_;
};

/// \brief One instrument's point-in-time reading, as returned by
/// MetricsRegistry::SampleAll. `key` is the registry's interning key —
/// `name{label="value",...}` with sorted labels — stable across samples,
/// so periodic samplers (obs/timeseries.h) can use it as a series id.
struct SampledCounter {
  std::string key;
  std::string name;
  uint64_t value = 0;
};
struct SampledGauge {
  std::string key;
  std::string name;
  double value = 0;
};
struct SampledHistogram {
  std::string key;
  std::string name;
  HistogramSnapshot snapshot;
};

/// \brief One full walk of a registry: every instrument of every kind,
/// read at (approximately) one instant. The input of the time-series
/// sampler and of offline snapshot differs.
struct RegistrySample {
  std::vector<SampledCounter> counters;
  std::vector<SampledGauge> gauges;
  std::vector<SampledHistogram> histograms;
};

/// \brief Process-wide registry of named instruments.
///
/// `Get*` interns an instrument under (name, labels) and returns a stable
/// pointer: instruments are never deleted, so callers cache the pointer
/// once and record without the registry's mutex afterwards. All methods
/// are thread-safe.
///
/// Two exporters ship with the registry: Prometheus text exposition
/// (`ExportPrometheus`) and a JSON snapshot (`ExportJson` /
/// `WriteJsonFile`) whose schema is documented in EXPERIMENTS.md.
class MetricsRegistry {
 public:
  /// The process-wide instance almost every caller wants. Separate
  /// instances exist for tests and for bench runs that export their own
  /// snapshot files.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  /// Prometheus text exposition: counters/gauges as single samples,
  /// histograms as summary-style quantile samples plus _count/_sum-like
  /// mean and max samples. Metric names are sanitized ('.' and '-' map to
  /// '_'); label values are escaped.
  std::string ExportPrometheus() const;

  /// JSON snapshot:
  ///   {"captured_unix_ms":<wall clock>,
  ///    "counters":[{"name":...,"labels":{...},"value":N}, ...],
  ///    "gauges":[...same, value double...],
  ///    "histograms":[{"name":...,"labels":{...},"count":N,"mean":..,
  ///                   "max":..,"p50":..,"p95":..,"p99":..}, ...]}
  /// The wall-clock stamp makes two offline dumps orderable.
  std::string ExportJson() const;

  /// Reads every instrument once (map order, keys sorted). The walk holds
  /// the registry mutex but reads each instrument lock-free (counters,
  /// gauges) or under each shard's short lock in turn (histograms).
  RegistrySample SampleAll() const;

  /// Writes ExportJson() to `path`.
  Status WriteJsonFile(const std::string& path) const;

  /// Zeroes every instrument (pointers stay valid). Tests and bench loops.
  void ResetAll();

  /// Number of registered instruments (all kinds).
  size_t size() const;

 private:
  /// Key = name + rendered sorted labels; value keeps the parsed pieces
  /// for the exporters.
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> instrument;
  };

  template <typename T>
  T* GetOrCreate(std::map<std::string, Entry<T>>& family,
                 const std::string& name, Labels labels);

  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

/// \brief Renders the whole global registry as one human-readable (and
/// Prometheus-scrapable) block: the single pane of glass over the offline
/// pipeline, SQL engine and serving layer.
std::string DumpAll();

/// \brief Seconds since a fixed process-local epoch (steady clock). The
/// shared time base of metrics windows and trace timestamps.
double NowSeconds();

/// \brief Wall-clock milliseconds since the Unix epoch — the
/// `captured_unix_ms` stamp of exported snapshots and incident bundles.
/// Distinct from NowSeconds(): comparable across processes and restarts,
/// but not monotone.
int64_t WallUnixMillis();

}  // namespace esharp::obs

#endif  // ESHARP_OBS_METRICS_H_
