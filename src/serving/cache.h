#ifndef ESHARP_SERVING_CACHE_H_
#define ESHARP_SERVING_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "expert/detector.h"

namespace esharp::serving {

/// \brief Sizing and expiry knobs of the result cache.
struct CacheOptions {
  /// Number of independently locked shards (rounded up to a power of two).
  /// More shards -> less lock contention under concurrent traffic.
  size_t shards = 8;
  /// LRU capacity per shard; total capacity = shards * capacity_per_shard.
  size_t capacity_per_shard = 512;
  /// Entry time-to-live in seconds; <= 0 disables expiry. The paper's
  /// collection refreshes weekly, but expert evidence drifts faster, so
  /// serving defaults to minutes.
  double ttl_seconds = 300.0;
};

/// \brief Counters exposed by the cache (all monotonically increasing).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;    // capacity-driven removals
  uint64_t expirations = 0;  // TTL- or version-driven removals
  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// \brief One cached answer: the ranked experts plus the generation of the
/// community store that produced them.
struct CachedResult {
  std::vector<expert::RankedExpert> experts;
  uint64_t snapshot_version = 0;
};

/// \brief A sharded, TTL'd LRU cache of query results.
///
/// Keys are the lower-cased query string (the same normalization the store
/// lookup applies, §5 — so "Tennis" and "tennis" share an entry). Each
/// shard has its own mutex, LRU list and hash map; a lookup touches exactly
/// one shard. Entries are validated against both a TTL and the snapshot
/// version that produced them, so a hot swap of the community store
/// invisibly invalidates every stale answer without a stop-the-world sweep
/// (InvalidateAll also exists for the eager path).
///
/// Callers pass the current time explicitly (seconds on any monotonic
/// clock) so tests can simulate expiry without sleeping.
class ShardedResultCache {
 public:
  explicit ShardedResultCache(CacheOptions options = {});

  /// Looks up `key` (already lower-cased by the engine). Entries that are
  /// expired or predate `current_version` count as misses and are removed.
  std::optional<CachedResult> Get(const std::string& key, double now_seconds,
                                  uint64_t current_version);

  /// Inserts or refreshes an entry, evicting the shard's LRU tail if full.
  void Put(const std::string& key, CachedResult value, double now_seconds);

  /// Drops every entry (eager invalidation after a snapshot swap).
  void InvalidateAll();

  /// Total live entries across shards (approximate under concurrency).
  size_t size() const;

  /// Monotonic hit/miss/eviction counters, summed over the shards (each
  /// read under its lock).
  CacheStats stats() const;

  const CacheOptions& options() const { return options_; }

 private:
  struct Entry {
    CachedResult value;
    /// Absolute expiry time in seconds; +inf when TTL is disabled.
    double expires_at = 0;
    /// Position in the shard's LRU list (front = most recent).
    std::list<std::string>::iterator lru_it;
  };
  /// One key-hashed shard. Its counts live beside the entries they count,
  /// under the lock every lookup already holds, so a hit writes nothing
  /// another shard's readers share.
  struct alignas(64) Shard {
    std::mutex mu;
    std::list<std::string> lru;
    std::unordered_map<std::string, Entry> map;
    CacheStats stats;
  };

  Shard& ShardFor(const std::string& key);

  CacheOptions options_;
  size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace esharp::serving

#endif  // ESHARP_SERVING_CACHE_H_
