#include "serving/cache.h"

#include <algorithm>
#include <limits>

#include "common/hash.h"

namespace esharp::serving {

namespace {
size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

ShardedResultCache::ShardedResultCache(CacheOptions options)
    : options_(options) {
  size_t num_shards = RoundUpPowerOfTwo(std::max<size_t>(1, options_.shards));
  shard_mask_ = num_shards - 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedResultCache::Shard& ShardedResultCache::ShardFor(
    const std::string& key) {
  return *shards_[Fnv1a64(key) & shard_mask_];
}

std::optional<CachedResult> ShardedResultCache::Get(const std::string& key,
                                                    double now_seconds,
                                                    uint64_t current_version) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  Entry& entry = it->second;
  bool expired = now_seconds >= entry.expires_at;
  bool stale = entry.value.snapshot_version != current_version;
  if (expired || stale) {
    shard.lru.erase(entry.lru_it);
    shard.map.erase(it);
    ++shard.stats.expirations;
    ++shard.stats.misses;
    return std::nullopt;
  }
  // Touch: move to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
  ++shard.stats.hits;
  return entry.value;
}

void ShardedResultCache::Put(const std::string& key, CachedResult value,
                             double now_seconds) {
  double expires_at = options_.ttl_seconds > 0
                          ? now_seconds + options_.ttl_seconds
                          : std::numeric_limits<double>::infinity();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second.value = std::move(value);
    it->second.expires_at = expires_at;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return;
  }
  size_t capacity = std::max<size_t>(1, options_.capacity_per_shard);
  while (shard.map.size() >= capacity && !shard.lru.empty()) {
    shard.map.erase(shard.lru.back());
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
  shard.lru.push_front(key);
  shard.map.emplace(key,
                    Entry{std::move(value), expires_at, shard.lru.begin()});
}

void ShardedResultCache::InvalidateAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stats.expirations += shard->map.size();
    shard->map.clear();
    shard->lru.clear();
  }
}

size_t ShardedResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

CacheStats ShardedResultCache::stats() const {
  CacheStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.hits += shard->stats.hits;
    s.misses += shard->stats.misses;
    s.evictions += shard->stats.evictions;
    s.expirations += shard->stats.expirations;
  }
  return s;
}

}  // namespace esharp::serving
