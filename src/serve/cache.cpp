#include "serve/cache.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"

namespace fa::serve {

ShardedCache::ShardedCache(const CacheConfig& config, obs::Registry& registry)
    : hits_(registry.counter(obs::metrics::kServeCacheHits)),
      misses_(registry.counter(obs::metrics::kServeCacheMisses)),
      evictions_(registry.counter(obs::metrics::kServeCacheEvictions)),
      corrupt_dropped_(
          registry.counter(obs::metrics::kServeCacheCorruptDropped)),
      invalidations_(
          registry.counter(obs::metrics::kServeCacheInvalidations)) {
  const int shards = std::max(1, config.shards);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  per_shard_capacity_ = std::max<std::size_t>(
      1, config.capacity / static_cast<std::size_t>(shards));
}

CacheHit ShardedCache::get(Epoch epoch, std::uint64_t fingerprint,
                           Codec codec) {
  Shard& shard = shard_of(fingerprint);
  const Key key{epoch, fingerprint, codec};
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  bool hit = it != shard.index.end();
  if (hit) {
    const fault::Injector& inj = fault::Injector::global();
    if (inj.armed() && inj.fires(kCacheCorruptSite, fingerprint)) {
      shard.lru.erase(it->second);
      shard.index.erase(it);
      corrupt_dropped_.add();
      hit = false;
    }
  }
  if (!hit) {
    shard.tally.misses++;
    misses_.add();
    return {};
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  shard.tally.hits++;
  hits_.add();
  return {it->second->reply};
}

SharedReply ShardedCache::put(Epoch epoch, std::uint64_t fingerprint,
                              Codec codec, CachedReply reply) {
  auto entry = std::make_shared<const CachedReply>(std::move(reply));
  Shard& shard = shard_of(fingerprint);
  const Key key{epoch, fingerprint, codec};
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->reply = entry;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return entry;
  }
  shard.lru.push_front(Entry{key, entry});
  shard.index.emplace(key, shard.lru.begin());
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    shard.tally.evictions++;
    evictions_.add();
  }
  return entry;
}

void ShardedCache::invalidate_all() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
  invalidations_.add();
}

std::size_t ShardedCache::size() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

ShardedCache::Stats ShardedCache::stats() const {
  Stats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->tally.hits;
    total.misses += shard->tally.misses;
    total.evictions += shard->tally.evictions;
  }
  return total;
}

}  // namespace fa::serve
