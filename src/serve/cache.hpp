// Sharded LRU result cache for the serving layer.
//
// Keyed by (snapshot epoch, query fingerprint, codec): the epoch in the
// key makes a stale hit structurally impossible — a request that
// acquired epoch N can only ever read an answer computed against epoch
// N — and the wholesale invalidation on snapshot publish is then purely
// a memory-reclamation optimization, not a correctness mechanism.
//
// Entries are encoded and immutable. Each holds the reply in the one
// codec that filled it — the canonical wire payload, the HTTP shim's
// JSON body, or the typed Response for in-process callers — behind a
// shared_ptr<const>, so a hit hands out a share of the entry and copies
// nothing under the shard lock. A socket hit copies those bytes
// straight into the connection's outbox; no Response is copied and no
// JSON document is rebuilt.
//
// Shards are independent (key → shard by fingerprint bits), each with
// its own mutex, hash map, and intrusive LRU list, so concurrent client
// threads rarely contend on the same lock. Capacity is enforced per
// shard; eviction is strict LRU within the shard.
//
// Tallies: the cache counts its own hits, misses and evictions per
// shard under the shard lock and sums them in stats(). These counts are
// exact whatever FA_OBS says; the serve.cache.* obs counters are
// additionally bumped for the metrics pipeline.
//
// Fault seam "serve.cache": when armed, a hit whose fingerprint fires
// is treated as failing its integrity check — the entry is dropped and
// counted (serve.cache.corrupt_dropped), and the request recomputes.
// Responses therefore stay byte-identical under injected corruption;
// only the hit rate degrades.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "obs/obs.hpp"
#include "serve/types.hpp"

namespace fa::serve {

inline constexpr std::string_view kCacheCorruptSite = "serve.cache";

struct CacheConfig {
  std::size_t capacity = 4096;  // total entries across shards
  int shards = 8;               // clamped to >= 1
};

// The encoding a cached reply holds. Part of the key, so a reader only
// ever hits bytes in the encoding it asked for, and a miss renders only
// that one encoding.
enum class Codec : std::uint8_t {
  kResponse,  // the typed Response (in-process Server::handle)
  kBinary,    // the canonical wire payload (serve::wire::encode)
  kJson,      // the HTTP shim's JSON body (serve::json_body)
};

// One immutable entry: the typed Response for Codec::kResponse, the
// encoded bytes for the other codecs — never both.
using CachedReply = std::variant<Response, std::string>;
using SharedReply = std::shared_ptr<const CachedReply>;

// A lookup's result: a share of the entry, empty on a miss. The share
// stays valid after the cache evicts or invalidates the entry.
struct CacheHit {
  SharedReply reply;
  bool has_value() const { return reply != nullptr; }
};

class ShardedCache {
 public:
  // Exact lookup and eviction counts, summed over the shards.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  // Counters land in `registry` under the obs::metrics::kServeCache*
  // names, resolved once here so the hot path never takes the registry
  // lock.
  ShardedCache(const CacheConfig& config, obs::Registry& registry);

  // The entry for (epoch, fingerprint, codec), refreshing its LRU
  // position; empty on a miss or injected corruption. Counts one hit or
  // one miss.
  CacheHit get(Epoch epoch, std::uint64_t fingerprint,
               Codec codec = Codec::kResponse);

  // Inserts or replaces (epoch, fingerprint, codec) → reply, evicting
  // the shard's LRU tail when over budget; returns the stored entry.
  SharedReply put(Epoch epoch, std::uint64_t fingerprint, Codec codec,
                  CachedReply reply);
  // put() of a typed Response (Codec::kResponse).
  SharedReply put(Epoch epoch, std::uint64_t fingerprint, Response response) {
    return put(epoch, fingerprint, Codec::kResponse,
               CachedReply{std::move(response)});
  }

  // Drops every entry (snapshot publish). Entries for retired epochs
  // could never be served again anyway — the epoch is in the key — so
  // this only releases their memory promptly.
  void invalidate_all();

  std::size_t size() const;
  Stats stats() const;

 private:
  struct Key {
    Epoch epoch;
    std::uint64_t fingerprint;
    Codec codec;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // fingerprint is already FNV-mixed; fold the epoch and codec in.
      return static_cast<std::size_t>(
          k.fingerprint ^ (k.epoch * 0x9e3779b97f4a7c15ULL) ^
          (static_cast<std::uint64_t>(k.codec) * 0xc2b2ae3d27d4eb4fULL));
    }
  };
  struct Entry {
    Key key;
    SharedReply reply;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    Stats tally;
  };

  Shard& shard_of(std::uint64_t fingerprint) {
    // High bits select the shard; low bits feed the in-shard hash.
    return *shards_[(fingerprint >> 48) % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& corrupt_dropped_;
  obs::Counter& invalidations_;
};

}  // namespace fa::serve
