// fa::serve — the concurrent risk-query serving layer.
//
// One Server owns a SnapshotStore (versioned immutable views with
// RCU-style hot-swap) and a ShardedCache (encoded replies keyed by
// epoch + query fingerprint + codec). Every query, of every shape and
// from either wire protocol, takes one path: handle() -> cache ->
// evaluate() -> encode in the caller's codec, on the calling thread.
// The network front door calls handle() on its IO thread for point,
// bbox, provider and top-K queries, hit or miss, and from a worker for
// the ensemble shapes. Any number of client threads may query
// concurrently; rebuild() may run concurrently with queries and
// publishes a new epoch atomically — in-flight requests finish against
// the epoch they acquired, and a failed rebuild leaves the old epoch
// serving.
//
// Every snapshot is a geo-sharded view (snapshot.hpp), so each
// lifecycle step below has one body: builds, cold starts and recoveries
// are handed options.shard_layout, applies are shard-native, and saves
// write FASHRD01.
//
// Determinism contract: for a fixed snapshot content, the cached and
// cache-disabled paths return byte-identical responses. The cache can
// change *when* an answer is computed, never what it contains;
// tests/serve/equivalence_test.cpp pins this.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "delta/apply.hpp"
#include "delta/log.hpp"
#include "obs/obs.hpp"
#include "serve/cache.hpp"
#include "serve/snapshot.hpp"
#include "serve/types.hpp"
#include "serve/wire.hpp"
#include "shard/layout.hpp"
#include "store/store.hpp"

namespace fa::serve {

struct ServerOptions {
  // Result cache; disabling makes every request recompute (the
  // cache-off baseline in bench_serve_qps).
  bool cache_enabled = true;
  CacheConfig cache;
  // Ingestion policy for snapshot builds (initial and rebuilds).
  fault::RecoveryPolicy policy = fault::RecoveryPolicy::kQuarantine;
  // Registry for the serve.* instruments; null = obs::Registry::global()
  // at construction time (so an active obs::ScopedRegistry is honored).
  obs::Registry* registry = nullptr;
  // Snapshot store directory (created if missing). When set, the
  // constructor runs the recovery ladder: a clean stored generation
  // whose scenario config matches `config` becomes epoch 1 with no
  // build at all; otherwise (empty store, corrupt generations,
  // config mismatch) the server falls back to a fresh build and counts
  // store.recover.rebuilds. Empty = no persistence.
  std::string store_dir;
  // Selects nothing: every server serves a geo-sharded view. Kept only
  // so callers that still assign it compile; slated for removal.
  bool sharded = false;
  // How builds cut the view into shards, and how a FASNAP01 generation
  // migrates at recovery (a FASHRD01 generation carries its own layout).
  // Responses are the same bytes under any layout.
  shard::LayoutOptions shard_layout;
};

class Server {
 public:
  // Builds the initial snapshot (epoch 1) synchronously; throws
  // fault::IoError when that scenario cannot be built at all — a server
  // with nothing to serve should fail loudly, unlike a failed *rebuild*
  // (see below), which is survivable.
  explicit Server(const synth::ScenarioConfig& config,
                  const ServerOptions& options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // -- queries (safe from any thread) ----------------------------------
  // THE entry point: every query shape, one uniform surface, answered
  // in `codec` — the typed Response, the canonical wire payload, or the
  // HTTP shim's JSON body. Pins one snapshot, looks up (epoch,
  // fingerprint, codec), and on a miss evaluates, encodes only that
  // codec and caches the entry. Counts one query and one cache hit or
  // miss. The returned entry is immutable and shared with the cache.
  SharedReply handle(const Request& request, Codec codec);

  // The typed answer (Codec::kResponse). The response alternative
  // always matches the request alternative (PointRiskQuery ->
  // PointRiskResponse, etc.), and the bytes are identical to the typed
  // methods below (tests/serve/unified_api_test.cpp pins both).
  Response handle(const Request& request);

  // Typed convenience wrappers over handle().
  PointRiskResponse point_risk(const PointRiskQuery& q);
  BBoxAggregateResponse bbox_aggregate(const BBoxAggregateQuery& q);
  ProviderExposureResponse provider_exposure(const ProviderExposureQuery& q);
  TopKSitesResponse top_k_sites(const TopKSitesQuery& q);
  EnsembleSummaryResponse ensemble_summary(const EnsembleSummaryQuery& q);
  TopKFragileSitesResponse top_k_fragile_sites(const TopKFragileSitesQuery& q);

  // -- snapshot lifecycle ----------------------------------------------
  // Builds a snapshot for `config` and, on success, publishes it as the
  // next epoch and invalidates the cache. On failure (unbuildable
  // scenario, injected serve.snapshot.build fault) returns the error
  // Status and changes nothing: the current epoch keeps serving.
  // Callable from a background thread while queries run.
  fault::Status rebuild(const synth::ScenarioConfig& config);

  // Streams the currently serving snapshot into the store as the next
  // generation — FASHRD01 straight from the page columns to the file,
  // with no image-sized buffer (atomic: a crash mid-commit never damages
  // existing generations). Error when no store is configured, the view
  // is degraded (quarantined shards), or the commit fails (torn-write
  // seam included) — the serving epoch is unaffected either way.
  fault::Status save_snapshot();

  // Publishes a snapshot restored from the store as the next epoch —
  // the disk-sourced sibling of rebuild(). On any recovery failure the
  // current epoch keeps serving.
  fault::Status rebuild_from_store();

  // Applies a batch of live-feed events (FeedIngestor output: seq
  // order, deduplicated) to the serving epoch and publishes the result
  // as the next epoch — the incremental sibling of rebuild(), with the
  // same survivability contract: on failure (injected delta.apply
  // fault, strict-policy validation error) nothing publishes and the
  // current epoch keeps serving. When a store directory is configured
  // and the serving state is rooted in a committed generation, the
  // batch is also appended to the hash-chained delta log so a cold
  // start replays it; an append failure degrades durability, never
  // serving (counted, not fatal). Callable from a background thread
  // while queries run.
  fault::Status apply_delta(std::span<const delta::FeedEvent> events,
                            delta::ApplyStats* stats = nullptr);

  // True when epoch 1 came from the store instead of a fresh build.
  bool loaded_from_store() const { return loaded_from_store_; }

  Epoch epoch() const { return store_.current_epoch(); }
  const SnapshotStore& snapshots() const { return store_; }
  // The result cache's own hit/miss/eviction counts (exact under any
  // FA_OBS setting).
  ShardedCache::Stats cache_stats() const { return cache_.stats(); }
  // Scenario of the currently serving snapshot.
  synth::ScenarioConfig config() const;
  obs::Registry& registry() { return registry_; }

 private:
  // Constructor cold start (store_dir_ engaged): publish epoch 1 from
  // the newest servable generation for `config`, replaying its
  // delta-log chain; set loaded_from_store_ on success, leave the
  // fresh-build fallback to the constructor otherwise.
  void cold_start(const synth::ScenarioConfig& config);
  // The delta applier's options for this server's ingestion policy.
  delta::ApplyOptions apply_options() const;
  // Publish + retire/cache/counter bookkeeping (rebuild_mu_ held).
  void publish_locked(std::shared_ptr<const Snapshot> next);

  obs::Registry& registry_;
  ServerOptions options_;
  std::optional<store::StoreDir> store_dir_;
  // Increment chain rooted at the generation the serving state derives
  // from (guarded by rebuild_mu_). Engaged only while that rooting is
  // provable: after store recovery, or after save_snapshot() commits.
  std::optional<delta::DeltaLog> delta_log_;
  bool loaded_from_store_ = false;
  std::mutex rebuild_mu_;  // serializes rebuild(); queries never take it
  std::mutex save_mu_;     // serializes save_snapshot() commits
  SnapshotStore store_;
  ShardedCache cache_;
  // Reclamation already reported to the serve.snapshots.reclaimed
  // counter (guarded by rebuild_mu_; counters are add-only).
  std::uint64_t reclaimed_reported_ = 0;
  obs::Counter& queries_;
  obs::Counter& swaps_published_;
  obs::Counter& swaps_failed_;
  obs::Counter& snapshots_retired_;
  obs::Counter& snapshots_reclaimed_;
  obs::Histogram& query_ns_;
};

}  // namespace fa::serve
