// Canonical metric names for the serving layer (`fa::serve`). The names
// live here rather than in serve itself so the observability namespace
// has one owner: dashboards, tests, and exporters reference these
// constants instead of re-typing strings, and a rename shows up as a
// compile error instead of a silently empty time series.
//
// Conventions (matching the organically grown exec.* / world.* names):
// dot-separated lowercase, counter names are plural events or nouns,
// histogram names end in the unit they record (.ns for nanosecond
// durations, bare nouns for magnitudes such as batch size).
#pragma once

#include <string_view>

namespace fa::obs::metrics {

// -- query front door -------------------------------------------------
// One per request admitted through Server, regardless of path.
inline constexpr std::string_view kServeQueries = "serve.queries";
// End-to-end request latency (cache lookup + evaluation), nanoseconds.
inline constexpr std::string_view kServeQueryNs = "serve.query_ns";

// -- sharded result cache ---------------------------------------------
inline constexpr std::string_view kServeCacheHits = "serve.cache.hits";
inline constexpr std::string_view kServeCacheMisses = "serve.cache.misses";
inline constexpr std::string_view kServeCacheEvictions =
    "serve.cache.evictions";
// Entries discarded by the injected-corruption seam ("serve.cache"):
// a fired entry is treated as failing its integrity check and dropped,
// so the request falls through to recomputation.
inline constexpr std::string_view kServeCacheCorruptDropped =
    "serve.cache.corrupt_dropped";
// Wholesale invalidations (one per snapshot publish).
inline constexpr std::string_view kServeCacheInvalidations =
    "serve.cache.invalidations";

// -- request batching -------------------------------------------------
// Nothing records this: queries are not batched. The name stays because
// perfbench/src/layers.cpp still reads it (an empty histogram reads 0).
inline constexpr std::string_view kServeBatchSize = "serve.batch.size";

// -- snapshot hot-swap ------------------------------------------------
// Successful epoch publishes.
inline constexpr std::string_view kServeSwapsPublished =
    "serve.swaps.published";
// Rebuilds that failed before publish (old epoch kept serving).
inline constexpr std::string_view kServeSwapsFailed = "serve.swaps.failed";
// Snapshots displaced by a publish and no longer reachable by new
// queries; they stay alive until their last in-flight reader releases.
inline constexpr std::string_view kServeSnapshotsRetired =
    "serve.snapshots.retired";
// Retired snapshots whose storage has actually been reclaimed.
inline constexpr std::string_view kServeSnapshotsReclaimed =
    "serve.snapshots.reclaimed";

// -- network front door (`fa::net`) -----------------------------------
// Connection lifecycle.
inline constexpr std::string_view kNetConnectionsAccepted =
    "net.connections.accepted";
inline constexpr std::string_view kNetConnectionsClosed =
    "net.connections.closed";
// Connections dropped because their outbox exceeded the slow-client
// cap (the reader stopped draining while responses kept landing).
inline constexpr std::string_view kNetConnectionsDroppedSlow =
    "net.connections.dropped_slow";
// Connections closed by the idle sweep (no traffic) or the read-timeout
// sweep (stalled mid-frame).
inline constexpr std::string_view kNetTimeouts = "net.timeouts";

// Traffic volume.
inline constexpr std::string_view kNetBytesIn = "net.bytes.in";
inline constexpr std::string_view kNetBytesOut = "net.bytes.out";
// Complete binary frames parsed off / written to sockets.
inline constexpr std::string_view kNetFramesIn = "net.frames.in";
inline constexpr std::string_view kNetFramesOut = "net.frames.out";
// Complete HTTP requests parsed (the shim shares all other counters).
inline constexpr std::string_view kNetHttpRequests = "net.http.requests";

// Admission control. Every parsed request lands in exactly one of:
// ok (queued and answered), bad (malformed), shed (queue full -> BUSY),
// rate_limited (token bucket empty), or shutdown_reject (draining).
inline constexpr std::string_view kNetRequestsOk = "net.requests.ok";
inline constexpr std::string_view kNetRequestsBad = "net.requests.bad";
inline constexpr std::string_view kNetSheds = "net.sheds";
inline constexpr std::string_view kNetRateLimited = "net.rate_limited";
inline constexpr std::string_view kNetShutdownRejects =
    "net.shutdown_rejects";
// Admission-queue depth observed at enqueue time (histogram).
inline constexpr std::string_view kNetQueueDepth = "net.queue.depth";

// Per-endpoint latency, enqueue to response-encoded (histograms, ns).
inline constexpr std::string_view kNetLatencyPointRiskNs =
    "net.latency.point_risk_ns";
inline constexpr std::string_view kNetLatencyBBoxNs = "net.latency.bbox_ns";
inline constexpr std::string_view kNetLatencyProviderNs =
    "net.latency.provider_ns";
inline constexpr std::string_view kNetLatencyTopKNs = "net.latency.top_k_ns";
inline constexpr std::string_view kNetLatencyScenarioNs =
    "net.latency.scenario_ns";
// Both ensemble-backed endpoints (summary + fragile-sites) share one
// histogram: they run the same driver and differ only in projection.
inline constexpr std::string_view kNetLatencyEnsembleNs =
    "net.latency.ensemble_ns";

// -- cascading-scenario ensembles (`fa::ensemble`) --------------------
// Ensemble runs started (one per run_ensemble call).
inline constexpr std::string_view kEnsembleRuns = "ensemble.runs";
// Members simulated to completion and members quarantined by the
// "ensemble.member" fault seam (every scheduled member lands in exactly
// one of the two).
inline constexpr std::string_view kEnsembleMembers = "ensemble.members";
inline constexpr std::string_view kEnsembleQuarantined =
    "ensemble.members.quarantined";
// Fires ignited and site-days of outage accumulated across all members.
inline constexpr std::string_view kEnsembleFires = "ensemble.fires";
inline constexpr std::string_view kEnsembleOutageSiteDays =
    "ensemble.outage_site_days";
// Hardening-optimizer invocations and marginal-gain evaluations (the
// lazy-greedy heap makes evaluations << candidates x budget).
inline constexpr std::string_view kEnsembleOptimizerRuns =
    "ensemble.optimizer.runs";
inline constexpr std::string_view kEnsembleOptimizerEvals =
    "ensemble.optimizer.evals";
// Span/histogram names (nanoseconds). inputs = shared-state preparation,
// run = whole ensemble, member_ns = one member end to end.
inline constexpr std::string_view kEnsembleInputsNs = "ensemble.inputs_ns";
inline constexpr std::string_view kEnsembleRunNs = "ensemble.run_ns";
inline constexpr std::string_view kEnsembleMemberNs = "ensemble.member_ns";
inline constexpr std::string_view kEnsembleOptimizeNs =
    "ensemble.optimize_ns";

// -- prepared-geometry kernels ----------------------------------------
// PreparedRing builds (one per ring: outer, hole, or multipolygon part).
inline constexpr std::string_view kGeoPreparedBuilds = "geo.prepared.builds";
// Total y-slabs allocated across builds.
inline constexpr std::string_view kGeoPreparedSlabs = "geo.prepared.slabs";
// Points pushed through a polygon-level contains_batch kernel.
inline constexpr std::string_view kGeoPreparedBatchProbes =
    "geo.prepared.batch_probes";
// Batch probes answered by the bbox-exterior or interior-box fast path
// without touching a single edge.
inline constexpr std::string_view kGeoPreparedFastPathHits =
    "geo.prepared.fastpath_hits";

// -- snapshot persistence (`fa::store`) -------------------------------
// Committed generations and bytes written through the atomic protocol.
inline constexpr std::string_view kStoreSaves = "store.saves";
inline constexpr std::string_view kStoreSaveBytes = "store.save.bytes";
// Commits that failed (torn write seam, IO failure); no generation was
// published and the manifest is untouched.
inline constexpr std::string_view kStoreSaveFailures = "store.save.failures";
// Old generations unlinked by the keep-window prune.
inline constexpr std::string_view kStorePruned = "store.pruned";
// Successful mmap loads and bytes validated+copied out of images.
inline constexpr std::string_view kStoreLoads = "store.loads";
inline constexpr std::string_view kStoreLoadBytes = "store.load.bytes";
// Recovery ladder: generations attempted, rejected (corrupt/unreadable),
// and successfully restored; manifest reads that had to fall back to a
// directory scan.
inline constexpr std::string_view kStoreRecoverAttempts =
    "store.recover.attempts";
inline constexpr std::string_view kStoreRecoverRejected =
    "store.recover.rejected";
inline constexpr std::string_view kStoreRecoverLoaded =
    "store.recover.loaded";
inline constexpr std::string_view kStoreManifestFallbacks =
    "store.manifest.fallbacks";
// Boots that exhausted every generation and fell back to a full
// rebuild (counted by the serve layer).
inline constexpr std::string_view kStoreRecoverRebuilds =
    "store.recover.rebuilds";
// Span/histogram names (nanoseconds).
inline constexpr std::string_view kStoreSaveNs = "store.save_ns";
inline constexpr std::string_view kStoreLoadNs = "store.load_ns";
inline constexpr std::string_view kStoreRecoverNs = "store.recover_ns";

// -- geo-sharded world (`fa::shard`) -----------------------------------
// Sharded views built from in-memory worlds (from_world) and opened
// from mmap'd FASHRD01 containers.
inline constexpr std::string_view kShardBuilds = "shard.builds";
inline constexpr std::string_view kShardOpens = "shard.opens";
// Shards quarantined at open / deep-verify (structural or CRC damage);
// the rest of the container keeps serving degraded.
inline constexpr std::string_view kShardQuarantined = "shard.quarantined";
// Point queries routed (counter += shards touched; one in the common
// case, more when a neighborhood disc straddles a shard boundary).
inline constexpr std::string_view kShardPointRoutes = "shard.point_routes";
// Shard fan-outs (one per bbox/top-K query, scanned on the calling
// thread) and the shards each touched.
inline constexpr std::string_view kShardFanouts = "shard.fanouts";
inline constexpr std::string_view kShardFanoutShards = "shard.fanout_shards";
// Queries that touched a quarantined shard and answered degraded.
inline constexpr std::string_view kShardDegradedServes =
    "shard.degraded_serves";
// Lazy monolithic-world materializations off a sharded view.
inline constexpr std::string_view kShardMaterializes = "shard.materializes";
// Delta applies routed through the sharded view: shards with a rewritten
// page vs shards sharing their base's whole page table, and the same
// split counted in pages (the copy-on-write unit).
inline constexpr std::string_view kShardDeltaRebuilt = "shard.delta.rebuilt";
inline constexpr std::string_view kShardDeltaShared = "shard.delta.shared";
inline constexpr std::string_view kShardDeltaPagesRewritten =
    "shard.delta.pages_rewritten";
inline constexpr std::string_view kShardDeltaPagesShared =
    "shard.delta.pages_shared";
// Stable-id compactions: tombstones passed 1/8 of the live ids and an
// apply rewrote every id dense.
inline constexpr std::string_view kShardIdsCompactions =
    "shard.ids.compactions";
// Span/histogram names (nanoseconds).
inline constexpr std::string_view kShardOpenNs = "shard.open_ns";
inline constexpr std::string_view kShardBuildNs = "shard.build_ns";
inline constexpr std::string_view kShardMaterializeNs =
    "shard.materialize_ns";
// Lineage index builds (the first delta apply over a lineage root).
inline constexpr std::string_view kShardLineageBuildNs =
    "shard.lineage.build_ns";

// -- live-feed incremental updates (`fa::delta`) ----------------------
// Raw events the ingestor saw, after the delta.feed seam; counted by
// the ingestor alone, so it equals the sum of the four dispositions.
inline constexpr std::string_view kDeltaFeedEvents = "delta.feed.events";
// Ingestor dispositions: each raw event lands in exactly one.
inline constexpr std::string_view kDeltaFeedAccepted = "delta.feed.accepted";
inline constexpr std::string_view kDeltaFeedDuplicates =
    "delta.feed.duplicates";
inline constexpr std::string_view kDeltaFeedStale = "delta.feed.stale";
inline constexpr std::string_view kDeltaFeedMalformed =
    "delta.feed.malformed";
// Batches applied to produce a new epoch, and their event volume.
inline constexpr std::string_view kDeltaApplies = "delta.applies";
inline constexpr std::string_view kDeltaApplyEvents = "delta.apply.events";
// Applies that failed before producing a world (injected delta.apply
// fault, strict-policy validation error).
inline constexpr std::string_view kDeltaApplyFailures =
    "delta.apply.failures";
// WHP raster cells rewritten and transceivers re-evaluated per apply.
inline constexpr std::string_view kDeltaApplyWhpCells =
    "delta.apply.whp_cells";
inline constexpr std::string_view kDeltaApplyDirtyTxr =
    "delta.apply.dirty_txr";
// Hash-chained increment log: durable appends, append failures
// (durability degraded, serving unaffected), batches replayed on cold
// start, and chains truncated at a broken link.
inline constexpr std::string_view kDeltaLogAppends = "delta.log.appends";
inline constexpr std::string_view kDeltaLogAppendFailures =
    "delta.log.append_failures";
inline constexpr std::string_view kDeltaLogReplayed = "delta.log.replayed";
inline constexpr std::string_view kDeltaLogTruncated = "delta.log.truncated";
// Span names (nanoseconds).
inline constexpr std::string_view kDeltaFeedTickNs = "delta.feed.tick_ns";
inline constexpr std::string_view kDeltaApplyNs = "delta.apply_ns";
inline constexpr std::string_view kDeltaLogReplayNs = "delta.log.replay_ns";

}  // namespace fa::obs::metrics
