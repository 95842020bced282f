// Immutable world snapshots and the RCU-style store that hot-swaps them.
//
// A Snapshot is everything one query epoch reads: the built World (WHP
// surface, corpus, spatial index, per-transceiver caches) plus the
// aggregates that make O(1) answers possible (per-provider exposure).
// After build() returns, a Snapshot is never mutated — queries touch it
// through const references only, so any number of reader threads share
// one snapshot without synchronization.
//
// The SnapshotStore publishes new epochs atomically: readers acquire()
// a shared_ptr to the current snapshot (one small critical section),
// while publish() swaps the pointer and retires the old epoch. A
// retired snapshot stays alive exactly until its last in-flight reader
// drops the reference — the shared_ptr control block is the epoch
// reclamation mechanism — and the store's retired-list accounting makes
// that reclamation observable (the swap-race test asserts retired
// snapshots actually die once readers drain).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "fault/diagnostics.hpp"
#include "serve/types.hpp"
#include "shard/layout.hpp"

namespace fa::shard {
class ShardedWorld;
}  // namespace fa::shard

namespace fa::serve {

// Fault-injection seam: armed as "serve.snapshot.build" (keyed by the
// epoch under construction), a fired build returns its Status instead
// of a snapshot, and the store keeps serving the previous epoch.
inline constexpr std::string_view kSnapshotBuildSite = "serve.snapshot.build";

class Snapshot {
 public:
  // Builds the world for `config` and precomputes the query-side
  // aggregates. Any ingest failure (per `policy`) or injected
  // serve.snapshot.build fault surfaces as the error Status.
  static fault::Result<std::shared_ptr<const Snapshot>> build(
      const synth::ScenarioConfig& config, Epoch epoch,
      fault::RecoveryPolicy policy = fault::RecoveryPolicy::kQuarantine);

  // Wraps an already-built world (restored from the snapshot store) as
  // an epoch. The provider-risk aggregate is recomputed from the world,
  // exactly like build() — so a loaded epoch is indistinguishable from
  // a built one, which is what the byte-identity tests pin.
  static std::shared_ptr<const Snapshot> adopt(core::World world, Epoch epoch);

  // Wraps a world whose provider-risk aggregate is already known — the
  // delta path, where the aggregate was maintained incrementally
  // alongside the world and a recompute would throw away exactly the
  // work the incremental path saved. The aggregate must equal
  // run_provider_risk(world); the delta equivalence tests pin that.
  static std::shared_ptr<const Snapshot> adopt(
      core::World world, Epoch epoch, core::ProviderRiskResult provider_risk);

  // Wraps a geo-sharded view (fa::shard) as an epoch: a cold-started
  // view, or the successor a shard-native delta apply produced — which
  // shares every page its batch did not rewrite with the epoch before
  // it, and may carry tombstoned stable ids (responses and world() see
  // dense ids either way). Interactive queries route through the
  // scatter/gather planner (planner.cpp) and delta applies read the
  // shard pages directly; neither touches a monolithic World. world()
  // materializes one lazily only for the paths that still need
  // id-ordered arrays (ensemble queries).
  static std::shared_ptr<const Snapshot> adopt_sharded(
      shard::ShardedWorld sharded, Epoch epoch);

  // build()'s sharded twin: same injection seam, same diagnostics
  // plumbing, but the built world is partitioned by `layout` and the
  // snapshot serves through the planner. The monolithic world is
  // retained (it was just built — re-materializing it later would be
  // pure waste), so ensemble queries on this epoch stay cheap; delta
  // applies never need it.
  static fault::Result<std::shared_ptr<const Snapshot>> build_sharded(
      const synth::ScenarioConfig& config, Epoch epoch,
      fault::RecoveryPolicy policy = fault::RecoveryPolicy::kQuarantine,
      const shard::LayoutOptions& layout = {});

  Epoch epoch() const { return epoch_; }
  // Monolithic world backing this epoch. For a sharded snapshot with no
  // retained world (opened zero-copy, or produced by a delta apply) this
  // *materializes* on first use (validated scatter back to id order,
  // counted as shard.materializes) and caches the result for the
  // snapshot's lifetime; a view too damaged to materialize (quarantined
  // shards) throws fault::IoError. Sharded interactive queries and delta
  // applies never get here — they read the shard columns directly.
  const core::World& world() const;
  // Null for monolithic snapshots.
  const shard::ShardedWorld* sharded() const { return sharded_.get(); }
  const core::ProviderRiskResult& provider_risk() const {
    return provider_risk_;
  }
  // Scenario config without forcing a sharded snapshot to materialize.
  const synth::ScenarioConfig& config() const;
  const fault::Diagnostics& diagnostics() const { return diagnostics_; }

 private:
  Snapshot(core::World world, Epoch epoch);
  Snapshot(core::World world, Epoch epoch,
           core::ProviderRiskResult provider_risk);
  Snapshot(std::shared_ptr<const shard::ShardedWorld> sharded, Epoch epoch,
           std::optional<core::World> world);

  // Engaged at construction for monolithic snapshots; lazily engaged
  // (once_flag-guarded) for sharded ones.
  mutable std::once_flag materialize_once_;
  mutable std::optional<core::World> world_;
  std::shared_ptr<const shard::ShardedWorld> sharded_;
  Epoch epoch_;
  core::ProviderRiskResult provider_risk_;
  fault::Diagnostics diagnostics_;
};

// -- query evaluation --------------------------------------------------
// Pure functions of (snapshot, query); the Server adds caching and
// batching on top. Responses are deterministic: same snapshot content,
// same query, same bytes — the property the cache equivalence tests pin.
PointRiskResponse evaluate(const Snapshot& snap, const PointRiskQuery& q);
BBoxAggregateResponse evaluate(const Snapshot& snap,
                               const BBoxAggregateQuery& q);
ProviderExposureResponse evaluate(const Snapshot& snap,
                                  const ProviderExposureQuery& q);
TopKSitesResponse evaluate(const Snapshot& snap, const TopKSitesQuery& q);
// The ensemble pair runs a whole seeded scenario ensemble against the
// snapshot's world (fa::ensemble) — expensive on a cache miss, but a
// pure function of (snapshot content, members, seed) like every other
// evaluate, so the cache and the equivalence tests treat it identically.
// Implemented in ensemble_eval.cpp.
EnsembleSummaryResponse evaluate(const Snapshot& snap,
                                 const EnsembleSummaryQuery& q);
TopKFragileSitesResponse evaluate(const Snapshot& snap,
                                  const TopKFragileSitesQuery& q);

// RCU-style current-snapshot holder. acquire() and publish() are safe
// from any thread; the critical sections are pointer-sized.
class SnapshotStore {
 public:
  // Current snapshot, pinned for as long as the caller holds the
  // returned pointer. Null only before the first publish.
  std::shared_ptr<const Snapshot> acquire() const;

  // Atomically makes `next` the current snapshot. The displaced epoch
  // moves to the retired list; in-flight readers keep it alive until
  // they release. Returns the displaced snapshot's epoch (0 if none).
  Epoch publish(std::shared_ptr<const Snapshot> next);

  Epoch current_epoch() const;

  // Retired-epoch accounting (monotonic): how many snapshots have been
  // displaced, and how many of those have since been reclaimed (their
  // last reference dropped). reclaimed() sweeps expired entries.
  std::uint64_t retired() const;
  std::uint64_t reclaimed() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;
  // Displaced epochs, held weakly: an expired entry is a reclaimed one.
  mutable std::vector<std::weak_ptr<const Snapshot>> retired_;
  mutable std::uint64_t retired_total_ = 0;
  mutable std::uint64_t reclaimed_total_ = 0;
};

}  // namespace fa::serve
