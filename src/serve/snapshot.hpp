// Immutable world snapshots and the RCU-style store that hot-swaps them.
//
// A Snapshot is everything one query epoch reads: a geo-sharded view of
// the world (fa::shard — WHP surface, county map, provider-risk
// aggregate, and the transceiver columns cut into shards and pages).
// After it is published a Snapshot is never mutated — queries touch it
// through const references only, so any number of reader threads share
// one snapshot without synchronization.
//
// There is one representation. build() streams the scenario straight
// into shard columns (shard::ShardedWorld::build — no core::World),
// recover() is shard::recover, apply() is shard::apply_delta, a save
// streams shard::sharded_image (FASHRD01), and every evaluate() goes
// through the shard planner (planner.cpp). A layout only says how the
// columns are cut; answers are the same bytes under any.
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
#include <span>
#include <string>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "delta/apply.hpp"
#include "serve/types.hpp"
#include "shard/world.hpp"
#include "store/store.hpp"

namespace fa::serve {

// Fault-injection seam: armed as "serve.snapshot.build" (keyed by the
// epoch under construction), a fired build returns its Status instead
// of a snapshot, and the store keeps serving the previous epoch.
inline constexpr std::string_view kSnapshotBuildSite = "serve.snapshot.build";

class Snapshot {
 public:
  // Builds the view for `config`, cut by `layout`. Any ingest failure
  // (per `policy`) or injected serve.snapshot.build fault surfaces as the
  // error Status.
  static fault::Result<std::shared_ptr<const Snapshot>> build(
      const synth::ScenarioConfig& config, Epoch epoch,
      fault::RecoveryPolicy policy = fault::RecoveryPolicy::kQuarantine,
      const shard::LayoutOptions& layout = {});

  // Wraps a view as an epoch: a built or cold-started root, or a delta
  // apply's successor (sharing untouched pages with its base, maybe
  // carrying tombstoned stable ids; answers see dense ids either way).
  static std::shared_ptr<const Snapshot> adopt(shard::ShardedWorld view,
                                               Epoch epoch);

  // The newest servable generation in `dir`, as epoch `epoch`, and the
  // generation it came from, through shard::recover (the store's one
  // recovery path): FASHRD01 opens zero-copy in the layout it carries,
  // checked against the manifest's whole-file CRC, degrading shard by
  // shard. `generation.crc` is that verified CRC.
  struct Recovered {
    std::shared_ptr<const Snapshot> snapshot;
    store::Generation generation;
  };
  static fault::Result<Recovered> recover(const store::StoreDir& dir,
                                          Epoch epoch);

  // This snapshot with `events` applied, as epoch `epoch`, through
  // shard::apply_delta. Fails closed (injected fault, strict-policy
  // error, a degraded view); `stats` is filled only on success.
  fault::Result<std::shared_ptr<const Snapshot>> apply(
      std::span<const delta::FeedEvent> events, Epoch epoch,
      const delta::ApplyOptions& options,
      delta::ApplyStats* stats = nullptr) const;

  Epoch epoch() const { return epoch_; }
  const shard::ShardedWorld& sharded() const { return *sharded_; }
  const core::ProviderRiskResult& provider_risk() const {
    return sharded_->provider_risk();
  }
  const synth::ScenarioConfig& config() const { return sharded_->config(); }

  // This epoch as a core::World, materialized on first use (counted as
  // shard.materializes) and cached; throws fault::IoError for a view too
  // damaged to materialize. No serving path calls it.
  const core::World& world() const;

 private:
  Snapshot(std::shared_ptr<const shard::ShardedWorld> sharded, Epoch epoch);

  mutable std::once_flag materialize_once_;
  mutable std::optional<core::World> world_;
  std::shared_ptr<const shard::ShardedWorld> sharded_;
  Epoch epoch_;
};

// -- query evaluation --------------------------------------------------
// Pure functions of (snapshot, query); the Server adds caching on top.
// Responses are deterministic: same snapshot content, same query, same
// bytes — the property the cache equivalence tests pin. The four
// interactive shapes are the planner's (planner.cpp).
PointRiskResponse evaluate(const Snapshot& snap, const PointRiskQuery& q);
BBoxAggregateResponse evaluate(const Snapshot& snap,
                               const BBoxAggregateQuery& q);
ProviderExposureResponse evaluate(const Snapshot& snap,
                                  const ProviderExposureQuery& q);
TopKSitesResponse evaluate(const Snapshot& snap, const TopKSitesQuery& q);
// The ensemble pair runs a whole seeded scenario ensemble against the
// snapshot's WHP surface and region transceivers (fa::ensemble) —
// expensive on a cache miss, but a pure function of (snapshot content,
// members, seed) like every other evaluate, so the cache and the
// equivalence tests treat it identically. Implemented in
// ensemble_eval.cpp.
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
