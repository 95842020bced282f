#include "serve/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "fault/injector.hpp"
#include "geo/geodesy.hpp"
#include "index/grid_index.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/planner.hpp"
#include "shard/apply.hpp"
#include "shard/codec.hpp"
#include "shard/recovery.hpp"
#include "shard/world.hpp"
#include "store/codec.hpp"
#include "store/recovery.hpp"

namespace fa::serve {

Snapshot::Snapshot(core::World world, Epoch epoch)
    : world_(std::move(world)),
      epoch_(epoch),
      provider_risk_(core::run_provider_risk(*world_)) {}

fault::Result<std::shared_ptr<const Snapshot>> Snapshot::build(
    const synth::ScenarioConfig& config, Epoch epoch,
    fault::RecoveryPolicy policy,
    const std::optional<shard::LayoutOptions>& layout) {
  const obs::Span span("serve.snapshot.build");
  const fault::Injector& inj = fault::Injector::global();
  if (inj.armed() && inj.fires(kSnapshotBuildSite, epoch)) {
    return fault::Status::error(fault::ErrCode::kInjected, epoch,
                                std::string(kSnapshotBuildSite),
                                "injected snapshot build failure");
  }
  fault::Diagnostics diagnostics;
  core::World::BuildOptions options;
  options.policy = policy;
  options.diagnostics = &diagnostics;
  fault::Result<core::World> world = core::World::build(config, options);
  if (!world.ok()) return world.status();
  core::World built = std::move(world).take();
  core::ProviderRiskResult risk = core::run_provider_risk(built);
  std::shared_ptr<Snapshot> snap;
  if (layout) {
    shard::ShardedWorld sharded =
        shard::ShardedWorld::from_world(built, risk, *layout);
    snap.reset(new Snapshot(
        std::make_shared<const shard::ShardedWorld>(std::move(sharded)),
        epoch, std::move(built)));
  } else {
    snap.reset(new Snapshot(std::move(built), epoch, std::move(risk)));
  }
  snap->diagnostics_ = std::move(diagnostics);
  return std::shared_ptr<const Snapshot>(std::move(snap));
}

std::shared_ptr<const Snapshot> Snapshot::adopt(core::World world,
                                                Epoch epoch) {
  return std::shared_ptr<const Snapshot>(
      new Snapshot(std::move(world), epoch));
}

Snapshot::Snapshot(core::World world, Epoch epoch,
                   core::ProviderRiskResult provider_risk)
    : world_(std::move(world)),
      epoch_(epoch),
      provider_risk_(std::move(provider_risk)) {}

std::shared_ptr<const Snapshot> Snapshot::adopt(
    core::World world, Epoch epoch, core::ProviderRiskResult provider_risk) {
  return std::shared_ptr<const Snapshot>(
      new Snapshot(std::move(world), epoch, std::move(provider_risk)));
}

Snapshot::Snapshot(std::shared_ptr<const shard::ShardedWorld> sharded,
                   Epoch epoch, std::optional<core::World> world)
    : world_(std::move(world)),
      sharded_(std::move(sharded)),
      epoch_(epoch),
      provider_risk_(sharded_->provider_risk()) {}

std::shared_ptr<const Snapshot> Snapshot::adopt_sharded(
    shard::ShardedWorld sharded, Epoch epoch) {
  return std::shared_ptr<const Snapshot>(new Snapshot(
      std::make_shared<const shard::ShardedWorld>(std::move(sharded)), epoch,
      std::nullopt));
}

fault::Result<Snapshot::Recovered> Snapshot::recover(
    const store::StoreDir& dir, Epoch epoch,
    const std::optional<shard::LayoutOptions>& layout) {
  if (layout) {
    auto recovered = shard::ShardRecoveryManager(dir, *layout).recover();
    if (!recovered.ok()) return recovered.status();
    shard::RecoveredShardedWorld rec = std::move(recovered).take();
    return Recovered{adopt_sharded(std::move(rec.world), epoch),
                     rec.generation};
  }
  auto recovered = store::RecoveryManager(dir).recover();
  if (!recovered.ok()) return recovered.status();
  store::RecoveredWorld rec = std::move(recovered).take();
  return Recovered{adopt(std::move(rec.loaded.world), epoch,
                         std::move(rec.loaded.provider_risk)),
                   rec.generation};
}

fault::Result<std::shared_ptr<const Snapshot>> Snapshot::apply(
    std::span<const delta::FeedEvent> events, Epoch epoch,
    const delta::ApplyOptions& options, delta::ApplyStats* stats) const {
  if (sharded_) {
    auto applied = shard::apply_delta(*sharded_, events, options);
    if (!applied.ok()) return applied.status();
    shard::ShardApplyResult result = std::move(applied).take();
    if (stats != nullptr) *stats = result.stats;
    return adopt_sharded(std::move(result.world), epoch);
  }
  auto applied =
      delta::Applier::apply(*world_, provider_risk_, events, options);
  if (!applied.ok()) return applied.status();
  delta::ApplyResult result = std::move(applied).take();
  if (stats != nullptr) *stats = result.stats;
  return adopt(std::move(result.world), epoch,
               std::move(result.provider_risk));
}

fault::Result<std::string> Snapshot::encode() const {
  if (!sharded_) return store::encode_world(*world_, provider_risk_);
  if (sharded_->quarantined_count() > 0) {
    return fault::Status::error(fault::ErrCode::kIoFailure, epoch_,
                                "serve.store",
                                "refusing to persist a degraded sharded view");
  }
  return shard::encode_sharded(*sharded_);
}

const core::World& Snapshot::world() const {
  // Fast path: monolithic snapshots (and sharded ones constructed with
  // the world in hand) engage world_ before publication; the call_once
  // only ever fires for a zero-copy sharded view whose monolithic form
  // is needed after the fact. call_once leaves the flag unset when the
  // callable throws, so a transiently failing materialization (it is
  // deterministic, but symmetry costs nothing) would retry.
  std::call_once(materialize_once_, [this] {
    if (world_.has_value()) return;
    fault::Result<core::World> materialized = sharded_->materialize();
    if (!materialized.ok()) throw fault::IoError(materialized.status());
    world_.emplace(std::move(materialized).take());
  });
  return *world_;
}

const synth::ScenarioConfig& Snapshot::config() const {
  return sharded_ ? sharded_->config() : world_->config();
}

PointRiskResponse evaluate(const Snapshot& snap, const PointRiskQuery& q) {
  if (snap.sharded()) {
    return evaluate_sharded(*snap.sharded(), snap.epoch(), q);
  }
  const core::World& world = snap.world();
  const synth::WhpModel& whp = world.whp();
  PointRiskResponse r;
  r.epoch = snap.epoch();
  r.whp = whp.class_at(q.point);
  r.at_risk = synth::whp_at_risk(r.whp);
  r.urban = whp.is_urban(q.point);
  r.roadside = whp.is_road(q.point);
  r.state = whp.state_at(q.point);
  r.county = world.counties().county_of(q.point);
  if (q.neighborhood_m > 0.0) {
    // Span sweep over the grid's SoA storage. The disc bbox only
    // encloses the great-circle disc, so the explicit contains() filter
    // (what the Exact query callback applied per point) must stay ahead
    // of the haversine test; the tallies are order-independent sums.
    const geo::BBox box = detail::disc_bbox(q.point, q.neighborhood_m);
    const index::GridIndex& idx = world.txr_index();
    const std::span<const std::uint32_t> ids = idx.binned_ids();
    const std::span<const double> xs = idx.binned_xs();
    const std::span<const double> ys = idx.binned_ys();
    idx.query_spans(box, [&](std::uint32_t b, std::uint32_t e) {
      for (std::uint32_t k = b; k < e; ++k) {
        const geo::Vec2 p{xs[k], ys[k]};
        if (!box.contains(p)) continue;
        if (geo::haversine_m(q.point, geo::LonLat::from_vec(p)) >
            q.neighborhood_m) {
          continue;
        }
        ++r.nearby_txr;
        if (synth::whp_at_risk(world.txr_class(ids[k]))) ++r.nearby_at_risk;
      }
    });
  }
  return r;
}

BBoxAggregateResponse evaluate(const Snapshot& snap,
                               const BBoxAggregateQuery& q) {
  if (snap.sharded()) {
    return evaluate_sharded(*snap.sharded(), snap.epoch(), q);
  }
  const core::World& world = snap.world();
  BBoxAggregateResponse r;
  r.epoch = snap.epoch();
  const index::GridIndex& idx = world.txr_index();
  const std::span<const std::uint32_t> ids = idx.binned_ids();
  const std::span<const double> xs = idx.binned_xs();
  const std::span<const double> ys = idx.binned_ys();
  idx.query_spans(q.bbox, [&](std::uint32_t b, std::uint32_t e) {
    for (std::uint32_t k = b; k < e; ++k) {
      if (!q.bbox.contains({xs[k], ys[k]})) continue;
      const synth::WhpClass c = world.txr_class(ids[k]);
      ++r.transceivers;
      ++r.by_class[static_cast<std::size_t>(c)];
      if (synth::whp_at_risk(c)) ++r.at_risk;
      ++r.by_provider[static_cast<std::size_t>(world.txr_provider(ids[k]))];
    }
  });
  return r;
}

ProviderExposureResponse evaluate(const Snapshot& snap,
                                  const ProviderExposureQuery& q) {
  if (snap.sharded()) {
    return evaluate_sharded(*snap.sharded(), snap.epoch(), q);
  }
  const core::ProviderRiskRow& row =
      snap.provider_risk().rows[static_cast<std::size_t>(q.provider)];
  ProviderExposureResponse r;
  r.epoch = snap.epoch();
  r.provider = q.provider;
  r.fleet = row.fleet;
  r.moderate = row.moderate;
  r.high = row.high;
  r.very_high = row.very_high;
  return r;
}

TopKSitesResponse evaluate(const Snapshot& snap, const TopKSitesQuery& q) {
  if (snap.sharded()) {
    return evaluate_sharded(*snap.sharded(), snap.epoch(), q);
  }
  const core::World& world = snap.world();
  TopKSitesResponse r;
  r.epoch = snap.epoch();
  std::vector<RankedSite> candidates;
  const geo::BBox box = detail::disc_bbox(q.center, q.radius_m);
  const index::GridIndex& idx = world.txr_index();
  const std::span<const std::uint32_t> ids = idx.binned_ids();
  const std::span<const double> xs = idx.binned_xs();
  const std::span<const double> ys = idx.binned_ys();
  std::size_t in_box = 0;
  idx.query_spans(box, [&in_box](std::uint32_t b, std::uint32_t e) {
    in_box += e - b;
  });
  candidates.reserve(in_box);
  idx.query_spans(box, [&](std::uint32_t b, std::uint32_t e) {
    for (std::uint32_t k = b; k < e; ++k) {
      const geo::Vec2 p{xs[k], ys[k]};
      if (!box.contains(p)) continue;
      const geo::LonLat pos = geo::LonLat::from_vec(p);
      const double d = geo::haversine_m(q.center, pos);
      if (d > q.radius_m) continue;
      candidates.push_back({ids[k], pos, world.txr_class(ids[k]), d});
    }
  });
  r.candidates = static_cast<std::uint32_t>(candidates.size());
  const auto riskier = [](const RankedSite& a, const RankedSite& b) {
    if (a.whp != b.whp) return a.whp > b.whp;
    if (a.distance_m != b.distance_m) return a.distance_m < b.distance_m;
    return a.txr_id < b.txr_id;
  };
  const std::size_t k = std::min<std::size_t>(q.k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + k,
                    candidates.end(), riskier);
  candidates.resize(k);
  r.sites = std::move(candidates);
  return r;
}

std::shared_ptr<const Snapshot> SnapshotStore::acquire() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Epoch SnapshotStore::publish(std::shared_ptr<const Snapshot> next) {
  std::shared_ptr<const Snapshot> displaced;
  Epoch displaced_epoch = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    displaced = std::move(current_);
    current_ = std::move(next);
    if (displaced) {
      displaced_epoch = displaced->epoch();
      retired_.push_back(displaced);
      ++retired_total_;
    }
  }
  // `displaced` drops outside the lock: if this publish held the last
  // reference, the old world's destructor must not run inside it.
  return displaced_epoch;
}

Epoch SnapshotStore::current_epoch() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return current_ ? current_->epoch() : 0;
}

std::uint64_t SnapshotStore::retired() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return retired_total_;
}

std::uint64_t SnapshotStore::reclaimed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(retired_, [this](const std::weak_ptr<const Snapshot>& w) {
    if (!w.expired()) return false;
    ++reclaimed_total_;
    return true;
  });
  return reclaimed_total_;
}

}  // namespace fa::serve
