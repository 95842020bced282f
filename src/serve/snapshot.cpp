#include "serve/snapshot.hpp"

#include "fault/injector.hpp"
#include "obs/obs.hpp"
#include "shard/apply.hpp"
#include "shard/recovery.hpp"

namespace fa::serve {

Snapshot::Snapshot(std::shared_ptr<const shard::ShardedWorld> sharded,
                   Epoch epoch)
    : sharded_(std::move(sharded)), epoch_(epoch) {}

fault::Result<std::shared_ptr<const Snapshot>> Snapshot::build(
    const synth::ScenarioConfig& config, Epoch epoch,
    fault::RecoveryPolicy policy, const shard::LayoutOptions& layout) {
  const obs::Span span("serve.snapshot.build");
  const fault::Injector& inj = fault::Injector::global();
  if (inj.armed() && inj.fires(kSnapshotBuildSite, epoch)) {
    return fault::Status::error(fault::ErrCode::kInjected, epoch,
                                std::string(kSnapshotBuildSite),
                                "injected snapshot build failure");
  }
  auto built = shard::ShardedWorld::build(config, {policy, nullptr}, layout);
  if (!built.ok()) return built.status();
  return adopt(std::move(built).take(), epoch);
}

std::shared_ptr<const Snapshot> Snapshot::adopt(shard::ShardedWorld view,
                                                Epoch epoch) {
  return std::shared_ptr<const Snapshot>(new Snapshot(
      std::make_shared<const shard::ShardedWorld>(std::move(view)), epoch));
}

fault::Result<Snapshot::Recovered> Snapshot::recover(
    const store::StoreDir& dir, Epoch epoch,
    const shard::LayoutOptions& layout) {
  auto recovered = shard::recover(dir, layout);
  if (!recovered.ok()) return recovered.status();
  shard::Recovered rec = std::move(recovered).take();
  return Recovered{adopt(std::move(rec.world), epoch), rec.generation};
}

fault::Result<std::shared_ptr<const Snapshot>> Snapshot::apply(
    std::span<const delta::FeedEvent> events, Epoch epoch,
    const delta::ApplyOptions& options, delta::ApplyStats* stats) const {
  auto applied = shard::apply_delta(*sharded_, events, options);
  if (!applied.ok()) return applied.status();
  shard::Successor result = std::move(applied).take();
  if (stats != nullptr) *stats = result.stats;
  return adopt(std::move(result.world), epoch);
}

const core::World& Snapshot::world() const {
  // call_once leaves the flag unset when the callable throws, so a
  // failed materialization (a degraded view) throws again on retry.
  std::call_once(materialize_once_, [this] {
    fault::Result<core::World> materialized = sharded_->materialize();
    if (!materialized.ok()) throw fault::IoError(materialized.status());
    world_.emplace(std::move(materialized).take());
  });
  return *world_;
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
