#include "shard/recovery.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "shard/codec.hpp"

namespace fa::shard {

using fault::ErrCode;
using fault::Status;

fault::Result<ShardedWorld> ShardRecoveryManager::load_generation(
    const store::Generation& generation, bool* migrated) {
  if (migrated) *migrated = false;
  const std::string path = dir_.file_path(generation.filename);
  auto mapped = store::MappedFile::open(path);
  if (!mapped.ok()) return mapped.status();
  auto file =
      std::make_shared<store::MappedFile>(std::move(mapped).take());
  store::apply_read_corruption(*file, generation.number);

  if (file->size() < 8) {
    return Status::error(ErrCode::kTruncated, file->size(), path,
                         "image shorter than a magic");
  }
  if (std::memcmp(file->data(), store::kMagic, 8) == 0) {
    // Pre-sharding monolithic image: full-ladder decode, then migrate.
    // Delegating keeps the manifest-CRC rung and decode semantics in
    // one place; the remap is cheap next to the decode itself.
    store::RecoveryManager mono(dir_);
    auto loaded = mono.load_generation(generation);
    if (!loaded.ok()) return loaded.status();
    obs::count(obs::metrics::kShardMigrations);
    if (migrated) *migrated = true;
    store::LoadedWorld lw = std::move(loaded).take();
    return ShardedWorld::from_world(lw.world, lw.provider_risk, layout_);
  }

  // FASHRD01 (or garbage — open_sharded rejects a bad magic). Always
  // deep-verify: the per-shard payload CRCs run as a parallel sweep
  // inside open_sharded, so integrity costs one fan-out over the file
  // instead of the monolithic ladder's serial whole-file pass — and a
  // failed CRC quarantines precisely the damaged shard while the rest
  // of the geography serves. The all-or-nothing manifest rung is
  // exactly what sharding exists to relax.
  OpenOptions options;
  options.deep_verify = true;
  const void* data = file->data();
  const std::size_t size = file->size();
  auto opened = open_sharded(data, size, std::move(file), path, options);
  if (!opened.ok()) return opened.status();
  ShardedWorld world = std::move(opened).take();
  if (world.shard_count() > 0 &&
      world.quarantined_count() == world.shard_count()) {
    return Status::error(ErrCode::kIoFailure, world.shard_count(), path,
                         "every shard quarantined; nothing servable");
  }
  if (world.quarantined_count() > 0) {
    obs::count(obs::metrics::kShardDegradedServes);
  }
  return world;
}

fault::Result<RecoveredShardedWorld> ShardRecoveryManager::recover(
    store::RecoveryReport* report) {
  std::optional<ShardedWorld> world;
  bool migrated = false;
  auto generation = store::recover_newest(
      dir_,
      [&](const store::Generation& g) {
        auto loaded = load_generation(g, &migrated);
        if (!loaded.ok()) return loaded.status();
        world.emplace(std::move(loaded).take());
        return Status{};
      },
      report);
  if (!generation.ok()) return generation.status();
  if (report && migrated) {
    report->steps.back().message = "loaded (migrated from monolithic image)";
  }
  return RecoveredShardedWorld{std::move(*world), generation.value(),
                               migrated};
}

fault::Result<RecoveredShardedWorld> recover_sharded(
    const std::string& path, const LayoutOptions& layout,
    store::RecoveryReport* report) {
  auto dir = store::StoreDir::open(path, /*create=*/false);
  if (!dir.ok()) return dir.status();
  ShardRecoveryManager manager(std::move(dir).take(), layout);
  return manager.recover(report);
}

}  // namespace fa::shard
