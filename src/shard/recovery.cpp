#include "shard/recovery.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "shard/codec.hpp"
#include "store/codec.hpp"

namespace fa::shard {

namespace {

using fault::ErrCode;
using fault::Status;

// The read-corruption seam ("store.read.corrupt", keyed by generation
// number): flips a few seeded bytes of the fresh mapping. MAP_PRIVATE
// makes the flips process-local; the file on disk stays intact,
// modelling bad RAM / a bit-rotted read path rather than durable
// corruption.
void apply_read_corruption(store::MappedFile& file, std::uint64_t key) {
  const auto& injector = fault::Injector::global();
  if (!injector.fires("store.read.corrupt", key)) return;
  unsigned char* bytes = file.mutable_data();
  const std::uint64_t flips =
      1 + injector.draw("store.read.corrupt", key ^ 0x9E3779B97F4A7C15ull) % 4;
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint64_t r = injector.draw("store.read.corrupt", key + 1 + i);
    bytes[r % file.size()] ^= static_cast<unsigned char>(1u << (r % 8));
  }
}

// A pre-sharding FASNAP01 image: the manifest's whole-file CRC, the
// strict decode, then an in-memory migration cut by `layout`.
fault::Result<ShardedWorld> migrate(const store::MappedFile& file,
                                    const store::Generation& generation,
                                    const std::string& path,
                                    const LayoutOptions& layout) {
  // The manifest CRC catches swaps of one valid image for another (both
  // internally consistent). Scan-derived entries carry crc 0 ==
  // "unknown", which skips the rung but still runs the decode's ladder.
  if (generation.crc != 0 &&
      (file.size() != generation.size ||
       store::crc32(file.data(), file.size()) != generation.crc)) {
    return Status::error(ErrCode::kParse, 0, path,
                         "image disagrees with manifest checksum");
  }
  auto decoded = store::decode_world(file.data(), file.size(), path);
  if (!decoded.ok()) return decoded.status();
  obs::count(obs::metrics::kShardMigrations);
  const store::LoadedWorld& lw = decoded.value();
  return ShardedWorld::from_world(lw.world, lw.provider_risk, layout);
}

// A FASHRD01 container: the per-shard payload CRCs run as a parallel
// sweep inside open_sharded, so integrity costs one fan-out over the
// file instead of a serial whole-file pass, and a failed CRC
// quarantines precisely the damaged shard while the rest of the
// geography serves.
fault::Result<ShardedWorld> open_container(
    std::shared_ptr<const store::MappedFile> file, const std::string& path) {
  const void* data = file->data();
  const std::size_t size = file->size();
  auto opened = open_sharded(data, size, std::move(file), path);
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

// The one per-generation loader.
fault::Result<ShardedWorld> load_generation(
    const store::StoreDir& dir, const store::Generation& generation,
    const LayoutOptions& layout, bool& migrated) {
  obs::Span span(obs::metrics::kStoreLoadNs);
  const std::string path = dir.file_path(generation.filename);
  auto mapped = store::MappedFile::open(path);
  if (!mapped.ok()) return mapped.status();
  auto file = std::make_shared<store::MappedFile>(std::move(mapped).take());
  apply_read_corruption(*file, generation.number);
  if (file->size() < 8) {
    return Status::error(ErrCode::kTruncated, file->size(), path,
                         "image shorter than a magic");
  }
  const std::uint64_t bytes = file->size();
  migrated = std::memcmp(file->data(), store::kMagic, 8) == 0;
  // Anything else is FASHRD01 or garbage; open_sharded rejects a bad
  // magic.
  auto loaded = migrated ? migrate(*file, generation, path, layout)
                         : open_container(std::move(file), path);
  if (loaded.ok()) {
    obs::count(obs::metrics::kStoreLoads);
    obs::count(obs::metrics::kStoreLoadBytes, bytes);
  }
  return loaded;
}

}  // namespace

fault::Result<Recovered> recover(const store::StoreDir& dir,
                                 const LayoutOptions& layout,
                                 store::RecoveryReport* report) {
  std::optional<ShardedWorld> world;
  bool migrated = false;
  auto generation = store::recover_newest(
      dir,
      [&](const store::Generation& g) {
        auto loaded = load_generation(dir, g, layout, migrated);
        if (!loaded.ok()) return loaded.status();
        world.emplace(std::move(loaded).take());
        return Status{};
      },
      report);
  if (!generation.ok()) return generation.status();
  if (report && migrated) {
    report->steps.back().message = "loaded (migrated from monolithic image)";
  }
  return Recovered{std::move(*world), generation.value(), migrated};
}

}  // namespace fa::shard
