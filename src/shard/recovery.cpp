#include "shard/recovery.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "shard/codec.hpp"

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

// A FASHRD01 container: the per-shard payload CRCs run as a parallel
// sweep inside open_sharded, so integrity costs one fan-out over the
// file instead of a serial whole-file pass, and a failed CRC
// quarantines precisely the damaged shard while the rest of the
// geography serves. `crc` receives the whole-file CRC derived from the
// table the open walked, checked against the manifest's when it
// carries one (a scan-derived entry carries 0, "unknown").
fault::Result<ShardedWorld> open_container(
    std::shared_ptr<const store::MappedFile> file,
    const store::Generation& generation, const std::string& path,
    std::uint32_t& crc) {
  const void* data = file->data();
  const std::size_t size = file->size();
  auto opened = open_sharded(data, size, std::move(file), path, &crc);
  if (!opened.ok()) return opened.status();
  // The manifest CRC catches what no section CRC covers: a swap of one
  // valid image for another, or a flipped header, table, padding or
  // footer byte.
  if (generation.crc != 0 &&
      (size != generation.size || crc != generation.crc)) {
    return Status::error(ErrCode::kParse, 0, path,
                         "image disagrees with manifest checksum");
  }
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
    std::uint32_t& crc) {
  obs::Span span(obs::metrics::kStoreLoadNs);
  const std::string path = dir.file_path(generation.filename);
  auto mapped = store::MappedFile::open(path);
  if (!mapped.ok()) return mapped.status();
  auto file = std::make_shared<store::MappedFile>(std::move(mapped).take());
  apply_read_corruption(*file, generation.number);
  const std::uint64_t bytes = file->size();
  auto loaded = open_container(std::move(file), generation, path, crc);
  if (loaded.ok()) {
    obs::count(obs::metrics::kStoreLoads);
    obs::count(obs::metrics::kStoreLoadBytes, bytes);
  }
  return loaded;
}

}  // namespace

fault::Result<Recovered> recover(const store::StoreDir& dir,
                                 store::RecoveryReport* report) {
  std::optional<ShardedWorld> world;
  std::uint32_t crc = 0;
  auto generation = store::recover_newest(
      dir,
      [&](const store::Generation& g) {
        auto loaded = load_generation(dir, g, crc);
        if (!loaded.ok()) return loaded.status();
        world.emplace(std::move(loaded).take());
        return Status{};
      },
      report);
  if (!generation.ok()) return generation.status();
  store::Generation verified = generation.value();
  verified.crc = crc;
  return Recovered{std::move(*world), std::move(verified)};
}

}  // namespace fa::shard
