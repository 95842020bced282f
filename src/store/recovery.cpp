#include "store/recovery.hpp"

#include <optional>
#include <utility>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace fa::store {

using fault::ErrCode;
using fault::Status;

void apply_read_corruption(MappedFile& file, std::uint64_t key) {
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

fault::Result<LoadedWorld> RecoveryManager::load_generation(
    const Generation& generation) {
  obs::Span span(obs::metrics::kStoreLoadNs);
  const std::string path = dir_.file_path(generation.filename);
  auto mapped = MappedFile::open(path);
  if (!mapped.ok()) return mapped.status();
  MappedFile file = std::move(mapped).take();
  apply_read_corruption(file, generation.number);
  // The manifest's whole-file CRC is the outermost rung: it catches
  // swaps of one valid image for another (both internally consistent).
  // Scan-derived entries carry crc 0 == "unknown", which skips the rung
  // but still runs the image's own ladder.
  if (generation.crc != 0) {
    if (file.size() != generation.size ||
        crc32(file.data(), file.size()) != generation.crc) {
      return Status::error(ErrCode::kParse, 0, path,
                           "image disagrees with manifest checksum");
    }
  }
  auto decoded = decode_world(file.data(), file.size(), path);
  if (decoded.ok()) {
    obs::count(obs::metrics::kStoreLoads);
    obs::count(obs::metrics::kStoreLoadBytes, file.size());
  }
  return decoded;
}

fault::Result<Generation> recover_newest(const StoreDir& dir,
                                         const GenerationLoader& load,
                                         RecoveryReport* report) {
  obs::Span span(obs::metrics::kStoreRecoverNs);
  Manifest manifest;
  auto from_manifest = dir.read_manifest();
  if (from_manifest.ok()) {
    manifest = std::move(from_manifest.value());
  } else {
    obs::count(obs::metrics::kStoreManifestFallbacks);
    if (report) {
      report->manifest_fallback = true;
      report->steps.push_back(from_manifest.status());
    }
    manifest = dir.scan();
  }
  if (manifest.generations.empty()) {
    return Status::error(ErrCode::kIoFailure, 0, dir.path(),
                         "store holds no generations");
  }
  Status last;
  for (auto it = manifest.generations.rbegin();
       it != manifest.generations.rend(); ++it) {
    obs::count(obs::metrics::kStoreRecoverAttempts);
    const Status loaded = load(*it);
    if (loaded.ok()) {
      obs::count(obs::metrics::kStoreRecoverLoaded);
      if (report) {
        Status okstep;
        okstep.source = dir.file_path(it->filename);
        okstep.message = "loaded";
        report->steps.push_back(okstep);
      }
      return *it;
    }
    obs::count(obs::metrics::kStoreRecoverRejected);
    last = loaded;
    if (report) report->steps.push_back(last);
  }
  last.message = "every generation rejected; newest failure: " + last.message;
  return last;
}

fault::Result<RecoveredWorld> RecoveryManager::recover(
    RecoveryReport* report) {
  std::optional<LoadedWorld> world;
  auto generation = recover_newest(
      dir_,
      [&](const Generation& g) {
        auto loaded = load_generation(g);
        if (!loaded.ok()) return loaded.status();
        world.emplace(std::move(loaded).take());
        return Status{};
      },
      report);
  if (!generation.ok()) return generation.status();
  return RecoveredWorld{std::move(*world), generation.value()};
}

fault::Result<RecoveredWorld> recover_from(const std::string& path,
                                           RecoveryReport* report) {
  auto dir = StoreDir::open(path, /*create=*/false);
  if (!dir.ok()) return dir.status();
  RecoveryManager manager(std::move(dir).take());
  return manager.recover(report);
}

}  // namespace fa::store
