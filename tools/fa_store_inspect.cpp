// fa_store_inspect — operator's view of a snapshot store.
//
//   fa_store_inspect STORE_DIR          inspect the whole store
//   fa_store_inspect --image FILE.fa    inspect one FASHRD01 image
//
// Dumps the manifest (generation chain, sizes, checksums), prints each
// generation's whole-file CRC derived from its table beside the one the
// manifest recorded, and walks every generation's FASHRD01 container,
// printing per-shard status; then says what a cold start would serve by
// running the recovery fa_served boots through (shard::recover). Exit
// code 0 means everything verified; any corruption — unreadable
// manifest, missing generation, a file in another format, a CRC that
// disagrees with the manifest, failed section CRC, structural mismatch
// — is reported and the exit code is non-zero, so the tool slots into
// health checks ("is this store safe to boot from?").
#include <cstdio>
#include <cstring>
#include <string>

#include "shard/codec.hpp"
#include "shard/recovery.hpp"
#include "store/store.hpp"

namespace {

using namespace fa;

// Maps and walks one image: its report, or the Status of a file that
// cannot be mapped or walked (a foreign magic included).
fault::Result<shard::ContainerReport> inspect_file(const std::string& path) {
  fault::Result<store::MappedFile> mapped = store::MappedFile::open(path);
  if (!mapped.ok()) return mapped.status();
  return shard::inspect_sharded(mapped.value().data(), mapped.value().size(),
                                path);
}

// Per-shard listing: bounds, point count, payload bytes, structural and
// CRC status. A shard that fails either check is what a cold start
// would quarantine — flagged loudly. Returns true when the container
// verified clean.
bool print_report(const fault::Result<shard::ContainerReport>& report,
                  const std::string& path) {
  if (!report.ok()) {
    std::printf("  %-22s CORRUPT     %s\n", path.c_str(),
                report.status().to_string().c_str());
    return false;
  }
  const shard::ContainerReport& r = report.value();
  std::printf(
      "  FASHRD01, %llu bytes, %llu points, %llux%llu tiles, globals %s\n",
      static_cast<unsigned long long>(r.file_size),
      static_cast<unsigned long long>(r.total_points),
      static_cast<unsigned long long>(r.tiles_x),
      static_cast<unsigned long long>(r.tiles_y),
      r.globals_ok ? "ok" : "BAD");
  for (const shard::ShardReport& s : r.shards) {
    std::printf(
        "    shard %-3u [%8.3f,%7.3f → %8.3f,%7.3f] %9llu pts %11llu B "
        "structure=%s crc=%s%s\n",
        s.shard, s.bounds.min_x, s.bounds.min_y, s.bounds.max_x,
        s.bounds.max_y, static_cast<unsigned long long>(s.n_points),
        static_cast<unsigned long long>(s.bytes),
        s.structural_ok ? "ok" : "BAD", s.crc_ok ? "ok" : "MISMATCH",
        s.structural_ok && s.crc_ok ? "" : "  << would be quarantined");
  }
  if (r.reserved_mismatches > 0) {
    std::printf("    reserved bytes: %llu differ from the encoder's "
                "(entry pads, global owners, padding, footer pad)\n",
                static_cast<unsigned long long>(r.reserved_mismatches));
  }
  if (!r.ok() || r.reserved_mismatches > 0) {
    std::printf("  => container FAILS verification\n");
    return false;
  }
  return true;
}

int inspect_store(const std::string& dir_path) {
  fault::Result<store::StoreDir> opened =
      store::StoreDir::open(dir_path, /*create=*/false);
  if (!opened.ok()) {
    std::fprintf(stderr, "fa_store_inspect: %s\n",
                 opened.status().to_string().c_str());
    return 2;
  }
  const store::StoreDir& dir = opened.value();
  bool all_ok = true;

  fault::Result<store::Manifest> manifest = dir.read_manifest();
  store::Manifest listing;
  if (manifest.ok()) {
    listing = manifest.value();
    std::printf("MANIFEST: ok, %zu generation(s)\n",
                listing.generations.size());
  } else {
    all_ok = false;
    std::printf("MANIFEST: CORRUPT — %s\n",
                manifest.status().to_string().c_str());
    listing = dir.scan();
    std::printf("falling back to directory scan: %zu generation(s)\n",
                listing.generations.size());
  }
  if (listing.generations.empty()) {
    std::printf("store holds no generations\n");
    return all_ok ? 0 : 1;
  }

  // A scan-derived entry (crc 0) records no CRC to check against.
  for (const store::Generation& gen : listing.generations) {
    const std::string path = dir.file_path(gen.filename);
    const fault::Result<shard::ContainerReport> report = inspect_file(path);
    std::printf("generation %llu (%s, %llu bytes, manifest crc %08x",
                static_cast<unsigned long long>(gen.number),
                gen.filename.c_str(),
                static_cast<unsigned long long>(gen.size), gen.crc);
    bool crc_ok = true;
    if (report.ok()) {
      const shard::ContainerReport& r = report.value();
      crc_ok = gen.crc == 0 ||
               (r.file_size == gen.size && r.file_crc == gen.crc);
      std::printf(", file crc %08x", r.file_crc);
    }
    std::printf("):%s\n",
                crc_ok ? "" : "  << image disagrees with manifest checksum");
    all_ok &= print_report(report, path) && crc_ok;
  }

  // The bottom line an operator (or a health check) actually wants:
  // would a cold start right now get a world, and from which
  // generation? Answered by the recovery a server runs, so the verdict
  // is what fa_served would do.
  fault::Result<shard::Recovered> rec = shard::recover(dir);
  if (!rec.ok()) {
    std::printf("cold start would REBUILD: %s\n",
                rec.status().to_string().c_str());
    return 1;
  }
  const shard::ShardedWorld& world = rec.value().world;
  std::printf("cold start would serve generation %llu",
              static_cast<unsigned long long>(rec.value().generation.number));
  if (world.quarantined_count() > 0) {
    all_ok = false;
    std::printf(" DEGRADED (%zu of %zu shards quarantined)",
                world.quarantined_count(), world.shard_count());
  }
  std::printf("\n");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--image") == 0) {
    return print_report(inspect_file(argv[2]), argv[2]) ? 0 : 1;
  }
  if (argc != 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: fa_store_inspect STORE_DIR\n"
                 "       fa_store_inspect --image FILE.fa\n");
    return 2;
  }
  return inspect_store(argv[1]);
}
