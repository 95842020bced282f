// fa_store_inspect — operator's view of a snapshot store.
//
//   fa_store_inspect STORE_DIR          inspect the whole store
//   fa_store_inspect --image FILE.fa    inspect one snapshot image
//
// Dumps the manifest (generation chain, sizes, checksums) and walks
// every generation image's checksum ladder, printing per-section
// status, then says what a cold start would serve by running the
// recovery fa_served boots through (shard::recover). Exit code 0 means
// everything verified; any corruption — unreadable manifest, missing
// generation, failed CRC, structural mismatch — is reported and the
// exit code is non-zero, so the tool slots into health checks ("is this
// store safe to boot from?").
#include <cstdio>
#include <cstring>
#include <string>

#include "shard/codec.hpp"
#include "shard/recovery.hpp"
#include "store/codec.hpp"
#include "store/format.hpp"
#include "store/store.hpp"

namespace {

using namespace fa;

// Per-shard listing for a FASHRD01 container: bounds, point count,
// payload bytes, structural and CRC status. A shard that fails either
// check is what a cold start would quarantine — flagged loudly, and the
// exit code goes non-zero.
bool inspect_sharded_file(const store::MappedFile& mapped,
                          const std::string& path) {
  fault::Result<shard::ContainerReport> report =
      shard::inspect_sharded(mapped.data(), mapped.size(), path);
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

// Walks one image's ladder; returns true when it verified clean.
// Dispatches on the magic: FASNAP01 monolithic images walk the section
// checksum ladder, FASHRD01 containers get the per-shard listing.
bool inspect_file(const std::string& path) {
  fault::Result<store::MappedFile> mapped = store::MappedFile::open(path);
  if (!mapped.ok()) {
    std::printf("  %-22s UNREADABLE  %s\n", path.c_str(),
                mapped.status().to_string().c_str());
    return false;
  }
  if (mapped.value().size() >= 8 &&
      std::memcmp(mapped.value().data(), store::kShardMagic, 8) == 0) {
    return inspect_sharded_file(mapped.value(), path);
  }
  fault::Result<store::FileReport> report = store::inspect_image(
      mapped.value().data(), mapped.value().size(), path);
  if (!report.ok()) {
    std::printf("  %-22s CORRUPT     %s\n", path.c_str(),
                report.status().to_string().c_str());
    return false;
  }
  const store::FileReport& r = report.value();
  std::printf("  format v%u, %llu bytes, header %s, footer %s, body crc %s\n",
              r.version, static_cast<unsigned long long>(r.file_size),
              r.header_ok ? "ok" : "BAD", r.footer_ok ? "ok" : "BAD",
              r.body_crc_ok ? "ok" : "BAD");
  for (const store::SectionReport& s : r.sections) {
    std::printf("    %-18s off=%-10llu len=%-10llu crc=%08x %s\n",
                std::string(store::section_kind_name(s.info.kind)).c_str(),
                static_cast<unsigned long long>(s.info.offset),
                static_cast<unsigned long long>(s.info.length), s.info.crc,
                s.crc_ok ? "ok" : "MISMATCH");
  }
  if (!r.ok()) {
    std::printf("  => image FAILS verification\n");
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

  for (const store::Generation& gen : listing.generations) {
    std::printf("generation %llu (%s, %llu bytes, manifest crc %08x):\n",
                static_cast<unsigned long long>(gen.number),
                gen.filename.c_str(),
                static_cast<unsigned long long>(gen.size), gen.crc);
    all_ok &= inspect_file(dir.file_path(gen.filename));
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
  std::printf("%s\n", rec.value().migrated
                          ? " (migrated from a monolithic image)"
                          : "");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--image") == 0) {
    return inspect_file(argv[2]) ? 0 : 1;
  }
  if (argc != 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: fa_store_inspect STORE_DIR\n"
                 "       fa_store_inspect --image FILE.fa\n");
    return 2;
  }
  return inspect_store(argv[1]);
}
