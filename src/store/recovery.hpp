// Cold-start recovery ladder.
//
// RecoveryManager walks the store at boot and degrades gracefully:
//
//   1. read + validate MANIFEST; if unreadable/corrupt, fall back to a
//      directory scan (counted, diagnosed — never fatal on its own)
//   2. try generations newest -> oldest: mmap, run the full checksum
//      ladder and structural decode; first clean image wins
//   3. nothing loads -> error Status; the caller does a full rebuild
//
// Every attempted step leaves a Status in the RecoveryReport so an
// operator can see exactly why generation 42 was skipped, and the
// store.recover.* counters aggregate the same story for dashboards.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/status.hpp"
#include "store/codec.hpp"
#include "store/store.hpp"

namespace fa::store {

struct RecoveredWorld {
  LoadedWorld loaded;
  Generation generation;  // which image produced it
};

struct RecoveryReport {
  // One entry per attempted generation (ok => that one loaded) plus a
  // leading entry for a manifest fallback when it happened.
  std::vector<fault::Status> steps;
  bool manifest_fallback = false;
};

// The ladder loop, shared by both store formats (RecoveryManager here,
// shard::ShardRecoveryManager for FASHRD01): read the MANIFEST, falling
// back to a directory scan, then offer generations newest to oldest to
// `load` until one loads. `load` keeps what it loaded; the ladder keeps
// the store.recover.* counters and the report, and returns the
// generation that loaded.
using GenerationLoader = std::function<fault::Status(const Generation&)>;
fault::Result<Generation> recover_newest(const StoreDir& dir,
                                         const GenerationLoader& load,
                                         RecoveryReport* report = nullptr);

// The read-corruption seam ("store.read.corrupt", keyed by generation
// number) every generation loader applies to its fresh mapping: flips a
// few seeded bytes of the mapped image. MAP_PRIVATE makes the flips process-local; the file
// on disk stays intact, modelling bad RAM / a bit-rotted read path
// rather than durable corruption.
void apply_read_corruption(MappedFile& file, std::uint64_t key);

class RecoveryManager {
 public:
  explicit RecoveryManager(StoreDir dir) : dir_(std::move(dir)) {}

  const StoreDir& dir() const { return dir_; }

  // The ladder. On error every generation was rejected (or none exist);
  // the error Status summarizes the last failure.
  fault::Result<RecoveredWorld> recover(RecoveryReport* report = nullptr);

  // Validates and decodes one generation image (mmap + checksum ladder
  // + structural decode + aggregate cross-check). The read-corruption
  // seam ("store.read.corrupt", keyed by generation number) flips bytes
  // of the private mapping before validation.
  fault::Result<LoadedWorld> load_generation(const Generation& generation);

 private:
  StoreDir dir_;
};

// Convenience: open `path` (no create) and run the ladder.
fault::Result<RecoveredWorld> recover_from(const std::string& path,
                                           RecoveryReport* report = nullptr);

}  // namespace fa::store
