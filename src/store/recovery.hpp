// Cold-start recovery ladder policy.
//
// recover_newest walks the store at boot and degrades gracefully:
//
//   1. read + validate MANIFEST; if unreadable/corrupt, fall back to a
//      directory scan (counted, diagnosed — never fatal on its own)
//   2. offer generations newest -> oldest to the caller's loader; the
//      first one that loads wins
//   3. nothing loads -> error Status; the caller does a full rebuild
//
// The loader (shard::recover's, the one every server boots through)
// decides what "loads" means for each image format. Every attempted
// step leaves a Status in the RecoveryReport so an operator can see
// exactly why generation 42 was skipped, and the store.recover.*
// counters aggregate the same story for dashboards.
#pragma once

#include <functional>
#include <vector>

#include "fault/status.hpp"
#include "store/store.hpp"

namespace fa::store {

struct RecoveryReport {
  // One entry per attempted generation (ok => that one loaded) plus a
  // leading entry for a manifest fallback when it happened.
  std::vector<fault::Status> steps;
  bool manifest_fallback = false;
};

// The ladder loop: read the MANIFEST, falling back to a directory scan,
// then offer generations newest to oldest to `load` until one loads.
// `load` keeps what it loaded; the ladder keeps the store.recover.*
// counters and the report, and returns the generation that loaded. On
// error every generation was rejected (or none exist); the Status
// summarizes the newest failure.
using GenerationLoader = std::function<fault::Status(const Generation&)>;
fault::Result<Generation> recover_newest(const StoreDir& dir,
                                         const GenerationLoader& load,
                                         RecoveryReport* report = nullptr);

}  // namespace fa::store
