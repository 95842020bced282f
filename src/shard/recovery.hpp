// Sharded cold-start recovery ladder.
//
// ShardRecoveryManager runs store::recover_newest, the ladder loop the
// monolithic store::RecoveryManager also runs (MANIFEST -> scan
// fallback, generations newest to oldest), and supplies only the
// per-generation loader. It recovers a serving *view* instead of a
// decoded world, and degrades shard-by-shard instead of
// generation-by-generation:
//
//   * a FASHRD01 generation opens zero-copy with deep verification on
//     every open: the frame and global sections are checked, and every
//     per-shard payload is CRC'd against the section table (one
//     parallel sweep over the file). The manifest's whole-file CRC is
//     never checked; a payload that fails its CRC quarantines exactly
//     that shard — one flipped bit in one shard costs that shard, not
//     the generation (the monolithic ladder would reject the whole
//     image and fall back a generation, losing every committed delta
//     since);
//   * a FASNAP01 generation (a store written before sharding, or by the
//     monolithic path) is loaded through store::RecoveryManager's
//     load_generation (manifest CRC rung included) and migrated in
//     memory with ShardedWorld::from_world — the upgrade path needs no
//     offline conversion step;
//   * a generation is rejected only when its frame or global sections
//     are unreadable, or every shard is quarantined (nothing servable).
#pragma once

#include <string>

#include "fault/status.hpp"
#include "shard/layout.hpp"
#include "shard/world.hpp"
#include "store/recovery.hpp"
#include "store/store.hpp"

namespace fa::shard {

struct RecoveredShardedWorld {
  ShardedWorld world;
  store::Generation generation;  // which image produced it
  // Loaded from a monolithic FASNAP01 image and re-sharded in memory.
  bool migrated = false;
};

class ShardRecoveryManager {
 public:
  // `layout` is used only when migrating a monolithic generation (a
  // FASHRD01 image carries its own layout).
  explicit ShardRecoveryManager(store::StoreDir dir,
                                const LayoutOptions& layout = {})
      : dir_(std::move(dir)), layout_(layout) {}

  const store::StoreDir& dir() const { return dir_; }

  // The ladder (store::recover_newest over load_generation). On error
  // every generation was rejected (or none exist); the error Status
  // summarizes the last failure. Reuses store::RecoveryReport so
  // operators read one step-per-attempt story for either flavor.
  fault::Result<RecoveredShardedWorld> recover(
      store::RecoveryReport* report = nullptr);

  // Loads one generation, sniffing the magic to pick the path. Sets
  // `migrated` (when non-null) for the FASNAP01 case.
  fault::Result<ShardedWorld> load_generation(
      const store::Generation& generation, bool* migrated = nullptr);

 private:
  store::StoreDir dir_;
  LayoutOptions layout_;
};

// Convenience: open `path` (no create) and run the ladder.
fault::Result<RecoveredShardedWorld> recover_sharded(
    const std::string& path, const LayoutOptions& layout = {},
    store::RecoveryReport* report = nullptr);

}  // namespace fa::shard
