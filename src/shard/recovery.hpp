// The store's one cold-start recovery path.
//
// recover() runs store::recover_newest (MANIFEST -> scan fallback,
// generations newest to oldest) with one per-generation loader, and is
// what serve::Snapshot::recover, fa_store_inspect's verdict and
// bench_store all call. It recovers a serving *view*, degrading
// shard-by-shard where the image format allows it. The loader maps the
// generation, applies the store.read.corrupt seam, records store.loads,
// store.load.bytes and the store.load_ns span, then branches on the
// magic:
//
//   * a FASHRD01 generation opens zero-copy with deep verification: the
//     frame and global sections are checked, and every per-shard
//     payload is CRC'd against the section table (one parallel sweep
//     over the file). The manifest's whole-file CRC is never checked; a
//     payload that fails its CRC quarantines exactly that shard — one
//     flipped bit in one shard costs that shard, not the generation
//     (and with it every delta committed since). The generation is
//     rejected only when its frame or global sections are unreadable,
//     or every shard is quarantined (nothing servable);
//   * a FASNAP01 generation (a store written before sharding) must
//     match the manifest's whole-file CRC and pass the strict
//     decode_world, and is then migrated in memory with
//     ShardedWorld::from_world — the upgrade needs no offline
//     conversion step.
#pragma once

#include "fault/status.hpp"
#include "shard/layout.hpp"
#include "shard/world.hpp"
#include "store/recovery.hpp"
#include "store/store.hpp"

namespace fa::shard {

struct Recovered {
  ShardedWorld world;
  store::Generation generation;  // which image produced it
  // Loaded from a monolithic FASNAP01 image and re-sharded in memory.
  bool migrated = false;
};

// The newest servable generation in `dir`. `layout` cuts a migrated
// FASNAP01 generation (a FASHRD01 image carries its own layout). On
// error every generation was rejected (or none exist); the Status
// summarizes the newest failure, and `report` holds one step per
// attempt.
fault::Result<Recovered> recover(const store::StoreDir& dir,
                                 const LayoutOptions& layout = {},
                                 store::RecoveryReport* report = nullptr);

}  // namespace fa::shard
