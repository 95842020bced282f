// The store's one cold-start recovery path.
//
// recover() runs store::recover_newest (MANIFEST -> scan fallback,
// generations newest to oldest) with one per-generation loader, and is
// what serve::Snapshot::recover, fa_store_inspect's verdict and
// bench_store all call. It recovers a serving *view*, degrading
// shard-by-shard. The loader maps the generation, applies the
// store.read.corrupt seam, records store.loads, store.load.bytes and
// the store.load_ns span, and opens the FASHRD01 container zero-copy
// with deep verification: the frame and global sections are checked,
// and every per-shard payload is CRC'd against the section table (one
// parallel sweep over the file). A payload that fails its CRC
// quarantines exactly that shard — one flipped bit in one shard costs
// that shard, not the generation (and with it every delta committed
// since).
//
// Once the open succeeds, the file is checked against the manifest's
// whole-file CRC, derived from the table the open walked (the header,
// table, padding and footer bytes as they are, each payload through
// its table CRC): no second pass over the file. A swapped image, or a
// flipped byte no section CRC covers, rejects the generation ("image
// disagrees with manifest checksum"); a damaged payload leaves the
// derived CRC unchanged, so it still costs only its shard. The
// generation is also rejected when its frame or global sections are
// unreadable, or every shard is quarantined (nothing servable). A file
// in any other format (a FASNAP01 image from a build before sharding)
// is unreadable: the ladder falls back past it, to an older generation
// or to a rebuild.
#pragma once

#include "fault/status.hpp"
#include "shard/world.hpp"
#include "store/recovery.hpp"
#include "store/store.hpp"

namespace fa::shard {

struct Recovered {
  ShardedWorld world;
  // Which image produced it. `crc` is its verified whole-file CRC: the
  // manifest's, proven against the file, or the derived one when a
  // directory scan supplied none — the delta log's base link.
  store::Generation generation;
};

// The newest servable generation in `dir`. On error every generation
// was rejected (or none exist); the Status summarizes the newest
// failure, and `report` holds one step per attempt.
fault::Result<Recovered> recover(const store::StoreDir& dir,
                                 store::RecoveryReport* report = nullptr);

}  // namespace fa::shard
