// Delta persistence: hash-chained generation increments.
//
// A full snapshot (store/gen-NNNNNN.fa) is expensive to commit, so
// between snapshots each applied batch is appended as a small increment
// file in the same store directory:
//
//   gen-000042.fa            full snapshot image (fa::store)
//   gen-000042.d-000000.fad  first batch applied on top of it
//   gen-000042.d-000001.fad  second batch
//
// Every increment names its base generation and carries the CRC-32 of
// its predecessor — increment 0 links to the whole-file CRC of the base
// snapshot image, increment k to the whole-file CRC of increment k-1 —
// so cold start can prove it is replaying exactly the chain that was
// written, in order, on top of exactly the snapshot it has. Replay
// stops at the first broken link: a torn tail truncates (the serving
// path falls back to the last provably consistent state), it never
// poisons.
//
// Increments commit atomically through store::write_file_durably (tmp +
// fsync + rename + dir fsync, the store's own protocol): an append
// succeeds only once the directory fsync has, and a crash mid-append
// leaves ignorable .tmp debris.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "delta/event.hpp"
#include "store/store.hpp"

namespace fa::delta {

class DeltaLog {
 public:
  DeltaLog() = default;

  // Opens the increment chain for `base_gen` in `dir`. `base_crc` is
  // the base image's whole-file CRC: the one a commit returns, or the
  // one recovery verified against the file. The log never reads the
  // base image. Scans existing increments to find the chain tail;
  // unreachable files past a broken link are deleted (they can never
  // replay).
  static fault::Result<DeltaLog> open(const store::StoreDir& dir,
                                      std::uint64_t base_gen,
                                      std::uint32_t base_crc);

  // Durably appends one applied batch as the next increment; returns
  // its ordinal.
  fault::Result<std::uint64_t> append(std::span<const FeedEvent> batch);

  struct Replay {
    // Valid batches in append order.
    std::vector<std::vector<FeedEvent>> batches;
    // Increment files dropped at the first broken link (torn tail).
    std::size_t truncated = 0;
  };
  // Re-reads and verifies the chain from disk (cold start), increment 0
  // linked to `base_crc`.
  Replay replay() const;

  std::uint64_t base_generation() const { return base_gen_; }
  std::uint64_t next_ordinal() const { return next_ordinal_; }

  // Deletes increments belonging to any base generation other than
  // `keep_base` (after a new full snapshot commits, older chains are
  // superseded — the snapshot already contains their effects).
  static void prune_stale(const store::StoreDir& dir,
                          std::uint64_t keep_base);

 private:
  DeltaLog(const store::StoreDir& dir, std::uint64_t base_gen,
           std::uint32_t base_crc)
      : dir_path_(dir.path()), base_gen_(base_gen), base_crc_(base_crc) {}

  std::string dir_path_;
  std::uint64_t base_gen_ = 0;
  std::uint32_t base_crc_ = 0;   // whole-file CRC of the base image
  std::uint64_t next_ordinal_ = 0;
  std::uint32_t chain_crc_ = 0;  // whole-file CRC of the chain tail
};

// Increment filename ("gen-000042.d-000007.fad").
std::string increment_filename(std::uint64_t base_gen, std::uint64_t ordinal);

}  // namespace fa::delta
