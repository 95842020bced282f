// ShardedWorld <-> FASHRD01 container codec.
//
// sharded_image() lays a ShardedWorld out as one relocatable byte
// image: the global sections (scenario meta, WHP rasters, county layer,
// provider-risk aggregate, shard layout) followed by twelve 64-byte-
// aligned SoA sections per shard, every payload individually CRC'd in
// the section table. The image streams in file order straight from the
// page columns (store/image.hpp): into a generation file through
// StoreDir::commit with no image-sized buffer, or into a string through
// encode_sharded(). Deterministic: same view, same bytes.
//
// open_sharded() is not a decoder — that is the point. It validates
// the container frame (header/table/footer CRCs, in-bounds
// non-overlapping sections), CRC-checks and decodes only the small
// global sections, checks each shard (column lengths agree with the
// layout record, cell_start is a monotone prefix-sum ending at n_s —
// the memory-safety floor for span queries — and every payload matches
// its section-table CRC), and then points the shard's pages straight
// into the caller's mapping. No per-record decode, no copy of the
// dominant payload: the only pass over the transceiver columns is the
// CRC sweep, which fans out shard by shard. The encoder writes each
// shard's pages back to back with dense ids (a view with tombstones
// ranks its stable ids on the way out), so the bytes are those of a
// fresh build over the same state.
//
// A shard that fails its structural checks or its payload CRCs is
// quarantined — empty columns, flag set — rather than failing the open;
// only an unwalkable frame, a corrupt global section, or a layout that
// lies about totals rejects the container. The recovery ladder
// (shard/recovery.hpp) turns that into shard-by-shard degradation
// instead of generation-level fallback.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "fault/status.hpp"
#include "geo/bbox.hpp"
#include "shard/world.hpp"
#include "store/image.hpp"

namespace fa::shard {

// The FASHRD01 container of `sw` as a streaming image: StoreDir::commit
// writes it into a generation file straight from the page columns, and
// encode_sharded() into a string. `sw` must outlive the Image.
store::Image sharded_image(const ShardedWorld& sw);
std::string encode_sharded(const ShardedWorld& sw);

// Opens a container over caller-owned bytes (recovery passes a
// generation's mapping). `payload` is retained by every shard, keeping
// the bytes alive for the life of the view (and of any successor views
// that still share untouched shards). On success `*file_crc`, when
// given, receives the whole-file CRC derived from the walked table
// (store::file_crc) — what recovery checks against the manifest.
fault::Result<ShardedWorld> open_sharded(const void* data, std::size_t size,
                                         std::shared_ptr<const void> payload,
                                         std::string source,
                                         std::uint32_t* file_crc = nullptr);

// -- inspection (fa_store_inspect, tests) ------------------------------

struct ShardReport {
  std::uint32_t shard = 0;
  geo::BBox bounds;
  std::uint64_t n_points = 0;
  std::uint64_t bytes = 0;  // sum of the shard's section payloads
  bool structural_ok = false;
  bool crc_ok = false;
};

struct ContainerReport {
  std::uint64_t file_size = 0;
  // The whole-file CRC derived from the table (store::file_crc): what
  // recovery checks against the manifest.
  std::uint32_t file_crc = 0;
  std::uint64_t total_points = 0;
  std::uint64_t tiles_x = 0, tiles_y = 0;
  bool globals_ok = false;  // frame + global sections decode and CRC clean
  std::vector<ShardReport> shards;
  // Bytes no section CRC or structural check covers that differ from
  // what the encoder writes: each table entry's pad [28,32), the global
  // entries' owner field (kGlobalOwner), the alignment padding between
  // payloads and after the last one, and the footer pad [28,32). Zero
  // for every container encode_sharded writes. Not part of ok(): in a
  // store, damage here moves file_crc off the manifest's CRC, which
  // the generation listing reports.
  std::uint64_t reserved_mismatches = 0;
  bool ok() const;
};

// Deep-verifying structural walk for tooling: reports per-shard bounds,
// payload bytes, and CRC status without building a serving view.
// Returns an error Status only when the frame or the global sections
// are too damaged to enumerate shards at all.
fault::Result<ContainerReport> inspect_sharded(const void* data,
                                               std::size_t size,
                                               std::string source);

}  // namespace fa::shard
