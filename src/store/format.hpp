// fa::store — on-disk container format primitives.
//
// A generation file is a FASHRD01 container, a relocatable section
// container:
//
//   [Header 64B] [SectionEntry x N] [pad to 64] [section payloads ...] [Footer 32B]
//
// Every payload offset is 64-byte aligned (mmap-friendly, cache-line
// clean) and every section carries its own length + CRC32 in the
// table; the header and footer carry their own CRCs. A cold start
// checks the frame, CRCs every payload against its table entry, and
// then checks the file against the whole-file CRC the manifest recorded
// at commit, derived from the table it just walked: the header, the
// table and every padding byte as they are in the file, each payload
// through its section CRC (crc32_combine), and the footer. Together the
// per-section CRCs and that manifest check cover every byte of the
// file: a payload that fails its CRC costs its own shard, and any other
// flipped byte (or a whole different image) rejects the generation. A
// generation found by a directory scan (the manifest lost) has no
// recorded CRC; it is guarded by the frame and section CRCs alone.
// Numbers are little-endian; the header's endianness tag rejects a file
// written on a foreign-endian machine instead of misreading it.
//
// Payloads are raw SoA arrays (no per-record encoding), so a cold start
// serves straight off the mapping after the CRC sweep — no parsing, no
// per-element work (bench_store measures it against a rebuild).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fa::store {

// "FASHRD01": the geo-sharded container (fa::shard), the one format a
// store holds. Per-shard sections repeat a kind once per shard and
// carry the owning shard id in the entry's owner bytes [4,8).
inline constexpr char kShardMagic[8] = {'F', 'A', 'S', 'H', 'R', 'D', '0', '1'};
inline constexpr char kFooterMagic[8] = {'F', 'A', 'E', 'N', 'D', '0', '0', '1'};
// Owner id marking a section as whole-world (not shard-local).
inline constexpr std::uint32_t kGlobalOwner = 0xFFFFFFFFu;
inline constexpr std::uint32_t kFormatVersion = 1;
// Written natively; a reader on a foreign-endian machine sees the bytes
// reversed and rejects with kSchema instead of silently transposing.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::size_t kSectionAlign = 64;
inline constexpr std::size_t kHeaderSize = 64;
inline constexpr std::size_t kSectionEntrySize = 32;
inline constexpr std::size_t kFooterSize = 32;

// Section identifiers. Values are stable on-disk ABI: never renumber,
// only append. 2-11 and 18-22 named the monolithic FASNAP01 image's
// transceiver and grid-index sections; that format is retired, and the
// numbers stay reserved — never reuse them.
enum class SectionKind : std::uint32_t {
  kMeta = 1,          // scenario config + ingest counters + corpus size
  kWhpGrid = 12,      // GridGeometry header + u8 cells
  kWhpStates = 13,    // GridGeometry header + i16 cells
  kWhpUrban = 14,     // GridGeometry header + u8 cells
  kWhpRoads = 15,     // GridGeometry header + u8 cells
  kCountyTable = 16,  // 32B records: state, flags, anchor, population
  kCountyNames = 17,  // u32 count, u32 offsets[count+1], name blob
  kProviderRisk = 23,     // per-provider exposure aggregate (cross-check)
  // --- per shard (owner bytes carry the shard id) ----------------------
  kShardLayout = 24,     // tile grid, tile->shard table, per-shard meta
  kShardIds = 25,        // u32[n_s] global txr ids in local bin order
  kShardX = 26,          // f64[n_s] lons in local bin order
  kShardY = 27,          // f64[n_s] lats in local bin order
  kShardCellStart = 28,  // u32[cols_s*rows_s+1] local bin span starts
  kShardClass = 29,      // u8[n_s] WHP class in bin order
  kShardProvider = 30,   // u8[n_s] provider in bin order
  kShardRadio = 31,      // u8[n_s] RadioType in bin order
  kShardMcc = 32,        // u16[n_s]
  kShardMnc = 33,        // u16[n_s]
  kShardCellId = 34,     // u32[n_s]
  kShardState = 35,      // i16[n_s]
  kShardCounty = 36,     // i32[n_s]
};

// Sections a FASHRD01 container carries per shard (kShardIds..kShardCounty).
inline constexpr std::size_t kShardSectionsPerShard = 12;

std::string_view section_kind_name(SectionKind kind);

// One parsed section-table entry. `owner` is the shard id of a
// shard-local section (kGlobalOwner for whole-world ones).
struct SectionInfo {
  SectionKind kind{};
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  std::uint32_t owner = 0;
};

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib/PNG checksum).
// `seed` chains incremental computations: crc32(b, crc32(a)) ==
// crc32(a+b).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

// crc32(a+b) from crc_a = crc32(a), crc_b = crc32(b) and b's length,
// without touching a byte of either (zlib's crc32_combine): O(log
// len_b). The image writer derives the footer's body CRC and the
// manifest's whole-file CRC from the section CRCs this way, so every
// image byte is checksummed once, and a cold start derives the same
// whole-file CRC from the table it walked (store/image.hpp).
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

inline std::size_t align_up(std::size_t n) {
  return (n + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

}  // namespace fa::store
