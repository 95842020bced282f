// fa::store — on-disk snapshot format primitives.
//
// A snapshot file is a relocatable section container:
//
//   [Header 64B] [SectionEntry x N] [pad to 64] [section payloads ...] [Footer 32B]
//
// Every payload offset is 64-byte aligned (mmap-friendly, cache-line
// clean), every section carries its own length + CRC32, and the footer
// carries a CRC over everything before it — so *every byte of the file*
// (headers, table, payloads, alignment padding) is covered by at least
// one checksum and a single flipped bit is always detected. Numbers are
// little-endian; the header's endianness tag rejects a file written on
// a foreign-endian machine instead of misreading it.
//
// Payloads are raw SoA arrays (no per-record encoding), so a load is
// validate-then-memcpy: the reader mmaps the file, checks the CRC
// ladder, and bulk-copies sections into place — no parsing, no
// per-element work, which is what makes cold start near-instant
// relative to a full synthesis rebuild (bench_store measures the gap).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fa::store {

// "FASNAP01": file magic, bumped with the format version.
inline constexpr char kMagic[8] = {'F', 'A', 'S', 'N', 'A', 'P', '0', '1'};
// "FASHRD01": the geo-sharded container (fa::shard). Same byte layout
// as FASNAP01 — header, entry table, aligned payloads, footer — but
// per-shard sections repeat a kind once per shard and carry the owning
// shard id in the entry bytes FASNAP01 keeps reserved-zero.
inline constexpr char kShardMagic[8] = {'F', 'A', 'S', 'H', 'R', 'D', '0', '1'};
inline constexpr char kFooterMagic[8] = {'F', 'A', 'E', 'N', 'D', '0', '0', '1'};
// Owner id marking a section as whole-world (not shard-local) inside a
// FASHRD01 container. Monolithic images write 0 in the owner bytes.
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
// only append.
enum class SectionKind : std::uint32_t {
  kMeta = 1,          // scenario config + ingest counters + corpus size
  kTxrLon = 2,        // f64[n] transceiver longitudes
  kTxrLat = 3,        // f64[n] latitudes
  kTxrRadio = 4,      // u8[n] RadioType
  kTxrMcc = 5,        // u16[n]
  kTxrMnc = 6,        // u16[n]
  kTxrCellId = 7,     // u32[n]
  kTxrState = 8,      // i16[n]
  kTxrClass = 9,      // u8[n] cached WHP class
  kTxrCounty = 10,    // i32[n] cached county
  kTxrProvider = 11,  // u8[n] cached provider
  kWhpGrid = 12,      // GridGeometry header + u8 cells
  kWhpStates = 13,    // GridGeometry header + i16 cells
  kWhpUrban = 14,     // GridGeometry header + u8 cells
  kWhpRoads = 15,     // GridGeometry header + u8 cells
  kCountyTable = 16,  // 32B records: state, flags, anchor, population
  kCountyNames = 17,  // u32 count, u32 offsets[count+1], name blob
  kIndexMeta = 18,    // GridIndex bounds/dims/scale factors + counts
  kIndexBinnedIds = 19,   // u32[n] ids in counting-sorted bin order
  kIndexBinnedX = 20,     // f64[n] xs in bin order (SoA batch kernels)
  kIndexBinnedY = 21,     // f64[n] ys in bin order
  kIndexCellStart = 22,   // u32[cols*rows+1] bin span starts
  kProviderRisk = 23,     // per-provider exposure aggregate (cross-check)
  // --- FASHRD01 only (owner bytes carry the shard id) -----------------
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
// The index's id-ordered point array is NOT a section on purpose: it is
// bit-identical to (txr.lon, txr.lat) and restored from them; the
// decoder cross-checks the binned SoA arrays against that source.

// Every monolithic image carries exactly this many sections (one per
// FASNAP01 kind above). Sharded containers are variable-count.
inline constexpr std::size_t kSectionCount = 23;
// Sections a FASHRD01 container carries per shard (kShardIds..kShardCounty).
inline constexpr std::size_t kShardSectionsPerShard = 12;

std::string_view section_kind_name(SectionKind kind);

// One parsed section-table entry. `owner` is the shard id for FASHRD01
// shard-local sections (kGlobalOwner for whole-world ones); monolithic
// images keep it 0 on disk and validate it as reserved.
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
// image byte is checksummed once.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

inline std::size_t align_up(std::size_t n) {
  return (n + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

}  // namespace fa::store
