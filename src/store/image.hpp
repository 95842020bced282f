// Section-container internals shared by the monolithic snapshot codec
// (store/codec.cpp) and the sharded container codec (fa::shard): the
// image builder, the container validators, and the small decode
// helpers (cursors, bulk copies, shape checks).
//
// Two container flavors share one byte layout — header, entry table,
// 64-byte-aligned payloads, footer — and one frame walk (header CRC,
// table bounds, footer CRC and size); each validator adds only its own
// policy on top:
//   * FASNAP01 (monolithic): one section per kind, entry bytes [4,8)
//     reserved-zero, validated strictly by validate_image() (full CRC
//     ladder, padding scan).
//   * FASHRD01 (sharded): per-shard sections repeat a kind once per
//     shard and carry the owning shard id in entry bytes [4,8).
//     validate_container() adds only the structural section walk;
//     payload verification is the caller's policy, which is what lets
//     a shard open serve straight off the mmap without a per-record
//     decode.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "fault/status.hpp"
#include "raster/raster.hpp"
#include "store/format.hpp"

namespace fa::store {

// ---------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------

class ImageBuilder {
 public:
  // `default_owner` is what begin(kind) stamps into the entry's owner
  // bytes: 0 for monolithic images (validated as reserved), kGlobalOwner
  // for whole-world sections of a sharded container. Shard-local
  // sections pass their shard id to begin(kind, owner) explicitly.
  explicit ImageBuilder(std::size_t section_count, const char* magic = kMagic,
                        std::uint32_t default_owner = 0)
      : magic_(magic), default_owner_(default_owner) {
    buf_.resize(kHeaderSize + section_count * kSectionEntrySize, '\0');
    sections_.reserve(section_count);
  }

  void raw(const void* p, std::size_t n) {
    if (n) buf_.append(static_cast<const char*>(p), n);
  }
  template <class T>
  void put(T v) {
    raw(&v, sizeof v);
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    raw(v.data(), v.size() * sizeof(T));
  }
  template <class T>
  void span(const T* p, std::size_t count) {
    raw(p, count * sizeof(T));
  }

  void begin(SectionKind kind) { begin(kind, default_owner_); }
  void begin(SectionKind kind, std::uint32_t owner) {
    buf_.resize(align_up(buf_.size()), '\0');
    cur_ = SectionInfo{kind, buf_.size(), 0, 0, owner};
  }
  void end() {
    cur_.length = buf_.size() - cur_.offset;
    cur_.crc = crc32(buf_.data() + cur_.offset, cur_.length);
    sections_.push_back(cur_);
  }
  template <class T>
  void section_vec(SectionKind kind, const std::vector<T>& v) {
    begin(kind);
    vec(v);
    end();
  }
  template <class T>
  void section_span(SectionKind kind, std::uint32_t owner, const T* p,
                    std::size_t count) {
    begin(kind, owner);
    span(p, count);
    end();
  }
  template <class T>
  void section_raster(SectionKind kind, const raster::Raster<T>& r) {
    begin(kind);
    geometry(r.geom());
    vec(r.data());
    end();
  }

  void geometry(const raster::GridGeometry& g) {
    put<double>(g.origin_x);
    put<double>(g.origin_y);
    put<double>(g.cell_w);
    put<double>(g.cell_h);
    put<std::int32_t>(g.cols);
    put<std::int32_t>(g.rows);
  }

  // Patches header + table, computes the CRC ladder, appends the footer.
  std::string finish() {
    const std::uint64_t data_end = buf_.size();
    char* h = buf_.data();
    std::memcpy(h, magic_, 8);
    patch_u32(8, kFormatVersion);
    patch_u32(12, kEndianTag);
    patch_u64(16, sections_.size());
    patch_u64(24, kHeaderSize);
    patch_u64(32, data_end);
    // [40, 60) stays zero (reserved).
    patch_u32(60, crc32(h, 60));
    for (std::size_t i = 0; i < sections_.size(); ++i) {
      const std::size_t off = kHeaderSize + i * kSectionEntrySize;
      patch_u32(off, static_cast<std::uint32_t>(sections_[i].kind));
      patch_u32(off + 4, sections_[i].owner);
      patch_u64(off + 8, sections_[i].offset);
      patch_u64(off + 16, sections_[i].length);
      patch_u32(off + 24, sections_[i].crc);
      patch_u32(off + 28, 0);
    }
    const std::uint32_t body_crc = crc32(buf_.data(), data_end);
    char footer[kFooterSize] = {};
    const std::uint64_t file_size = data_end + kFooterSize;
    std::memcpy(footer, &file_size, 8);
    std::memcpy(footer + 8, &body_crc, 4);
    std::memcpy(footer + 16, kFooterMagic, 8);
    const std::uint32_t footer_crc = crc32(footer, 24);
    std::memcpy(footer + 24, &footer_crc, 4);
    buf_.append(footer, kFooterSize);
    return std::move(buf_);
  }

 private:
  void patch_u32(std::size_t off, std::uint32_t v) {
    std::memcpy(buf_.data() + off, &v, 4);
  }
  void patch_u64(std::size_t off, std::uint64_t v) {
    std::memcpy(buf_.data() + off, &v, 8);
  }

  const char* magic_;
  std::uint32_t default_owner_ = 0;
  std::string buf_;
  std::vector<SectionInfo> sections_;
  SectionInfo cur_;
};

// ---------------------------------------------------------------------
// decode helpers
// ---------------------------------------------------------------------

inline std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Sequential reader over one validated section payload.
struct Cursor {
  const unsigned char* p;
  std::size_t n;
  std::size_t off = 0;

  template <class T>
  T get() {
    T v{};
    std::memcpy(&v, p + off, sizeof v);
    off += sizeof v;
    return v;
  }
};

template <class T>
std::vector<T> copy_vec(const unsigned char* p, std::size_t bytes) {
  std::vector<T> v(bytes / sizeof(T));
  if (bytes) std::memcpy(v.data(), p, bytes);
  return v;
}

inline fault::Status fail(fault::ErrCode code, std::uint64_t offset,
                          const std::string& source, std::string message) {
  return fault::Status::error(code, offset, source, std::move(message));
}

struct SectionLookup {
  const unsigned char* base = nullptr;
  std::vector<SectionInfo> sections;
  std::string source;

  // The first section of `kind`. FASHRD01 repeats the per-shard kinds,
  // so its shard sections are read by table position instead.
  const SectionInfo* find(SectionKind kind) const {
    for (const auto& s : sections) {
      if (s.kind == kind) return &s;
    }
    return nullptr;
  }
};

struct FileReport;  // codec.hpp

// Walks a FASNAP01 header/table/footer and validates the full CRC
// ladder (per-section payload CRCs, padding scan, reserved-zero entry
// bytes). On success `out` holds every section with in-bounds,
// CRC-clean payloads.
fault::Status validate_image(const void* data, std::size_t size,
                             const std::string& source, SectionLookup& out,
                             FileReport* report);

// Walks a FASHRD01 header/table/footer and the structural section walk
// (in-bounds, ascending, non-overlapping payloads — the memory-safety
// floor for serving straight off the mmap). Deliberately does NOT
// checksum payloads or scan padding: per-section CRCs stay recorded in
// the table for the deep-verify path (inspector, recovery quarantine),
// and skipping them here is what makes a sharded open O(sections)
// instead of O(bytes).
fault::Status validate_container(const void* data, std::size_t size,
                                 const std::string& source,
                                 SectionLookup& out);

// Fetches a required section and reports a missing kind.
const SectionInfo* need(const SectionLookup& img, SectionKind kind,
                        fault::Status& status);

bool check_len(const SectionLookup& img, const SectionInfo& s,
               std::uint64_t want, fault::Status& status);

}  // namespace fa::store
