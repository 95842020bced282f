// Section-container internals shared by the monolithic snapshot codec
// (store/codec.cpp) and the sharded container codec (fa::shard): the
// streaming image writer (Image plans a container, then emits it in
// file order into a ByteSink — a string, or StoreDir::commit's
// fixed-buffer file writer), the container validators, and the small
// decode helpers (cursors, bulk copies, shape checks).
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

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fault/status.hpp"
#include "raster/raster.hpp"
#include "store/format.hpp"

namespace fa::store {

// ---------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------
//
// An image is never held whole while it is written. Image runs its
// encoder twice over the same section calls: a planning pass places
// every section and CRCs its payload, writing nothing; from those CRCs
// alone (crc32_combine) it derives the header, table and footer bytes
// and the whole-file CRC the manifest records. The emit pass then
// writes the file in order — header and table, each payload straight
// from the encoder's storage, footer — into a ByteSink and CRCs
// nothing. Every image byte is checksummed once, and the only
// image-sized buffer is the one a string sink is asked to fill.

// The alignment padding between payloads.
inline constexpr char kZeroPad[kSectionAlign] = {};

// Where an emitted image goes, in file order.
class ByteSink {
 public:
  virtual void write(const void* p, std::size_t n) = 0;

 protected:
  ~ByteSink() = default;
};

// The section calls an encoder makes, in file order. Handed out by
// Image for one pass: planning (no sink — CRC each payload as it
// arrives) or emitting (pad to each section's 64-byte boundary and
// forward the payload bytes to the sink).
class ImageBuilder {
 public:
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    if (sink_) {
      sink_->write(p, n);
    } else {
      crc_ = crc32(p, n, crc_);
    }
    pos_ += n;
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

  // `default_owner` (the Image's) is what begin(kind) stamps into the
  // entry's owner bytes: 0 for monolithic images (validated as
  // reserved), kGlobalOwner for whole-world sections of a sharded
  // container. Shard-local sections pass their shard id explicitly.
  void begin(SectionKind kind) { begin(kind, default_owner_); }
  void begin(SectionKind kind, std::uint32_t owner) {
    const std::uint64_t at = align_up(pos_);
    if (sink_ && at > pos_) sink_->write(kZeroPad, at - pos_);
    pos_ = at;
    cur_ = SectionInfo{kind, at, 0, 0, owner};
    crc_ = 0;
  }
  void end() {
    cur_.length = pos_ - cur_.offset;
    cur_.crc = crc_;
    sections_.push_back(cur_);
  }
  template <class T>
  void section_vec(SectionKind kind, const std::vector<T>& v) {
    begin(kind);
    vec(v);
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

 private:
  friend class Image;
  // Places sections from byte `pos` on.
  ImageBuilder(std::uint64_t pos, std::uint32_t default_owner, ByteSink* sink)
      : sink_(sink), default_owner_(default_owner), pos_(pos) {}

  ByteSink* sink_;
  std::uint32_t default_owner_;
  std::uint64_t pos_;
  std::uint32_t crc_ = 0;
  SectionInfo cur_;
  std::vector<SectionInfo> sections_;
};

// A container image: the sections `encode` writes through the
// ImageBuilder it is handed — identically on every call — in a FASNAP01
// (`magic` kMagic) or FASHRD01 (kShardMagic) frame. Whatever `encode`
// reads must outlive the Image and stay unchanged while it is planned
// and emitted.
class Image {
 public:
  using Encoder = std::function<void(ImageBuilder&)>;

  Image(const char* magic, std::uint32_t default_owner, Encoder encode)
      : magic_(magic),
        default_owner_(default_owner),
        encode_(std::move(encode)) {}

  // The planning pass's result: the frame bytes around the payloads,
  // and the file's size and whole-file CRC.
  struct Plan {
    std::string head;  // header + section table
    std::array<char, kFooterSize> footer{};
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
  };
  Plan plan() const;

  // Writes `plan`'s image into `sink` in file order.
  void emit(const Plan& plan, ByteSink& sink) const;

  // The whole image in a string reserved to its exact size.
  std::string bytes() const;

 private:
  const char* magic_;
  std::uint32_t default_owner_;
  Encoder encode_;
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
