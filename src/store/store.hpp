// fa::store — crash-safe snapshot persistence.
//
// A store directory holds numbered generations plus a manifest:
//
//   store/
//     MANIFEST        checksummed, hash-chained generation list
//     gen-000041.fa   snapshot images (store/format.hpp)
//     gen-000042.fa
//
// Commit protocol (all-or-nothing under kill -9 at any instruction):
//   1. stream the image into gen-NNNNNN.fa.tmp through one fixed-size
//      buffer, fsync the file. An Image (store/image.hpp) emits in file
//      order from the encoder's own storage, so no image-sized buffer
//      exists; each of its bytes is CRC'd once, and the whole-file CRC
//      the manifest records is derived from the section CRCs, not read
//      back
//   2. rename onto gen-NNNNNN.fa, fsync the directory
//   3. write MANIFEST.tmp (new generation appended, old ones pruned to
//      the keep window), fsync, rename onto MANIFEST, fsync the
//      directory, then unlink pruned generation files
// A crash before step 2 leaves only .tmp debris (ignored); between 2
// and 3 leaves an orphan generation the manifest doesn't reference
// (recovery's directory-scan fallback can still use it); the manifest
// itself is replaced atomically, so readers always see either the old
// or the new list, never a torn one.
//
// Fault seams (deterministic, fault::Injector):
//   store.write.torn    commit writes only a seeded prefix of the image
//                       (streamed or in memory) and reports kInjected (a
//                       torn write)
//   store.read.corrupt  load flips seeded bytes of the mapped image
//                       (MAP_PRIVATE: the flip never reaches the disk)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/status.hpp"

namespace fa::store {

class ByteSink;  // store/image.hpp
class Image;

// Read-write *private* mapping of a file: PROT_WRITE + MAP_PRIVATE so
// the read-corruption seam can flip bytes in-core without touching the
// file. Move-only; unmaps on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  static fault::Result<MappedFile> open(const std::string& path);

  const void* data() const { return data_; }
  unsigned char* mutable_data() { return static_cast<unsigned char*>(data_); }
  std::size_t size() const { return size_; }
  bool mapped() const { return data_ != nullptr; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

// One committed snapshot generation as the manifest records it.
struct Generation {
  std::uint64_t number = 0;
  std::string filename;     // basename within the store directory
  std::uint64_t size = 0;   // bytes
  std::uint32_t crc = 0;    // whole-file CRC32 at commit time
};

struct Manifest {
  std::vector<Generation> generations;  // ascending by number
};

// Crash choreography for the commit protocol, used by the fork-based
// crash harness: `_exit(2)` mid-commit at a chosen step, optionally
// after only `write_byte_limit` image bytes have reached the kernel.
struct CommitHooks {
  enum class CrashStep {
    kNone,
    kAfterPartialWrite,  // image partially written, no fsync, no rename
    kAfterTmpWrite,      // image durable as .tmp, not yet renamed
    kAfterRename,        // generation durable, manifest not yet updated
    kMidManifest,        // MANIFEST.tmp half-written
  };
  CrashStep crash_at = CrashStep::kNone;
  std::uint64_t write_byte_limit = ~0ull;  // with kAfterPartialWrite
};

class StoreDir {
 public:
  // Oldest generations beyond this count are pruned at commit.
  static constexpr std::size_t kKeepGenerations = 4;

  // Opens (optionally creating) a store directory.
  static fault::Result<StoreDir> open(std::string path, bool create = true);

  const std::string& path() const { return path_; }
  std::string file_path(const std::string& filename) const {
    return path_ + "/" + filename;
  }

  // Parses + validates MANIFEST (checksum, hash chain, entry syntax).
  // A missing or corrupt manifest is an error Status — callers decide
  // whether to fall back to scan().
  fault::Result<Manifest> read_manifest() const;

  // Lists gen-*.fa files by name, ignoring the manifest and any .tmp
  // debris. Sizes come from stat; crc fields are 0 (unknown) — the
  // image's own checksum ladder still guards the load.
  Manifest scan() const;

  // Next generation number: one past the highest on disk (scan-based so
  // orphans from a crashed commit are never overwritten).
  std::uint64_t next_generation() const;

  // Atomic commit of `image` as the next generation, streamed into the
  // generation file (see the protocol above). On success the returned
  // Generation is durable and referenced by the manifest.
  fault::Result<Generation> commit(const Image& image,
                                   const CommitHooks& hooks = {});
  // The same commit of bytes already in memory.
  fault::Result<Generation> commit(std::string_view bytes,
                                   const CommitHooks& hooks = {});

 private:
  explicit StoreDir(std::string path) : path_(std::move(path)) {}

  // Steps 1-3 for `size` bytes with whole-file CRC `crc`, written by
  // `emit`.
  fault::Result<Generation> commit_streamed(
      std::uint64_t size, std::uint32_t crc,
      const std::function<void(ByteSink&)>& emit, const CommitHooks& hooks);

  fault::Status write_manifest(const Manifest& manifest) const;

  std::string path_;
};

// Durably replaces `dir`/`name` with `bytes` — the commit protocol of
// the store's small files (MANIFEST, delta-log increments): write
// `name.tmp` (short writes and EINTR retried), fsync it, rename it onto
// `name`, fsync `dir`. The file is durable only when this returns ok. A
// failure before the rename removes the .tmp; a failed directory fsync
// leaves the renamed file in place but not known durable.
fault::Status write_file_durably(const std::string& dir,
                                 const std::string& name,
                                 std::string_view bytes);

// Formats a generation filename ("gen-000042.fa").
std::string generation_filename(std::uint64_t number);

// Serialized manifest text (exposed for fa_store_inspect and tests).
std::string encode_manifest(const Manifest& manifest);
fault::Result<Manifest> parse_manifest(std::string_view text,
                                       const std::string& source);

}  // namespace fa::store
