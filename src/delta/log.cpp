#include "delta/log.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "store/format.hpp"

namespace fa::delta {

namespace {

constexpr char kMagic[8] = {'F', 'A', 'D', 'E', 'L', 'T', 'A', '1'};
// magic(8) base_gen(8) ordinal(8) prev_crc(4) payload_len(4)
// payload_crc(4) header_crc(4) pad(8) = 48 bytes.
constexpr std::size_t kHeaderSize = 48;

void put_u32(std::string& s, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  s.append(b, 4);
}
void put_u64(std::string& s, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  s.append(b, 8);
}
std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}
std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

fault::Status errno_status(const std::string& path, std::string what) {
  return fault::Status::error(fault::ErrCode::kIoFailure, 0, path,
                              what + ": " + std::strerror(errno));
}

std::string encode_increment(std::uint64_t base_gen, std::uint64_t ordinal,
                             std::uint32_t prev_crc,
                             const std::string& payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  put_u64(out, base_gen);
  put_u64(out, ordinal);
  put_u32(out, prev_crc);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, store::crc32(payload.data(), payload.size()));
  put_u32(out, store::crc32(out.data(), out.size()));
  out.append(kHeaderSize - out.size(), '\0');
  out += payload;
  return out;
}

// Reads and verifies one increment file against the expected chain
// position. On success fills `payload` and the file's whole-file CRC
// (the next link); any mismatch is one Status — the caller treats every
// failure the same way: chain ends here.
fault::Status read_increment(const std::string& path,
                             std::uint64_t base_gen, std::uint64_t ordinal,
                             std::uint32_t expected_prev,
                             std::string& payload, std::uint32_t& file_crc) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return fault::Status::error(fault::ErrCode::kIoFailure, 0, path,
                                "cannot open increment");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = std::move(buf).str();
  const auto bad = [&](fault::ErrCode code, std::string message) {
    return fault::Status::error(code, ordinal, path, std::move(message));
  };
  if (bytes.size() < kHeaderSize) {
    return bad(fault::ErrCode::kTruncated, "short header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return bad(fault::ErrCode::kBadMagic, "bad increment magic");
  }
  const std::uint32_t header_crc = get_u32(bytes.data() + 36);
  if (store::crc32(bytes.data(), 36) != header_crc) {
    return bad(fault::ErrCode::kParse, "header checksum mismatch");
  }
  if (get_u64(bytes.data() + 8) != base_gen) {
    return bad(fault::ErrCode::kSchema, "increment for another generation");
  }
  if (get_u64(bytes.data() + 16) != ordinal) {
    return bad(fault::ErrCode::kSchema, "increment out of sequence");
  }
  if (get_u32(bytes.data() + 24) != expected_prev) {
    return bad(fault::ErrCode::kParse, "chain link mismatch");
  }
  const std::uint32_t payload_len = get_u32(bytes.data() + 28);
  if (bytes.size() != kHeaderSize + payload_len) {
    return bad(fault::ErrCode::kTruncated, "payload length mismatch");
  }
  if (store::crc32(bytes.data() + kHeaderSize, payload_len) !=
      get_u32(bytes.data() + 32)) {
    return bad(fault::ErrCode::kParse, "payload checksum mismatch");
  }
  payload = bytes.substr(kHeaderSize);
  file_crc = store::crc32(bytes.data(), bytes.size());
  return {};
}

// The base image's whole-file CRC, read in fixed-size chunks chained
// through crc32's seed: a paper-scale generation is hundreds of MB, and
// neither a copy of it nor a second mapping belongs on the cold start.
fault::Result<std::uint32_t> whole_file_crc(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status(path, "open base image for crc");
  std::vector<char> chunk(DeltaLog::kCrcChunkBytes);
  std::uint32_t crc = 0;
  while (true) {
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      fault::Status s = errno_status(path, "read base image for crc");
      ::close(fd);
      return s;
    }
    crc = store::crc32(chunk.data(), static_cast<std::size_t>(n), crc);
  }
  ::close(fd);
  return crc;
}

}  // namespace

std::string increment_filename(std::uint64_t base_gen,
                               std::uint64_t ordinal) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "gen-%06llu.d-%06llu.fad",
                static_cast<unsigned long long>(base_gen),
                static_cast<unsigned long long>(ordinal));
  return buf;
}

fault::Result<DeltaLog> DeltaLog::open(const store::StoreDir& dir,
                                       std::uint64_t base_gen,
                                       std::uint32_t base_crc) {
  DeltaLog log(dir, base_gen);
  if (base_crc == 0) {
    fault::Result<std::uint32_t> crc = whole_file_crc(
        dir.file_path(store::generation_filename(base_gen)));
    if (!crc.ok()) return crc.status();
    base_crc = crc.value();
  }
  log.chain_crc_ = base_crc;
  // Walk the existing chain to its tail; everything past the first
  // broken link is unreachable debris from a torn append.
  for (std::uint64_t ordinal = 0;; ++ordinal) {
    const std::string path =
        dir.file_path(increment_filename(base_gen, ordinal));
    if (::access(path.c_str(), F_OK) != 0) {
      log.next_ordinal_ = ordinal;
      break;
    }
    std::string payload;
    std::uint32_t file_crc = 0;
    if (!read_increment(path, base_gen, ordinal, log.chain_crc_, payload,
                        file_crc)
             .ok()) {
      log.next_ordinal_ = ordinal;
      break;
    }
    log.chain_crc_ = file_crc;
  }
  for (std::uint64_t ordinal = log.next_ordinal_;; ++ordinal) {
    const std::string path =
        dir.file_path(increment_filename(base_gen, ordinal));
    if (::unlink(path.c_str()) != 0) break;
  }
  return log;
}

fault::Result<std::uint64_t> DeltaLog::append(
    std::span<const FeedEvent> batch) {
  const obs::Span span("delta.log.append_ns");
  const std::string image = encode_increment(
      base_gen_, next_ordinal_, chain_crc_, encode_events(batch));
  if (fault::Status s = store::write_file_durably(
          dir_path_, increment_filename(base_gen_, next_ordinal_), image);
      !s.ok()) {
    obs::count(obs::metrics::kDeltaLogAppendFailures);
    return s;
  }
  chain_crc_ = store::crc32(image.data(), image.size());
  obs::count(obs::metrics::kDeltaLogAppends);
  return next_ordinal_++;
}

DeltaLog::Replay DeltaLog::replay() const {
  const obs::Span span(obs::metrics::kDeltaLogReplayNs);
  Replay out;
  // The on-disk chain may be longer than this handle has seen (another
  // writer) or shorter (pruned); trust only the disk.
  std::uint32_t expected_prev = 0;
  {
    // Re-derive the base link so replay stands alone on cold start.
    fault::Result<std::uint32_t> crc = whole_file_crc(
        dir_path_ + "/" + store::generation_filename(base_gen_));
    if (!crc.ok()) return out;
    expected_prev = crc.value();
  }
  for (std::uint64_t ordinal = 0;; ++ordinal) {
    const std::string path =
        dir_path_ + "/" + increment_filename(base_gen_, ordinal);
    if (::access(path.c_str(), F_OK) != 0) break;
    std::string payload;
    std::uint32_t file_crc = 0;
    if (!read_increment(path, base_gen_, ordinal, expected_prev, payload,
                        file_crc)
             .ok()) {
      ++out.truncated;
      break;
    }
    fault::Result<std::vector<FeedEvent>> batch =
        decode_events(payload, "delta.log");
    if (!batch.ok()) {
      ++out.truncated;
      break;
    }
    out.batches.push_back(std::move(batch).take());
    expected_prev = file_crc;
  }
  obs::count(obs::metrics::kDeltaLogReplayed, out.batches.size());
  obs::count(obs::metrics::kDeltaLogTruncated, out.truncated);
  return out;
}

void DeltaLog::prune_stale(const store::StoreDir& dir,
                           std::uint64_t keep_base) {
  DIR* d = ::opendir(dir.path().c_str());
  if (d == nullptr) return;
  // Increment names carry their base generation; any chain not rooted
  // at `keep_base` is superseded (the newer full snapshot already
  // contains its effects), including orphans whose base image was
  // pruned by the store's keep window.
  std::vector<std::string> stale;
  while (const dirent* entry = ::readdir(d)) {
    const std::string_view name = entry->d_name;
    unsigned long long base = 0;
    unsigned long long ordinal = 0;
    int consumed = 0;
    if (std::sscanf(entry->d_name, "gen-%6llu.d-%6llu.fad%n", &base,
                    &ordinal, &consumed) == 2 &&
        static_cast<std::size_t>(consumed) == name.size() &&
        base != keep_base) {
      stale.push_back(dir.file_path(entry->d_name));
    }
  }
  ::closedir(d);
  for (const std::string& path : stale) ::unlink(path.c_str());
}

}  // namespace fa::delta
