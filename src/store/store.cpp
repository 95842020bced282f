#include "store/store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "store/format.hpp"
#include "store/image.hpp"

namespace fa::store {

namespace {

using fault::ErrCode;
using fault::Status;

Status errno_status(const std::string& source, const std::string& what,
                    int err = errno) {
  return Status::error(ErrCode::kIoFailure, 0, source,
                       what + ": " + std::strerror(err));
}

// Writes all of `data`, tolerating short writes / EINTR. Stops after
// `limit` bytes (the torn-write choreography). Returns bytes written or
// -1 on error.
ssize_t write_all(int fd, const char* data, std::size_t size,
                  std::uint64_t limit) {
  std::size_t total = 0;
  const std::size_t goal = std::min<std::uint64_t>(size, limit);
  while (total < goal) {
    const ssize_t w = ::write(fd, data + total, goal - total);
    if (w < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    total += static_cast<std::size_t>(w);
  }
  return static_cast<ssize_t>(total);
}

// What a streamed commit holds of the image at once: emitted bytes
// collect here and reach the kernel one full buffer per write_all.
constexpr std::size_t kWriteBufferBytes = 256 * 1024;

// Writes an emitted image into a generation's .tmp file through one
// kWriteBufferBytes buffer; a payload at least that large goes to the
// kernel straight from the encoder's storage (copying it through the
// buffer measured twice the save's system time, EXPERIMENTS.md). Only
// the first `limit` bytes reach the file (the torn-write seam, the
// partial-write crash step). A failed write sticks: later bytes are
// dropped and error() keeps its errno.
class FileSink final : public ByteSink {
 public:
  FileSink(int fd, std::uint64_t limit)
      : fd_(fd), limit_(limit), buf_(new char[kWriteBufferBytes]) {}

  void write(const void* p, std::size_t n) override {
    if (used_ + n > kWriteBufferBytes) flush();
    if (n >= kWriteBufferBytes) {
      put(static_cast<const char*>(p), n);
      return;
    }
    std::memcpy(buf_.get() + used_, p, n);
    used_ += n;
  }

  // Hands the buffered bytes to the kernel; false once any write failed.
  bool flush() {
    put(buf_.get(), used_);
    used_ = 0;
    return err_ == 0;
  }
  int error() const { return err_; }

 private:
  void put(const char* p, std::size_t n) {
    if (err_ != 0) return;
    const ssize_t w = write_all(fd_, p, n, limit_ - sent_);
    if (w < 0) {
      err_ = errno;
    } else {
      sent_ += static_cast<std::uint64_t>(w);
    }
  }

  int fd_;
  std::uint64_t limit_;
  std::uint64_t sent_ = 0;
  int err_ = 0;
  std::unique_ptr<char[]> buf_;
  std::size_t used_ = 0;
};

Status fsync_path_fd(int fd, const std::string& source,
                     const std::string& what) {
  if (::fsync(fd) != 0) return errno_status(source, "fsync " + what);
  return Status{};
}

Status fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return errno_status(dir, "open directory for fsync");
  Status s = fsync_path_fd(fd, dir, "directory");
  ::close(fd);
  return s;
}

[[noreturn]] void crash_now() { ::_exit(2); }

bool parse_u64(std::string_view token, std::uint64_t& out) {
  if (token.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    // Reject rather than wrap: a 20+-digit token in a corrupt manifest
    // or filename must not alias to a small generation number.
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) {
      return false;
    }
    v = v * 10 + d;
  }
  out = v;
  return true;
}

bool parse_hex32(std::string_view token, std::uint32_t& out) {
  if (token.empty() || token.size() > 8) return false;
  std::uint32_t v = 0;
  for (const char c : token) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
    else return false;
  }
  out = v;
  return true;
}

std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

constexpr std::string_view kManifestHeader = "fastore-manifest 1";
constexpr std::string_view kManifestName = "MANIFEST";

// Hash chain over the generation history: each entry's chain value
// commits to every entry before it, so a manifest whose middle was
// swapped out fails even if each line is individually well-formed.
std::uint32_t chain_value(std::uint32_t prev, const std::string& body) {
  std::uint32_t seeded = crc32(&prev, sizeof prev);
  return crc32(body.data(), body.size(), seeded);
}

std::string manifest_entry_body(const Generation& g) {
  std::ostringstream line;
  line << "gen " << g.number << ' ' << g.filename << ' ' << g.size << ' '
       << hex32(g.crc);
  return line.str();
}

}  // namespace

// ---------------------------------------------------------------------
// MappedFile
// ---------------------------------------------------------------------

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

fault::Result<MappedFile> MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status(path, "open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status s = errno_status(path, "fstat");
    ::close(fd);
    return s;
  }
  if (st.st_size == 0) {
    ::close(fd);
    return Status::error(ErrCode::kTruncated, 0, path, "empty snapshot file");
  }
  void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) return errno_status(path, "mmap");
  MappedFile m;
  m.data_ = p;
  m.size_ = static_cast<std::size_t>(st.st_size);
  return m;
}

// ---------------------------------------------------------------------
// filenames / manifest text
// ---------------------------------------------------------------------

std::string generation_filename(std::uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "gen-%06llu.fa",
                static_cast<unsigned long long>(number));
  return buf;
}

std::string encode_manifest(const Manifest& manifest) {
  std::ostringstream out;
  out << kManifestHeader << '\n';
  std::uint32_t chain = 0;
  for (const auto& g : manifest.generations) {
    const std::string body = manifest_entry_body(g);
    chain = chain_value(chain, body);
    out << body << ' ' << hex32(chain) << '\n';
  }
  const std::string bodytext = out.str();
  out << "crc " << hex32(crc32(bodytext.data(), bodytext.size())) << '\n';
  return out.str();
}

fault::Result<Manifest> parse_manifest(std::string_view text,
                                       const std::string& source) {
  Manifest manifest;
  std::size_t pos = 0;
  std::uint64_t lineno = 0;
  std::uint32_t chain = 0;
  bool saw_header = false;
  bool saw_crc = false;
  std::size_t body_end = 0;  // byte offset where the crc line starts
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      return Status::error(ErrCode::kTruncated, lineno + 1, source,
                           "manifest ends without newline");
    }
    const std::string_view line = text.substr(pos, eol - pos);
    const std::size_t line_start = pos;
    pos = eol + 1;
    ++lineno;
    if (saw_crc) {
      return Status::error(ErrCode::kSchema, lineno, source,
                           "manifest has content after its crc line");
    }
    if (!saw_header) {
      if (line != kManifestHeader) {
        return Status::error(ErrCode::kBadMagic, lineno, source,
                             "manifest header missing");
      }
      saw_header = true;
      continue;
    }
    std::istringstream fields{std::string(line)};
    std::string tag;
    fields >> tag;
    if (tag == "crc") {
      std::string hex;
      fields >> hex;
      std::uint32_t want = 0;
      if (!parse_hex32(hex, want)) {
        return Status::error(ErrCode::kParse, lineno, source,
                             "manifest crc line malformed");
      }
      body_end = line_start;
      const std::uint32_t got = crc32(text.data(), body_end);
      if (got != want) {
        return Status::error(ErrCode::kParse, lineno, source,
                             "manifest checksum mismatch");
      }
      saw_crc = true;
      continue;
    }
    if (tag != "gen") {
      return Status::error(ErrCode::kParse, lineno, source,
                           "unknown manifest line tag '" + tag + "'");
    }
    Generation g;
    std::string num_s, size_s, crc_s, chain_s;
    fields >> num_s >> g.filename >> size_s >> crc_s >> chain_s;
    std::uint32_t line_chain = 0;
    std::string extra;
    if (!parse_u64(num_s, g.number) || g.filename.empty() ||
        !parse_u64(size_s, g.size) || !parse_hex32(crc_s, g.crc) ||
        !parse_hex32(chain_s, line_chain) || (fields >> extra)) {
      return Status::error(ErrCode::kParse, lineno, source,
                           "manifest gen line malformed");
    }
    if (g.filename.find('/') != std::string::npos) {
      return Status::error(ErrCode::kOutOfRange, lineno, source,
                           "manifest filename escapes the store directory");
    }
    chain = chain_value(chain, manifest_entry_body(g));
    if (chain != line_chain) {
      return Status::error(ErrCode::kParse, lineno, source,
                           "manifest hash chain broken");
    }
    if (!manifest.generations.empty() &&
        g.number <= manifest.generations.back().number) {
      return Status::error(ErrCode::kSchema, lineno, source,
                           "manifest generations not strictly ascending");
    }
    manifest.generations.push_back(std::move(g));
  }
  if (!saw_header) {
    return Status::error(ErrCode::kTruncated, 0, source, "manifest is empty");
  }
  if (!saw_crc) {
    return Status::error(ErrCode::kTruncated, lineno, source,
                         "manifest missing its crc line (torn write?)");
  }
  return manifest;
}

// ---------------------------------------------------------------------
// StoreDir
// ---------------------------------------------------------------------

fault::Result<StoreDir> StoreDir::open(std::string path, bool create) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    if (!create) {
      return Status::error(ErrCode::kIoFailure, 0, path,
                           "store directory does not exist");
    }
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST) {
      return errno_status(path, "mkdir");
    }
  } else if (!S_ISDIR(st.st_mode)) {
    return Status::error(ErrCode::kIoFailure, 0, path,
                         "store path exists but is not a directory");
  }
  return StoreDir(std::move(path));
}

fault::Result<Manifest> StoreDir::read_manifest() const {
  const std::string mpath = file_path(std::string(kManifestName));
  std::ifstream in(mpath, std::ios::binary);
  if (!in) {
    return Status::error(ErrCode::kIoFailure, 0, mpath,
                         "manifest not found");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_manifest(buf.str(), mpath);
}

Manifest StoreDir::scan() const {
  Manifest manifest;
  DIR* dir = ::opendir(path_.c_str());
  if (dir == nullptr) return manifest;
  while (dirent* e = ::readdir(dir)) {
    const std::string_view name = e->d_name;
    // gen-NNNNNN.fa, no .tmp debris.
    if (name.size() < 8 || name.substr(0, 4) != "gen-" ||
        name.substr(name.size() - 3) != ".fa") {
      continue;
    }
    std::uint64_t number = 0;
    if (!parse_u64(name.substr(4, name.size() - 7), number)) continue;
    Generation g;
    g.number = number;
    g.filename = std::string(name);
    struct stat st{};
    if (::stat(file_path(g.filename).c_str(), &st) == 0) {
      g.size = static_cast<std::uint64_t>(st.st_size);
    }
    manifest.generations.push_back(std::move(g));
  }
  ::closedir(dir);
  std::sort(manifest.generations.begin(), manifest.generations.end(),
            [](const Generation& a, const Generation& b) {
              return a.number < b.number;
            });
  return manifest;
}

std::uint64_t StoreDir::next_generation() const {
  const Manifest on_disk = scan();
  return on_disk.generations.empty() ? 1
                                     : on_disk.generations.back().number + 1;
}

fault::Status write_file_durably(const std::string& dir,
                                 const std::string& name,
                                 std::string_view bytes) {
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return errno_status(tmp_path, "open");
  if (write_all(fd, bytes.data(), bytes.size(), ~0ull) < 0) {
    Status s = errno_status(tmp_path, "write");
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return s;
  }
  if (Status s = fsync_path_fd(fd, tmp_path, name); !s.ok()) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return s;
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    Status s = errno_status(final_path, "rename " + name);
    ::unlink(tmp_path.c_str());
    return s;
  }
  return fsync_dir(dir);
}

fault::Status StoreDir::write_manifest(const Manifest& manifest) const {
  return write_file_durably(path_, std::string(kManifestName),
                            encode_manifest(manifest));
}

fault::Result<Generation> StoreDir::commit(const Image& image,
                                           const CommitHooks& hooks) {
  obs::Span span(obs::metrics::kStoreSaveNs);
  const Image::Plan plan = image.plan();
  return commit_streamed(
      plan.size, plan.crc, [&](ByteSink& out) { image.emit(plan, out); },
      hooks);
}

fault::Result<Generation> StoreDir::commit(std::string_view bytes,
                                           const CommitHooks& hooks) {
  obs::Span span(obs::metrics::kStoreSaveNs);
  return commit_streamed(
      bytes.size(), crc32(bytes.data(), bytes.size()),
      [bytes](ByteSink& out) { out.write(bytes.data(), bytes.size()); },
      hooks);
}

fault::Result<Generation> StoreDir::commit_streamed(
    std::uint64_t size, std::uint32_t crc,
    const std::function<void(ByteSink&)>& emit, const CommitHooks& hooks) {
  const auto& injector = fault::Injector::global();
  const std::uint64_t number = next_generation();
  Generation gen;
  gen.number = number;
  gen.filename = generation_filename(number);
  gen.size = size;
  gen.crc = crc;
  const std::string final_path = file_path(gen.filename);
  const std::string tmp_path = final_path + ".tmp";

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) {
    obs::count(obs::metrics::kStoreSaveFailures);
    return errno_status(tmp_path, "open");
  }

  // Torn-write seam: persist only a seeded prefix and report the commit
  // as failed, leaving .tmp debris exactly like a mid-write power cut.
  const bool torn = injector.fires("store.write.torn", number);
  std::uint64_t limit = ~0ull;
  if (torn) {
    limit = size == 0 ? 0 : injector.draw("store.write.torn", number) % size;
  } else if (hooks.crash_at == CommitHooks::CrashStep::kAfterPartialWrite) {
    limit = hooks.write_byte_limit;
  }
  FileSink sink(fd, limit);
  emit(sink);
  const bool written = sink.flush();
  if (torn) {
    ::close(fd);
    obs::count(obs::metrics::kStoreSaveFailures);
    return Status::error(ErrCode::kInjected, limit, "store.write.torn",
                         "torn write injected at generation " +
                             std::to_string(number));
  }
  if (!written) {
    Status s = errno_status(tmp_path, "write", sink.error());
    ::close(fd);
    ::unlink(tmp_path.c_str());
    obs::count(obs::metrics::kStoreSaveFailures);
    return s;
  }
  if (hooks.crash_at == CommitHooks::CrashStep::kAfterPartialWrite) {
    crash_now();
  }
  if (Status s = fsync_path_fd(fd, tmp_path, "image"); !s.ok()) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    obs::count(obs::metrics::kStoreSaveFailures);
    return s;
  }
  ::close(fd);
  if (hooks.crash_at == CommitHooks::CrashStep::kAfterTmpWrite) {
    crash_now();
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    Status s = errno_status(final_path, "rename image");
    ::unlink(tmp_path.c_str());
    obs::count(obs::metrics::kStoreSaveFailures);
    return s;
  }
  if (Status s = fsync_dir(path_); !s.ok()) {
    obs::count(obs::metrics::kStoreSaveFailures);
    return s;
  }
  if (hooks.crash_at == CommitHooks::CrashStep::kAfterRename) {
    crash_now();
  }

  // Manifest update: previous manifest entries (or, with no readable
  // manifest, entries recovered by scan) + the new generation, pruned
  // to the keep window.
  Manifest manifest;
  if (auto prior = read_manifest(); prior.ok()) {
    manifest = std::move(prior.value());
  } else {
    Manifest scanned = scan();
    // Exclude the just-renamed file; it is appended below. Scan crcs
    // are unknown (0), so recompute them for honest manifest entries.
    for (auto& g : scanned.generations) {
      if (g.number == number) continue;
      if (auto mapped = MappedFile::open(file_path(g.filename));
          mapped.ok()) {
        g.crc = crc32(mapped.value().data(), mapped.value().size());
        g.size = mapped.value().size();
      }
      manifest.generations.push_back(std::move(g));
    }
  }
  manifest.generations.push_back(gen);
  std::vector<Generation> pruned;
  while (manifest.generations.size() > kKeepGenerations) {
    pruned.push_back(manifest.generations.front());
    manifest.generations.erase(manifest.generations.begin());
  }

  if (hooks.crash_at == CommitHooks::CrashStep::kMidManifest) {
    // Simulate dying halfway through the manifest rewrite: the .tmp is
    // partially written, the real MANIFEST untouched.
    const std::string text = encode_manifest(manifest);
    const std::string mtmp =
        file_path(std::string(kManifestName)) + ".tmp";
    const int mfd = ::open(mtmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
    if (mfd >= 0) {
      write_all(mfd, text.data(), text.size(), text.size() / 2);
      ::close(mfd);
    }
    crash_now();
  }

  if (Status s = write_manifest(manifest); !s.ok()) {
    obs::count(obs::metrics::kStoreSaveFailures);
    return s;
  }
  for (const auto& g : pruned) {
    if (::unlink(file_path(g.filename).c_str()) == 0) {
      obs::count(obs::metrics::kStorePruned);
    }
  }
  obs::count(obs::metrics::kStoreSaves);
  obs::count(obs::metrics::kStoreSaveBytes, size);
  return gen;
}

}  // namespace fa::store
