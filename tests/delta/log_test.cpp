// DeltaLog: hash-chained increment persistence. Round trip, chain
// verification (every link checked against the predecessor's whole-file
// CRC, rooted at the base snapshot image), torn-tail truncation, debris
// cleanup, and pruning of superseded chains.
//
// The log is content-agnostic about its base image — it only needs the
// file and its CRC — so these tests commit a tiny opaque blob as the
// base generation instead of paying for a world build.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "delta/event.hpp"
#include "delta/log.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "../store/store_test_util.hpp"

namespace fa::delta {
namespace {

using store::testing::TempDir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

FeedEvent retire(std::uint64_t seq, std::uint32_t target) {
  FeedEvent e;
  e.seq = seq;
  e.kind = EventKind::kRetireTransceiver;
  e.target = target;
  return e;
}

std::vector<FeedEvent> batch(std::uint64_t first_seq, std::size_t n) {
  std::vector<FeedEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(
        retire(first_seq + i, static_cast<std::uint32_t>(100 + i)));
  }
  return events;
}

struct Fixture {
  TempDir tmp;
  store::StoreDir dir;
  store::Generation gen;

  Fixture()
      : dir(store::StoreDir::open(tmp.path).take()),
        gen(dir.commit("delta-log base image bytes").take()) {}
};

TEST(DeltaLog, FilenameFormat) {
  EXPECT_EQ(increment_filename(42, 7), "gen-000042.d-000007.fad");
}

TEST(DeltaLog, AppendReplayRoundTrip) {
  Fixture fx;
  auto log = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc);
  ASSERT_TRUE(log.ok()) << log.status().to_string();
  DeltaLog d = std::move(log).take();
  const std::vector<std::vector<FeedEvent>> batches = {
      batch(0, 3), batch(3, 5), batch(8, 1)};
  for (std::size_t i = 0; i < batches.size(); ++i) {
    auto ordinal = d.append(batches[i]);
    ASSERT_TRUE(ordinal.ok()) << ordinal.status().to_string();
    EXPECT_EQ(ordinal.value(), i);
  }
  const DeltaLog::Replay replayed = d.replay();
  EXPECT_EQ(replayed.truncated, 0u);
  ASSERT_EQ(replayed.batches.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    ASSERT_EQ(replayed.batches[i].size(), batches[i].size());
    for (std::size_t j = 0; j < batches[i].size(); ++j) {
      EXPECT_EQ(replayed.batches[i][j], batches[i][j]);
    }
  }
}

TEST(DeltaLog, ZeroBaseCrcComputedFromImage) {
  Fixture fx;
  // A scan()-sourced manifest reports crc 0; open() must derive the
  // real base link from the image file so the chain still verifies.
  auto log = DeltaLog::open(fx.dir, fx.gen.number, 0);
  ASSERT_TRUE(log.ok());
  DeltaLog d = std::move(log).take();
  ASSERT_TRUE(d.append(batch(0, 2)).ok());
  EXPECT_EQ(d.replay().batches.size(), 1u);
}

TEST(DeltaLog, MultiChunkBaseImageLinksAndReplays) {
  // The base link is the image's whole-file CRC, read in kCrcChunkBytes
  // pieces. An image over two chunks long, and not a whole number of
  // them, must give the one-shot CRC both when open() derives the link
  // (crc 0) and when replay() re-derives it.
  TempDir tmp;
  store::StoreDir dir = store::StoreDir::open(tmp.path).take();
  std::string image(2 * DeltaLog::kCrcChunkBytes + 4099, '\0');
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (char& c : image) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  const store::Generation gen = dir.commit(image).take();
  ASSERT_EQ(gen.crc, store::crc32(image.data(), image.size()));

  DeltaLog derived = DeltaLog::open(dir, gen.number, 0).take();
  ASSERT_TRUE(derived.append(batch(0, 2)).ok());
  ASSERT_TRUE(derived.append(batch(2, 3)).ok());
  // The manifest's CRC finds the chain the derived link started.
  const DeltaLog logged = DeltaLog::open(dir, gen.number, gen.crc).take();
  EXPECT_EQ(logged.next_ordinal(), 2u);
  const DeltaLog::Replay replayed = logged.replay();
  EXPECT_EQ(replayed.truncated, 0u);
  EXPECT_EQ(replayed.batches.size(), 2u);

  // One flipped bit in the image's last, partial chunk moves the link:
  // replay no longer proves the chain starts at this image.
  image.back() = static_cast<char>(image.back() ^ 1);
  spit(dir.file_path(gen.filename), image);
  const DeltaLog::Replay orphaned = logged.replay();
  EXPECT_TRUE(orphaned.batches.empty());
  EXPECT_EQ(orphaned.truncated, 1u);
}

TEST(DeltaLog, ReopenFindsChainTail) {
  Fixture fx;
  {
    DeltaLog d = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
    ASSERT_TRUE(d.append(batch(0, 2)).ok());
    ASSERT_TRUE(d.append(batch(2, 2)).ok());
  }
  DeltaLog d = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
  EXPECT_EQ(d.next_ordinal(), 2u);
  auto ordinal = d.append(batch(4, 1));
  ASSERT_TRUE(ordinal.ok());
  EXPECT_EQ(ordinal.value(), 2u);
  EXPECT_EQ(d.replay().batches.size(), 3u);
}

TEST(DeltaLog, TornTailTruncatesNeverPoisons) {
  Fixture fx;
  DeltaLog d = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
  ASSERT_TRUE(d.append(batch(0, 3)).ok());
  ASSERT_TRUE(d.append(batch(3, 3)).ok());
  // Tear the tail increment: drop its last 10 bytes.
  const std::string tail =
      fx.dir.file_path(increment_filename(fx.gen.number, 1));
  const std::string bytes = slurp(tail);
  spit(tail, bytes.substr(0, bytes.size() - 10));

  const DeltaLog::Replay replayed = d.replay();
  EXPECT_EQ(replayed.batches.size(), 1u);
  EXPECT_EQ(replayed.truncated, 1u);
}

TEST(DeltaLog, BrokenMiddleLinkDropsEverythingPastIt) {
  Fixture fx;
  DeltaLog d = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
  ASSERT_TRUE(d.append(batch(0, 1)).ok());
  ASSERT_TRUE(d.append(batch(1, 1)).ok());
  ASSERT_TRUE(d.append(batch(2, 1)).ok());
  // Flip one payload byte of increment 1: its CRC check fails, and even
  // though increment 2 is pristine, its prev-link no longer proves
  // continuity, so replay must stop at increment 0.
  const std::string mid =
      fx.dir.file_path(increment_filename(fx.gen.number, 1));
  std::string bytes = slurp(mid);
  bytes[bytes.size() - 1] = static_cast<char>(bytes.back() ^ 0x5a);
  spit(mid, bytes);

  const DeltaLog::Replay replayed = d.replay();
  EXPECT_EQ(replayed.batches.size(), 1u);
  EXPECT_EQ(replayed.truncated, 1u);

  // Re-open heals: unreachable debris past the break is unlinked and
  // the next append re-uses ordinal 1 on a fresh, verifiable chain.
  DeltaLog reopened =
      DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
  EXPECT_EQ(reopened.next_ordinal(), 1u);
  EXPECT_FALSE(
      file_exists(fx.dir.file_path(increment_filename(fx.gen.number, 2))));
  ASSERT_TRUE(reopened.append(batch(1, 4)).ok());
  const DeltaLog::Replay healed = reopened.replay();
  EXPECT_EQ(healed.batches.size(), 2u);
  EXPECT_EQ(healed.truncated, 0u);
}

TEST(DeltaLog, WrongBaseCrcOrphansWholeChain) {
  Fixture fx;
  DeltaLog d = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
  ASSERT_TRUE(d.append(batch(0, 2)).ok());
  // A chain rooted at a different image must not replay: increments
  // prove continuity from a specific base, not just from "a base".
  DeltaLog wrong =
      DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc ^ 1).take();
  EXPECT_EQ(wrong.next_ordinal(), 0u);
  EXPECT_TRUE(wrong.replay().batches.empty());
}

TEST(DeltaLog, PruneStaleRemovesSupersededChains) {
  Fixture fx;
  DeltaLog d = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
  ASSERT_TRUE(d.append(batch(0, 1)).ok());
  ASSERT_TRUE(d.append(batch(1, 1)).ok());
  const store::Generation next = fx.dir.commit("newer image").take();
  DeltaLog::prune_stale(fx.dir, next.number);
  EXPECT_FALSE(
      file_exists(fx.dir.file_path(increment_filename(fx.gen.number, 0))));
  EXPECT_FALSE(
      file_exists(fx.dir.file_path(increment_filename(fx.gen.number, 1))));
  // The kept base's (empty) chain and the images themselves survive.
  EXPECT_TRUE(
      file_exists(fx.dir.file_path(store::generation_filename(next.number))));
}

TEST(DeltaLog, PruneKeepsCurrentChain) {
  Fixture fx;
  DeltaLog d = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
  ASSERT_TRUE(d.append(batch(0, 1)).ok());
  DeltaLog::prune_stale(fx.dir, fx.gen.number);
  EXPECT_TRUE(
      file_exists(fx.dir.file_path(increment_filename(fx.gen.number, 0))));
  EXPECT_EQ(d.replay().batches.size(), 1u);
}

}  // namespace
}  // namespace fa::delta
