// DeltaLog: hash-chained increment persistence. Round trip, chain
// verification (every link checked against the predecessor's whole-file
// CRC, rooted at the base image's CRC the handle was opened with),
// torn-tail truncation, debris cleanup, and pruning of superseded
// chains.
//
// The log is content-agnostic about its base image — it only needs its
// CRC — so these tests commit a tiny opaque blob as the base generation
// instead of paying for a world build.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "delta/event.hpp"
#include "delta/log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
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

TEST(DeltaLog, FailedCommitIsAnAppendFailure) {
  // A directory squatting on the next increment's name makes the commit's
  // rename fail after the write and fsync. The append must report it,
  // count it, leave no .tmp debris and keep its ordinal and chain link,
  // so the chain on disk stays the durably written prefix.
  Fixture fx;
  DeltaLog d = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
  ASSERT_TRUE(d.append(batch(0, 2)).ok());
  const std::string squatter =
      fx.dir.file_path(increment_filename(fx.gen.number, 1));
  ASSERT_TRUE(std::filesystem::create_directory(squatter));
  const bool obs_was = obs::enabled();
  obs::set_enabled(true);
  {
    obs::ScopedRegistry scoped;
    const auto failed = d.append(batch(2, 2));
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(
        scoped.registry().counter(obs::metrics::kDeltaLogAppendFailures)
            .value(),
        1u);
    EXPECT_EQ(scoped.registry().counter(obs::metrics::kDeltaLogAppends)
                  .value(),
              0u);
  }
  obs::set_enabled(obs_was);
  EXPECT_FALSE(file_exists(squatter + ".tmp"));
  EXPECT_EQ(d.replay().batches.size(), 1u);
  // Once the name is free, the retry takes the same ordinal and links.
  ASSERT_TRUE(std::filesystem::remove(squatter));
  const auto retried = d.append(batch(2, 2));
  ASSERT_TRUE(retried.ok()) << retried.status().to_string();
  EXPECT_EQ(retried.value(), 1u);
  const DeltaLog::Replay replayed = d.replay();
  EXPECT_EQ(replayed.truncated, 0u);
  EXPECT_EQ(replayed.batches.size(), 2u);
}

TEST(DeltaLog, ReplayNeverReadsTheBaseImage) {
  // The chain's first link is the base CRC the handle was opened with
  // (the one recovery verified); replay links increment 0 to it and
  // never opens the base image, so the chain replays even with the
  // image gone.
  Fixture fx;
  DeltaLog d = DeltaLog::open(fx.dir, fx.gen.number, fx.gen.crc).take();
  ASSERT_TRUE(d.append(batch(0, 2)).ok());
  ASSERT_TRUE(d.append(batch(2, 3)).ok());
  ASSERT_TRUE(std::filesystem::remove(fx.dir.file_path(fx.gen.filename)));
  const DeltaLog::Replay replayed = d.replay();
  EXPECT_EQ(replayed.truncated, 0u);
  ASSERT_EQ(replayed.batches.size(), 2u);
  EXPECT_EQ(replayed.batches[0].size(), 2u);
  EXPECT_EQ(replayed.batches[1].size(), 3u);
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
