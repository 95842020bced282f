// Shard-by-shard cold-start recovery through shard::recover: a flipped
// payload bit costs one shard, not a generation; only an unservable
// container falls back down the ladder.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "shard/codec.hpp"
#include "shard/recovery.hpp"
#include "shard_test_util.hpp"

namespace fa::shard {
namespace {

using testing::small_image;
using testing::small_sharded;
using testing::TempDir;

store::StoreDir open_store(const std::string& path) {
  auto dir = store::StoreDir::open(path);
  EXPECT_TRUE(dir.ok());
  return std::move(dir).take();
}

void rewrite_generation(const store::StoreDir& dir,
                        const store::Generation& gen,
                        const std::string& bytes) {
  std::ofstream out(dir.file_path(gen.filename), std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ShardRecovery, CleanShardedGenerationRecoversZeroCopy) {
  TempDir tmp;
  store::StoreDir dir = open_store(tmp.path);
  ASSERT_TRUE(dir.commit(small_image()).ok());

  auto recovered = recover(open_store(tmp.path));
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value().world.quarantined_count(), 0u);
  EXPECT_EQ(encode_sharded(recovered.value().world), small_image());
}

TEST(ShardRecovery, FlippedBitQuarantinesOneShardNotTheGeneration) {
  // Find damage that hits exactly one shard payload (same probe the
  // codec test uses), then serve the rest of the geography from it.
  const std::string& clean = small_image();
  std::string dirty;
  for (std::size_t frac = 3; frac <= 7; ++frac) {
    std::string candidate = clean;
    const std::size_t at = clean.size() * frac / 10;
    candidate[at] = static_cast<char>(candidate[at] ^ 0x40);
    auto report = inspect_sharded(candidate.data(), candidate.size(), "probe");
    if (!report.ok() || !report.value().globals_ok) continue;
    std::size_t bad = 0;
    for (const ShardReport& sh : report.value().shards) {
      if (!sh.crc_ok) ++bad;
    }
    if (bad == 1) {
      dirty = std::move(candidate);
      break;
    }
  }
  ASSERT_FALSE(dirty.empty()) << "no single-shard damage offset found";

  TempDir tmp;
  store::StoreDir dir = open_store(tmp.path);
  auto gen = dir.commit(clean);
  ASSERT_TRUE(gen.ok());
  // Corrupt after commit. The manifest's CRC is checked against the one
  // derived from the table, which takes each payload through its table
  // CRC, so the damage leaves the check passing; the damaged payload
  // fails only its own shard's CRC.
  rewrite_generation(dir, gen.value(), dirty);

  store::RecoveryReport report;
  auto recovered = recover(open_store(tmp.path), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value().generation.number, 1u);
  EXPECT_EQ(recovered.value().generation.crc, gen.value().crc);
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_TRUE(report.steps[0].ok());
  const ShardedWorld& view = recovered.value().world;
  EXPECT_EQ(view.quarantined_count(), 1u);
  std::uint64_t servable = 0;
  for (std::size_t s = 0; s < view.shard_count(); ++s) {
    if (view.shard(s).quarantined) continue;
    servable += view.shard(s).n();
    EXPECT_TRUE(testing::shard_bytes(view.shard(s)) ==
                testing::shard_bytes(small_sharded().shard(s)))
        << "shard " << s;
  }
  EXPECT_GT(servable, 0u);
  EXPECT_LT(servable, small_sharded().total_points());
}

TEST(ShardRecovery, UnwalkableNewestFallsBackToOlderGeneration) {
  TempDir tmp;
  store::StoreDir dir = open_store(tmp.path);
  ASSERT_TRUE(dir.commit(small_image()).ok());
  auto gen2 = dir.commit(small_image());
  ASSERT_TRUE(gen2.ok());
  // Destroy generation 2's frame entirely; the ladder must land on 1.
  rewrite_generation(dir, gen2.value(), std::string(64, '\0'));

  auto recovered = recover(open_store(tmp.path));
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value().generation.number, 1u);
  EXPECT_EQ(encode_sharded(recovered.value().world), small_image());
}

TEST(ShardRecovery, EmptyStoreErrors) {
  TempDir tmp;
  EXPECT_FALSE(recover(open_store(tmp.path)).ok());
}

}  // namespace
}  // namespace fa::shard
