// FASHRD01 codec: deterministic encode, zero-copy open fidelity,
// shard-level quarantine on damage (never generation-level failure for
// a single flipped bit), and the inspection report tooling reads.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "shard/codec.hpp"
#include "shard_test_util.hpp"
#include "store/codec.hpp"
#include "store/format.hpp"

namespace fa::shard {
namespace {

using testing::small_image;
using testing::small_risk;
using testing::small_sharded;
using testing::small_world;

fault::Result<ShardedWorld> open_image(const std::string& image) {
  // Tests keep the bytes alive via a shared copy, the way the mmap path
  // keeps the MappedFile alive.
  auto owned = std::make_shared<std::string>(image);
  return open_sharded(owned->data(), owned->size(), owned, "test-image");
}

TEST(ShardCodec, EncodeIsDeterministic) {
  EXPECT_EQ(encode_sharded(small_sharded()), small_image());
}

TEST(ShardCodec, OpenedViewMatchesBuiltView) {
  auto opened = open_image(small_image());
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  const ShardedWorld& view = opened.value();
  const ShardedWorld& built = small_sharded();
  ASSERT_EQ(view.shard_count(), built.shard_count());
  EXPECT_EQ(view.quarantined_count(), 0u);
  EXPECT_EQ(view.total_points(), built.total_points());
  EXPECT_TRUE(view.config() == built.config());
  for (std::size_t s = 0; s < view.shard_count(); ++s) {
    ASSERT_EQ(view.shard(s).n(), built.shard(s).n()) << "shard " << s;
    ASSERT_EQ(view.shard(s).page_count(), built.shard(s).page_count());
    for (std::size_t p = 0; p < view.shard(s).page_count(); ++p) {
      const Page& a = view.shard(s).page(p);
      const Page& b = built.shard(s).page(p);
      ASSERT_EQ(a.begin(), b.begin()) << "shard " << s << " page " << p;
      ASSERT_EQ(a.end(), b.end()) << "shard " << s << " page " << p;
      for (std::uint32_t k = a.begin(); k < a.end(); ++k) {
        ASSERT_EQ(a.ids[k], b.ids[k]);
        ASSERT_EQ(a.xs[k], b.xs[k]);
        ASSERT_EQ(a.cls[k], b.cls[k]);
      }
    }
  }
  // And the opened view re-encodes to the same bytes: open is lossless.
  EXPECT_EQ(encode_sharded(view), small_image());
}

TEST(ShardCodec, MaterializedWorldEncodesIdenticallyToSource) {
  auto opened = open_image(small_image());
  ASSERT_TRUE(opened.ok());
  auto world = opened.value().materialize();
  ASSERT_TRUE(world.ok()) << world.status().to_string();
  EXPECT_EQ(store::encode_world(world.value(), small_risk()),
            store::encode_world(small_world(), small_risk()));
}

TEST(ShardCodec, FlippedShardByteQuarantinesOnlyThatShard) {
  const std::string& clean = small_image();
  // Find an offset whose damage hits exactly one shard payload: the
  // inspect report says which (and proves the globals stayed clean).
  bool exercised = false;
  for (std::size_t frac = 3; frac <= 7 && !exercised; ++frac) {
    std::string dirty = clean;
    const std::size_t at = clean.size() * frac / 10;
    dirty[at] = static_cast<char>(dirty[at] ^ 0x40);
    auto report = inspect_sharded(dirty.data(), dirty.size(), "dirty");
    if (!report.ok() || !report.value().globals_ok) continue;
    std::size_t bad = 0;
    for (const ShardReport& sh : report.value().shards) {
      if (!sh.crc_ok) ++bad;
    }
    if (bad != 1) continue;
    exercised = true;
    auto opened = open_image(dirty);
    ASSERT_TRUE(opened.ok())
        << "one damaged shard must not reject the container: "
        << opened.status().to_string();
    EXPECT_EQ(opened.value().quarantined_count(), 1u);
    // Undamaged shards still carry their points.
    std::uint64_t servable = 0;
    for (const Shard& sh : opened.value().shards()) {
      if (!sh.quarantined) servable += sh.n();
    }
    EXPECT_GT(servable, 0u);
    EXPECT_LT(servable, opened.value().total_points());
  }
  EXPECT_TRUE(exercised)
      << "no probe offset landed in a single shard payload; widen probes";
}

// A shard's sections are read from their table positions, so damage to
// one table entry costs only the shard that entry belongs to. Flipping
// bit 0 of the owner of shard 0's kShardX entry (table entry
// 9 + 12 * 0 + 1) turns it into a claim by shard 1; a lookup by
// (kind, owner) would then hand shard 1 that entry too.
TEST(ShardCodec, FlippedOwnerBitQuarantinesOnlyItsShard) {
  const std::size_t at =
      store::kHeaderSize + (9 + 1) * store::kSectionEntrySize + 4;
  ASSERT_EQ(at, 388u);
  std::string dirty = small_image();
  dirty[at] = static_cast<char>(dirty[at] ^ 0x01);
  auto opened = open_image(dirty);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  const ShardedWorld& view = opened.value();
  EXPECT_EQ(view.quarantined_count(), 1u);
  EXPECT_TRUE(view.shard(0).quarantined);
  for (std::size_t s = 1; s < view.shard_count(); ++s) {
    EXPECT_FALSE(view.shard(s).quarantined) << "shard " << s;
    EXPECT_TRUE(testing::shard_bytes(view.shard(s)) ==
                testing::shard_bytes(small_sharded().shard(s)))
        << "shard " << s;
  }
  // The inspector blames the same single shard.
  auto report = inspect_sharded(dirty.data(), dirty.size(), "dirty");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  for (const ShardReport& sh : report.value().shards) {
    EXPECT_EQ(sh.structural_ok, sh.shard != 0) << "shard " << sh.shard;
  }
}

TEST(ShardCodec, TruncationRejectsTheContainer) {
  const std::string& clean = small_image();
  const std::string truncated = clean.substr(0, clean.size() / 2);
  auto opened = open_image(truncated);
  EXPECT_FALSE(opened.ok());
}

TEST(ShardCodec, GarbageMagicRejectsTheContainer) {
  std::string dirty = small_image();
  dirty[0] = 'X';
  auto opened = open_image(dirty);
  EXPECT_FALSE(opened.ok());
}

TEST(ShardCodec, InspectEnumeratesEveryShard) {
  const std::string& image = small_image();
  auto report = inspect_sharded(image.data(), image.size(), "clean");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  const ContainerReport& r = report.value();
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.globals_ok);
  EXPECT_EQ(r.file_size, image.size());
  ASSERT_EQ(r.shards.size(), small_sharded().shard_count());
  std::uint64_t points = 0;
  for (const ShardReport& sh : r.shards) {
    EXPECT_TRUE(sh.structural_ok);
    EXPECT_TRUE(sh.crc_ok);
    EXPECT_TRUE(sh.bounds.valid());
    points += sh.n_points;
  }
  EXPECT_EQ(points, small_sharded().total_points());
  EXPECT_EQ(r.reserved_mismatches, 0u);
}

TEST(ShardCodec, InspectFlagsBytesTheOpenNeverReads) {
  const std::string& clean = small_image();
  const std::size_t first_entry = store::kHeaderSize;
  const std::size_t footer = clean.size() - store::kFooterSize;
  // The alignment padding after the first section (the meta section's
  // length is not a multiple of the 64-byte alignment).
  std::uint64_t offset = 0, length = 0;
  std::memcpy(&offset, clean.data() + first_entry + 8, 8);
  std::memcpy(&length, clean.data() + first_entry + 16, 8);
  ASSERT_NE((offset + length) % store::kSectionAlign, 0u);
  // An entry pad, a global entry's owner, padding and the footer pad:
  // the open serves the container intact, and the inspector objects.
  for (const std::size_t at :
       {first_entry + 29, first_entry + 5,
        static_cast<std::size_t>(offset + length), footer + 30}) {
    SCOPED_TRACE("byte " + std::to_string(at));
    std::string dirty = clean;
    dirty[at] = static_cast<char>(dirty[at] ^ 0x10);
    auto opened = open_image(dirty);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    EXPECT_EQ(opened.value().quarantined_count(), 0u);
    auto report = inspect_sharded(dirty.data(), dirty.size(), "dirty");
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_TRUE(report.value().ok()) << "ok() mirrors quarantine only";
    EXPECT_EQ(report.value().reserved_mismatches, 1u);
  }
}

}  // namespace
}  // namespace fa::shard
