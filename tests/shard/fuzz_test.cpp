// Seeded FASHRD01 format fuzzer: N=1000 deterministic mutations of a
// small container — single-byte flips anywhere in the file (half of
// them aimed at the header and section table), truncations,
// extensions, and zeroed runs — each opened the way recovery opens a
// generation (deep-verified). The bar: every mutant is rejected with a
// Status or opens with every non-quarantined shard byte-equal to the
// clean view's (damage is never served); a single-byte flip costs at
// most one shard; the inspector agrees with the open; nothing crashes.
// Runs clean under ASan+UBSan (the verify recipe).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "shard/codec.hpp"
#include "shard_test_util.hpp"
#include "store/format.hpp"
#include "../store/mutants.hpp"

namespace fa::shard {
namespace {

using testing::shard_bytes;
using testing::small_layout;

// The tiny scenario cut into small_layout()'s shards: a container of a
// few hundred KB, so a thousand deep-verified opens stay quick.
const ShardedWorld& fuzz_view() {
  static const ShardedWorld* view = new ShardedWorld(
      ShardedWorld::build(serve::testing::tiny_config(), {}, small_layout())
          .take());
  return *view;
}

TEST(ShardFormatFuzz, MutantsAreRejectedOrQuarantinedNeverServed) {
  const ShardedWorld& clean = fuzz_view();
  const std::string image = encode_sharded(clean);
  ASSERT_GT(clean.shard_count(), 1u);
  std::vector<std::string> clean_shards;
  for (std::size_t s = 0; s < clean.shard_count(); ++s) {
    clean_shards.push_back(shard_bytes(clean.shard(s)));
  }
  // Header plus section table: nine global entries, then twelve per
  // shard.
  const std::size_t table_end =
      store::kHeaderSize +
      (9 + store::kShardSectionsPerShard * clean.shard_count()) *
          store::kSectionEntrySize;

  int rejected = 0, degraded = 0, intact = 0;
  constexpr int kSeeds = 1000;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const store::testing::Mutant m =
        store::testing::mutate(image, static_cast<std::uint64_t>(seed),
                               table_end);
    ASSERT_NE(m.bytes, image) << "mutation was a no-op";
    auto owned = std::make_shared<const std::string>(m.bytes);
    auto opened =
        open_sharded(owned->data(), owned->size(), owned, "mutant");
    auto report = inspect_sharded(owned->data(), owned->size(), "mutant");
    if (!opened.ok()) {
      ++rejected;
      continue;
    }
    const ShardedWorld& view = opened.value();
    ASSERT_EQ(view.shard_count(), clean.shard_count());
    std::size_t quarantined = 0;
    for (std::size_t s = 0; s < view.shard_count(); ++s) {
      if (view.shard(s).quarantined) {
        ++quarantined;
        continue;
      }
      EXPECT_TRUE(shard_bytes(view.shard(s)) == clean_shards[s])
          << "shard " << s << " served damaged columns";
    }
    EXPECT_EQ(quarantined, view.quarantined_count());
    if (m.single_byte_flip) {
      EXPECT_LE(quarantined, 1u) << "one flipped byte cost several shards";
    }
    // The inspector lists what the open quarantined.
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(report.value().ok(), quarantined == 0);
    // A mutant that opens intact changed a byte nothing serves from;
    // the inspector still never calls it verified.
    if (quarantined == 0) {
      EXPECT_GT(report.value().reserved_mismatches, 0u)
          << "an intact-opening mutant passed verification";
    }
    quarantined > 0 ? ++degraded : ++intact;
  }
  // Each outcome occurs, so every rule above was exercised.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_GT(intact, 0);
  std::printf("rejected %d, degraded %d, intact %d of %d mutants\n",
              rejected, degraded, intact, kSeeds);
}

}  // namespace
}  // namespace fa::shard
