// ShardLayout invariants: the tile grid partitions, routing is total
// and deterministic, and overlap listing never misses a contained
// point — the properties the planner's correctness rests on.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "index/grid_index.hpp"
#include "shard/layout.hpp"
#include "shard_test_util.hpp"

namespace fa::shard {
namespace {

using testing::small_layout;
using testing::small_risk;
using testing::small_world;

ShardLayout build_layout() {
  const index::GridIndex& idx = small_world().txr_index();
  return ShardLayout::build(idx.bounds(), idx.binned_xs(), idx.binned_ys(),
                            small_layout());
}

TEST(ShardLayout, BuildIsDeterministic) {
  const ShardLayout a = build_layout();
  const ShardLayout b = build_layout();
  ASSERT_EQ(a.shard_count(), b.shard_count());
  EXPECT_EQ(a.tile_table(), b.tile_table());
  for (std::size_t s = 0; s < a.shard_count(); ++s) {
    EXPECT_EQ(a.extent(s).first_tile, b.extent(s).first_tile);
    EXPECT_EQ(a.extent(s).tile_count, b.extent(s).tile_count);
    EXPECT_EQ(a.extent(s).n_points, b.extent(s).n_points);
  }
}

TEST(ShardLayout, TileRangesPartitionTheGrid) {
  const ShardLayout layout = build_layout();
  const std::uint64_t tiles =
      static_cast<std::uint64_t>(layout.tiles_x()) * layout.tiles_y();
  std::uint64_t next = 0;
  for (std::size_t s = 0; s < layout.shard_count(); ++s) {
    const ShardExtent& e = layout.extent(s);
    EXPECT_EQ(e.first_tile, next) << "gap or overlap before shard " << s;
    EXPECT_GT(e.tile_count, 0u);
    next = e.first_tile + e.tile_count;
  }
  EXPECT_EQ(next, tiles);
  // And the tile table agrees with the ranges.
  for (std::uint64_t t = 0; t < tiles; ++t) {
    const std::uint32_t s = layout.tile_table()[t];
    ASSERT_LT(s, layout.shard_count());
    EXPECT_GE(t, layout.extent(s).first_tile);
    EXPECT_LT(t, layout.extent(s).first_tile + layout.extent(s).tile_count);
  }
}

TEST(ShardLayout, EveryPointRoutesIncludingOutOfDomain) {
  const ShardLayout layout = build_layout();
  const geo::BBox& d = layout.domain();
  // In-domain, on-boundary, and far-out positions all route (clamped).
  const geo::Vec2 probes[] = {
      {(d.min_x + d.max_x) / 2, (d.min_y + d.max_y) / 2},
      {d.min_x, d.min_y},
      {d.max_x, d.max_y},
      {d.min_x - 40.0, d.min_y - 40.0},
      {d.max_x + 40.0, d.max_y + 40.0},
  };
  for (const geo::Vec2 p : probes) {
    EXPECT_LT(layout.shard_of(p), layout.shard_count());
  }
}

TEST(ShardLayout, OverlapListingNeverMissesAContainedPoint) {
  const ShardLayout layout = build_layout();
  const geo::BBox& d = layout.domain();
  std::mt19937_64 rng(4257);
  std::uniform_real_distribution<double> ux(d.min_x, d.max_x);
  std::uniform_real_distribution<double> uy(d.min_y, d.max_y);
  for (int trial = 0; trial < 200; ++trial) {
    const double x0 = ux(rng), x1 = ux(rng);
    const double y0 = uy(rng), y1 = uy(rng);
    const geo::BBox box{std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
                        std::max(y0, y1)};
    const std::vector<std::uint32_t> touched = layout.shards_overlapping(box);
    // Ascending, deduplicated.
    for (std::size_t i = 1; i < touched.size(); ++i) {
      EXPECT_LT(touched[i - 1], touched[i]);
    }
    const std::set<std::uint32_t> listed(touched.begin(), touched.end());
    for (int probe = 0; probe < 32; ++probe) {
      std::uniform_real_distribution<double> px(box.min_x, box.max_x);
      std::uniform_real_distribution<double> py(box.min_y, box.max_y);
      const geo::Vec2 p{px(rng), py(rng)};
      EXPECT_TRUE(listed.count(layout.shard_of(p)))
          << "contained point routes to unlisted shard";
    }
  }
}

TEST(ShardLayout, InvalidBoxOverlapsNothing) {
  const ShardLayout layout = build_layout();
  const geo::BBox backwards{10.0, 10.0, -10.0, -10.0};
  EXPECT_TRUE(layout.shards_overlapping(backwards).empty());
}

TEST(ShardLayout, AssembleRejectsStructuralLies) {
  const ShardLayout layout = build_layout();
  std::vector<std::uint32_t> table = layout.tile_table();
  std::vector<ShardExtent> extents = layout.extents();
  ShardLayout out;
  ASSERT_TRUE(ShardLayout::assemble(layout.domain(), layout.tiles_x(),
                                    layout.tiles_y(), table, extents, out));
  // A tile claiming the wrong owner contradicts the ranges.
  std::vector<std::uint32_t> bad_table = table;
  bad_table[0] = static_cast<std::uint32_t>(layout.shard_count() - 1);
  EXPECT_FALSE(ShardLayout::assemble(layout.domain(), layout.tiles_x(),
                                     layout.tiles_y(), bad_table, extents,
                                     out));
  // Ranges that no longer partition the grid.
  std::vector<ShardExtent> bad_extents = extents;
  bad_extents[0].tile_count += 1;
  EXPECT_FALSE(ShardLayout::assemble(layout.domain(), layout.tiles_x(),
                                     layout.tiles_y(), table, bad_extents,
                                     out));
  // Non-positive grid dims.
  EXPECT_FALSE(ShardLayout::assemble(layout.domain(), 0, layout.tiles_y(),
                                     table, extents, out));
}

TEST(ShardLayout, BalancerTracksAdaptiveTarget) {
  const ShardedWorld& sw = testing::small_sharded();
  // No shard hoards the corpus: with the adaptive target, the largest
  // shard stays within a small multiple of the ideal share.
  const std::uint64_t total = sw.total_points();
  const std::uint64_t ideal = total / sw.shard_count();
  for (std::size_t s = 0; s < sw.shard_count(); ++s) {
    EXPECT_LE(sw.shard(s).n(), 4 * ideal + 1)
        << "shard " << s << " absorbed a disproportionate share";
  }
}

TEST(ShardLayout, LocalGridDimsAreClampedAndDeterministic) {
  int cols = 0, rows = 0;
  local_grid_dims(0, {0, 0, 1, 1}, cols, rows);
  EXPECT_GE(cols, 1);
  EXPECT_GE(rows, 1);
  local_grid_dims(50'000'000, {-125, 24, -66, 50}, cols, rows);
  EXPECT_LE(cols, 4096);
  EXPECT_LE(rows, 4096);
  int cols2 = 0, rows2 = 0;
  local_grid_dims(50'000'000, {-125, 24, -66, 50}, cols2, rows2);
  EXPECT_EQ(cols, cols2);
  EXPECT_EQ(rows, rows2);
}

}  // namespace
}  // namespace fa::shard
