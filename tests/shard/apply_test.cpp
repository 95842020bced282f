// Shard-native delta apply equivalence: shard::apply_delta must equal the
// reference derivation — materialize the base, apply the batch through
// delta::Applier, re-shard the result from scratch over the base's
// layout — in encode_sharded bytes, provider-risk aggregate and every
// ApplyStats field, while sharing untouched shards with the base.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "delta/apply.hpp"
#include "delta/feed.hpp"
#include "shard/apply.hpp"
#include "shard/codec.hpp"
#include "shard_test_util.hpp"

namespace fa::shard {
namespace {

using testing::small_sharded;
using testing::small_world;

struct Reference {
  ShardedWorld world;
  delta::ApplyStats stats;
};

fault::Result<Reference> reference(const ShardedWorld& base,
                                   std::span<const delta::FeedEvent> events,
                                   const delta::ApplyOptions& options = {}) {
  auto world = base.materialize();
  if (!world.ok()) return world.status();
  auto applied = delta::Applier::apply(world.value(), base.provider_risk(),
                                       events, options);
  if (!applied.ok()) return applied.status();
  const delta::ApplyResult& r = applied.value();
  return Reference{
      ShardedWorld::from_world(r.world, r.provider_risk, base.layout()),
      r.stats};
}

bool same_risk(const core::ProviderRiskResult& a,
               const core::ProviderRiskResult& b) {
  for (std::size_t p = 0; p < a.rows.size(); ++p) {
    const core::ProviderRiskRow& x = a.rows[p];
    const core::ProviderRiskRow& y = b.rows[p];
    if (x.provider != y.provider || x.fleet != y.fleet ||
        x.moderate != y.moderate || x.high != y.high ||
        x.very_high != y.very_high) {
      return false;
    }
  }
  return a.regional_brands_at_risk == b.regional_brands_at_risk;
}

// Applies `events` both ways and checks the successor against the
// reference; returns the shard-native result for chaining.
ShardApplyResult apply_checked(const ShardedWorld& base,
                               std::span<const delta::FeedEvent> events,
                               const std::string& what,
                               const delta::ApplyOptions& options = {}) {
  auto want = reference(base, events, options);
  EXPECT_TRUE(want.ok()) << what << ": " << want.status().to_string();
  auto got = apply_delta(base, events, options);
  EXPECT_TRUE(got.ok()) << what << ": " << got.status().to_string();
  if (!want.ok() || !got.ok()) return {};
  ShardApplyResult out = std::move(got).take();
  EXPECT_EQ(encode_sharded(out.world), encode_sharded(want.value().world))
      << what << ": successor diverged from the from-scratch reshard";
  EXPECT_TRUE(same_risk(out.world.provider_risk(),
                        want.value().world.provider_risk()))
      << what << ": provider-risk aggregate diverged";
  EXPECT_EQ(out.stats, want.value().stats) << what << ": ApplyStats diverged";
  EXPECT_EQ(out.shards.rebuilt + out.shards.shared, base.shard_count());
  return out;
}

// Feeds `ticks` generated batches through a chain of shard-native
// applies, checking every epoch; returns the total retires applied.
std::size_t run_checked_chain(const delta::FeedOptions& feed_options,
                              int ticks) {
  ShardedWorld view(small_sharded());
  delta::FeedGenerator gen(small_world(), feed_options);
  delta::FeedIngestor ingestor;
  std::size_t retires = 0;
  for (int tick = 0; tick < ticks; ++tick) {
    auto cleaned = ingestor.ingest(gen.tick());
    EXPECT_TRUE(cleaned.ok());
    if (!cleaned.ok() || cleaned.value().empty()) continue;
    const std::string what = "seed " + std::to_string(feed_options.seed) +
                             " tick " + std::to_string(tick);
    ShardApplyResult next = apply_checked(view, cleaned.value(), what);
    if (::testing::Test::HasFailure()) return retires;
    retires += next.stats.retires;
    EXPECT_EQ(gen.alive(), next.world.total_points()) << what;
    view = std::move(next.world);
  }
  return retires;
}

// A transceiver's base id and position, read off the shard columns.
struct Member {
  std::uint32_t id = 0;
  geo::LonLat pos;
};
Member member(const ShardedWorld& view, std::size_t s, std::size_t k) {
  const Shard& sh = view.shard(s);
  return {sh.ids[k], {sh.xs[k], sh.ys[k]}};
}

delta::FeedEvent make_event(std::uint64_t seq, delta::EventKind kind) {
  delta::FeedEvent e;
  e.seq = seq;
  e.kind = kind;
  return e;
}

delta::FeedEvent add_at(std::uint64_t seq, geo::LonLat pos,
                        std::uint32_t cell_id) {
  delta::FeedEvent e = make_event(seq, delta::EventKind::kAddTransceiver);
  e.txr.position = pos;
  e.txr.mcc = 311;
  e.txr.mnc = 480;
  e.txr.cell_id = cell_id;
  e.txr.state = 4;
  e.txr.radio = cellnet::RadioType::kLte;
  return e;
}

TEST(ShardApply, ChainMatchesFromScratchReshardEveryTick) {
  // Default weights: retires, moves, adds, fires and patches in every
  // tick, eight ticks per seed.
  std::size_t retires = 0;
  for (const std::uint64_t seed : {3u, 11u, 29u, 47u, 83u}) {
    delta::FeedOptions feed_options;
    feed_options.seed = seed;
    retires += run_checked_chain(feed_options, 8);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }
  EXPECT_GT(retires, 0u) << "the chains never retired a transceiver";
}

TEST(ShardApply, DenseFeedChainMatches) {
  delta::FeedOptions feed_options;
  feed_options.seed = 131;
  feed_options.events_per_tick_mean = 64.0;
  EXPECT_GT(run_checked_chain(feed_options, 8), 0u);
}

TEST(ShardApply, RetiringBatchRemapsIdsAndStillMatches) {
  // One retire of the first id renumbers every other transceiver: each
  // shard not otherwise touched shares every column but `ids`.
  const ShardedWorld& view = small_sharded();
  delta::FeedEvent retire = make_event(0, delta::EventKind::kRetireTransceiver);
  retire.target = 0;
  const std::vector<delta::FeedEvent> batch{retire};
  const ShardApplyResult next = apply_checked(view, batch, "retire id 0");
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(next.shards.rebuilt, 1u);
  EXPECT_EQ(next.shards.shared, view.shard_count() - 1);
  for (std::size_t s = 0; s < view.shard_count(); ++s) {
    const Shard& a = view.shard(s);
    const Shard& b = next.world.shard(s);
    if (a.n() != b.n() || a.n() == 0) continue;  // lost id 0, or empty
    EXPECT_EQ(a.xs.data(), b.xs.data()) << "shard " << s;
    EXPECT_EQ(a.cls.data(), b.cls.data()) << "shard " << s;
    EXPECT_NE(a.ids.data(), b.ids.data()) << "shard " << s;
  }
}

TEST(ShardApply, UntouchedShardsShareColumnStorage) {
  const ShardedWorld& view = small_sharded();
  delta::FeedOptions feed_options;
  feed_options.seed = 201;
  feed_options.w_retire = 0.0;
  feed_options.events_per_tick_mean = 4.0;
  delta::FeedGenerator gen(small_world(), feed_options);
  delta::FeedIngestor ingestor;
  auto cleaned = ingestor.ingest(gen.tick());
  ASSERT_TRUE(cleaned.ok());
  ASSERT_FALSE(cleaned.value().empty());
  const ShardApplyResult next =
      apply_checked(view, cleaned.value(), "sparse tick");
  ASSERT_FALSE(HasFailure());
  ASSERT_GT(next.shards.shared, 0u) << "sparse batch still dirtied every shard";
  std::size_t pointer_shared = 0;
  for (std::size_t s = 0; s < next.world.shard_count(); ++s) {
    if (next.world.shard(s).xs.data() == view.shard(s).xs.data()) {
      ++pointer_shared;
    }
  }
  EXPECT_EQ(pointer_shared, next.shards.shared)
      << "shards.shared must mean actual storage reuse, not a recount";
}

TEST(ShardApply, ApplyOverOpenedContainerSharesTheMapping) {
  // A delta landing on a zero-copy cold-started view: every column a
  // shared shard did not rewrite must keep pointing into the container.
  auto owned = std::make_shared<std::string>(testing::small_image());
  auto opened = open_sharded(owned->data(), owned->size(), owned,
                             "apply-over-mmap");
  ASSERT_TRUE(opened.ok());
  const ShardedWorld base = std::move(opened).take();
  const char* begin = owned->data();
  const char* end = begin + owned->size();
  const auto in_container = [&](const void* p) {
    const char* c = static_cast<const char*>(p);
    return c >= begin && c < end;
  };

  delta::FeedOptions feed_options;
  feed_options.seed = 57;
  feed_options.events_per_tick_mean = 4.0;
  delta::FeedGenerator gen(small_world(), feed_options);
  delta::FeedIngestor ingestor;
  auto cleaned = ingestor.ingest(gen.tick());
  ASSERT_TRUE(cleaned.ok());
  ASSERT_FALSE(cleaned.value().empty());
  const ShardApplyResult next = apply_checked(base, cleaned.value(), "mmap");
  ASSERT_FALSE(HasFailure());
  ASSERT_GT(next.shards.shared, 0u);
  std::size_t viewing = 0;
  for (std::size_t s = 0; s < next.world.shard_count(); ++s) {
    const Shard& sh = next.world.shard(s);
    if (!in_container(sh.xs.data())) continue;
    ++viewing;
    EXPECT_TRUE(in_container(sh.cls.data())) << "shard " << s;
    if (next.stats.retires == 0) {
      EXPECT_TRUE(in_container(sh.ids.data())) << "shard " << s;
    }
  }
  EXPECT_EQ(viewing, next.shards.shared);
}

TEST(ShardApply, MoveAcrossShardsMatches) {
  const ShardedWorld& view = small_sharded();
  ASSERT_GE(view.shard_count(), 2u);
  ASSERT_GT(view.shard(0).n(), 0u);
  const std::size_t to_shard = view.shard_count() - 1;
  ASSERT_GT(view.shard(to_shard).n(), 0u);
  const Member mover = member(view, 0, view.shard(0).n() / 2);
  const Member landmark = member(view, to_shard, 0);
  ASSERT_EQ(view.layout().shard_of(landmark.pos.as_vec()), to_shard);
  delta::FeedEvent move = make_event(0, delta::EventKind::kMoveTransceiver);
  move.target = mover.id;
  move.txr.position = landmark.pos;
  const std::vector<delta::FeedEvent> batch{move};
  const ShardApplyResult next = apply_checked(view, batch, "cross-shard move");
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(next.world.shard(0).n(), view.shard(0).n() - 1);
  EXPECT_EQ(next.world.shard(to_shard).n(), view.shard(to_shard).n() + 1);
  EXPECT_EQ(next.shards.rebuilt, 2u);
}

TEST(ShardApply, AddsThatChangeLocalGridDimsMatch) {
  // Enough adds into one shard to cross a local_grid_dims step, plus a
  // retire elsewhere so the re-binned shard's ids are remapped too.
  const ShardedWorld& view = small_sharded();
  const std::size_t s = 1;
  const Shard& sh = view.shard(s);
  std::size_t needed = 0;
  for (std::size_t m = 1; m <= 4000 && needed == 0; ++m) {
    int cols = 0;
    int rows = 0;
    local_grid_dims(sh.n() + m, sh.bounds, cols, rows);
    if (cols != sh.cols || rows != sh.rows) needed = m;
  }
  ASSERT_GT(needed, 0u) << "no dims step within 4000 adds";
  std::vector<delta::FeedEvent> batch;
  delta::FeedEvent retire = make_event(0, delta::EventKind::kRetireTransceiver);
  retire.target = member(view, 0, 0).id;
  batch.push_back(retire);
  for (std::size_t i = 0; i < needed; ++i) {
    // Spread over the shard's own members so every cell stays plausible.
    const Member at = member(view, s, (i * 7919) % sh.n());
    batch.push_back(add_at(1 + i, at.pos, static_cast<std::uint32_t>(i)));
  }
  const ShardApplyResult next = apply_checked(view, batch, "dims step");
  ASSERT_FALSE(HasFailure());
  const Shard& grown = next.world.shard(s);
  EXPECT_TRUE(grown.cols != sh.cols || grown.rows != sh.rows);
}

TEST(ShardApply, HazardEditStraddlingAShardEdgeMatches) {
  // A patch box centered on the edge between two horizontally adjacent
  // tiles owned by different shards, and a fire perimeter over the same
  // edge: both shards' survivors must be re-classified exactly as the
  // global-grid candidate rule does.
  const ShardedWorld& view = small_sharded();
  const ShardLayout& layout = view.layout();
  const auto patch_box = [&layout](std::size_t tile) {
    const geo::BBox box = layout.tile_box(tile);
    const double mid_y = (box.min_y + box.max_y) / 2.0;
    return geo::BBox{box.max_x - 0.8, mid_y - 0.8, box.max_x + 0.8,
                     mid_y + 0.8};
  };
  // The shard edge whose patch box holds the most members on its
  // thinner side.
  std::size_t best_tile = 0;
  std::size_t best_side = 0;
  for (std::size_t tile = 0; tile + 1 < layout.tile_table().size(); ++tile) {
    if ((tile + 1) % static_cast<std::size_t>(layout.tiles_x()) == 0) continue;
    if (layout.tile_table()[tile] == layout.tile_table()[tile + 1]) continue;
    const geo::BBox box = patch_box(tile);
    const double edge = layout.tile_box(tile).max_x;
    std::size_t west = 0;
    std::size_t east = 0;
    for (const std::uint32_t sid : layout.shards_overlapping(box)) {
      const Shard& sh = view.shard(sid);
      for (std::size_t k = 0; k < sh.n(); ++k) {
        if (!box.contains(geo::Vec2{sh.xs[k], sh.ys[k]})) continue;
        (sh.xs[k] < edge ? west : east) += 1;
      }
    }
    if (std::min(west, east) > best_side) {
      best_side = std::min(west, east);
      best_tile = tile;
    }
  }
  ASSERT_GT(best_side, 0u) << "no shard edge populated on both sides";
  const double edge = layout.tile_box(best_tile).max_x;
  const geo::BBox box = patch_box(best_tile);

  delta::FeedEvent patch = make_event(0, delta::EventKind::kWhpPatch);
  patch.patch_box = box;
  patch.severity = synth::WhpClass::kVeryHigh;
  delta::FeedEvent fire = make_event(1, delta::EventKind::kFirePerimeter);
  fire.perimeter = geo::make_circle({edge, box.max_y + 0.7}, 0.6, 24);
  fire.severity = synth::WhpClass::kHigh;
  const std::vector<delta::FeedEvent> batch{patch, fire};
  const ShardApplyResult next = apply_checked(view, batch, "edge patch");
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(next.stats.whp_cells_changed, 0u);
  EXPECT_GT(next.stats.dirty_transceivers, 0u);
  EXPECT_GE(next.shards.rebuilt, 2u) << "both sides of the edge reclass";
}

std::vector<delta::FeedEvent> invalid_batch(const ShardedWorld& view) {
  const std::uint32_t victim = member(view, 2, 3).id;
  std::vector<delta::FeedEvent> batch;
  delta::FeedEvent out_of_range =
      make_event(0, delta::EventKind::kRetireTransceiver);
  out_of_range.target = 0xfffffff0u;
  batch.push_back(out_of_range);
  delta::FeedEvent retire = make_event(1, delta::EventKind::kRetireTransceiver);
  retire.target = victim;
  batch.push_back(retire);
  delta::FeedEvent again = retire;  // retire of a now-dead target
  again.seq = 2;
  batch.push_back(again);
  delta::FeedEvent move_dead = make_event(3, delta::EventKind::kMoveTransceiver);
  move_dead.target = victim;
  move_dead.txr.position = {-100.0, 40.0};
  batch.push_back(move_dead);
  delta::FeedEvent nan_add =
      add_at(4, {std::numeric_limits<double>::quiet_NaN(), 40.0}, 9);
  batch.push_back(nan_add);
  batch.push_back(add_at(5, member(view, 2, 4).pos, 10));
  return batch;
}

TEST(ShardApply, QuarantinedInvalidEventsMatch) {
  const ShardedWorld& view = small_sharded();
  const std::vector<delta::FeedEvent> batch = invalid_batch(view);
  const ShardApplyResult next = apply_checked(view, batch, "quarantine");
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(next.stats.quarantined, 4u);
  EXPECT_EQ(next.stats.retires, 1u);
  EXPECT_EQ(next.stats.adds, 1u);
}

TEST(ShardFeed, GeneratorFromShardColumnsMatchesGeneratorFromWorld) {
  auto positions = small_sharded().positions_by_id();
  ASSERT_TRUE(positions.ok()) << positions.status().to_string();
  delta::FeedOptions feed_options;
  feed_options.seed = 404;
  delta::FeedGenerator from_world(small_world(), feed_options);
  delta::FeedGenerator from_shards(std::move(positions).take(), feed_options);
  for (int tick = 0; tick < 4; ++tick) {
    EXPECT_EQ(delta::encode_events(from_world.tick()),
              delta::encode_events(from_shards.tick()))
        << "tick " << tick;
  }
}

TEST(ShardApply, StrictPolicyFailureProducesNothing) {
  const ShardedWorld& view = small_sharded();
  const std::vector<delta::FeedEvent> batch = invalid_batch(view);
  delta::ApplyOptions strict;
  strict.policy = fault::RecoveryPolicy::kStrict;
  auto want = reference(view, batch, strict);
  ASSERT_FALSE(want.ok());
  auto got = apply_delta(view, batch, strict);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code, want.status().code);
  EXPECT_EQ(got.status().offset, 0u);
  EXPECT_EQ(got.status().source, want.status().source);
}

}  // namespace
}  // namespace fa::shard
