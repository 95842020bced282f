// Shard-native delta apply equivalence: shard::apply_delta must equal the
// from-scratch reference derivation — materialize the base, fold the
// batch and rebuild through reference_apply, re-shard the result from
// scratch over the base's layout — in encode_sharded bytes,
// provider-risk aggregate and every ApplyStats field, while rewriting
// only the pages the batch touches and sharing every other page (and
// every untouched shard) with the base.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "delta/apply.hpp"
#include "delta/feed.hpp"
#include "serve/server.hpp"
#include "shard/apply.hpp"
#include "shard/codec.hpp"
#include "shard_test_util.hpp"
#include "../delta/reference_apply.hpp"

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
  auto applied =
      delta::testing::reference_apply(world.value(), events, options);
  if (!applied.ok()) return applied.status();
  const delta::testing::ReferenceEpoch& r = applied.value();
  return Reference{ShardedWorld::from_world(r.world, r.risk, base.layout()),
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
Successor apply_checked(const ShardedWorld& base,
                               std::span<const delta::FeedEvent> events,
                               const std::string& what,
                               const delta::ApplyOptions& options = {}) {
  auto want = reference(base, events, options);
  EXPECT_TRUE(want.ok()) << what << ": " << want.status().to_string();
  auto got = apply_delta(base, events, options);
  EXPECT_TRUE(got.ok()) << what << ": " << got.status().to_string();
  if (!want.ok() || !got.ok()) return {};
  Successor out = std::move(got).take();
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
    Successor next = apply_checked(view, cleaned.value(), what);
    if (::testing::Test::HasFailure()) return retires;
    retires += next.stats.retires;
    EXPECT_EQ(gen.alive(), next.world.total_points()) << what;
    view = std::move(next.world);
  }
  return retires;
}

// The k-th transceiver of shard s in bin order: its dense id (what feed
// events target) and position, read off the shard pages.
struct Member {
  std::uint32_t id = 0;
  geo::LonLat pos;
};
Member member(const ShardedWorld& view, std::size_t s, std::size_t k) {
  const Shard& sh = view.shard(s);
  for (std::size_t p = 0; p < sh.page_count(); ++p) {
    const Page& pg = sh.page(p);
    if (k < pg.n()) {
      const std::uint32_t at = pg.begin() + static_cast<std::uint32_t>(k);
      return {view.dense_id(pg.ids[at]), {pg.xs[at], pg.ys[at]}};
    }
    k -= pg.n();
  }
  ADD_FAILURE() << "shard " << s << " has no entry " << k;
  return {};
}

// Whether two pages view the same storage: every column, ids included,
// pointer-equal.
bool same_storage(const Page& a, const Page& b) {
  return a.cell_start.data() == b.cell_start.data() &&
         a.ids.data() == b.ids.data() && a.xs.data() == b.xs.data() &&
         a.ys.data() == b.ys.data() && a.cls.data() == b.cls.data() &&
         a.provider.data() == b.provider.data() &&
         a.county.data() == b.county.data();
}

// (shard, page) of every successor page whose storage is not the base's.
std::vector<std::pair<std::size_t, std::size_t>> rewritten_pages(
    const ShardedWorld& base, const ShardedWorld& next) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t s = 0; s < next.shard_count(); ++s) {
    const Shard& a = base.shard(s);
    const Shard& b = next.shard(s);
    for (std::size_t p = 0; p < b.page_count(); ++p) {
      if (p >= a.page_count() || !same_storage(a.page(p), b.page(p))) {
        out.push_back({s, p});
      }
    }
  }
  return out;
}

// Whether shard s keeps its local grid dims when its membership changes
// by `delta` (so an edit there rewrites pages, not the whole shard).
bool dims_hold(const ShardedWorld& view, std::size_t s, int delta) {
  const Shard& sh = view.shard(s);
  int cols = 0;
  int rows = 0;
  local_grid_dims(sh.n() + delta, sh.bounds, cols, rows);
  return cols == sh.cols && rows == sh.rows;
}

// The page of shard s holding local position `pos`.
std::size_t page_at(const ShardedWorld& view, std::size_t s,
                    geo::LonLat pos) {
  const Shard& sh = view.shard(s);
  const std::size_t cell =
      static_cast<std::size_t>(sh.row_of(pos.lat)) * sh.cols +
      static_cast<std::size_t>(sh.col_of(pos.lon));
  return cell / kPageCells;
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

// The dirty regions `events`' hazard edits leave on `view`'s surface:
// the regions both the shard apply and the oracle scan.
std::vector<geo::BBox> dirty_regions_of(
    const ShardedWorld& view, std::span<const delta::FeedEvent> events) {
  delta::ApplyStats stats;
  auto staged =
      delta::Applier::stage(events, view.total_points(), {}, stats);
  EXPECT_TRUE(staged.ok()) << staged.status().to_string();
  if (!staged.ok()) return {};
  return delta::Applier::patch_whp(view.whp_ptr(), staged.value().whp_edits,
                                   stats)
      .dirty_regions;
}

bool in_any(const std::vector<geo::BBox>& regions, geo::Vec2 at) {
  return std::ranges::any_of(
      regions, [at](const geo::BBox& r) { return r.contains(at); });
}

// Positions of every transceiver of `view` that `keep` accepts, by a
// brute-force walk over every page.
template <class Keep>
std::vector<geo::Vec2> positions_where(const ShardedWorld& view, Keep keep) {
  std::vector<geo::Vec2> out;
  for (const Shard& sh : view.shards()) {
    for (std::size_t p = 0; p < sh.page_count(); ++p) {
      const Page& pg = sh.page(p);
      for (std::uint32_t k = pg.begin(); k < pg.end(); ++k) {
        const geo::Vec2 at{pg.xs[k], pg.ys[k]};
        if (keep(at)) out.push_back(at);
      }
    }
  }
  return out;
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

TEST(ShardApply, OneAddRewritesExactlyOnePage) {
  const ShardedWorld& view = small_sharded();
  std::size_t s = 0;
  while (s < view.shard_count() &&
         (view.shard(s).n() == 0 || !dims_hold(view, s, +1))) {
    ++s;
  }
  ASSERT_LT(s, view.shard_count()) << "every shard re-bins on one add";
  const Member at = member(view, s, view.shard(s).n() / 2);
  const std::vector<delta::FeedEvent> batch{add_at(0, at.pos, 77)};
  const Successor next = apply_checked(view, batch, "one add");
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(next.shards.rebuilt, 1u);
  EXPECT_EQ(next.shards.pages_rewritten, 1u);
  EXPECT_EQ(next.shards.pages_shared + 1, [&view] {
    std::size_t pages = 0;
    for (const Shard& sh : view.shards()) pages += sh.page_count();
    return pages;
  }());
  const auto rewritten = rewritten_pages(view, next.world);
  ASSERT_EQ(rewritten.size(), 1u)
      << "every page but the add's keeps its storage, ids included";
  EXPECT_EQ(rewritten[0].first, s);
  EXPECT_EQ(rewritten[0].second, page_at(view, s, at.pos));
  for (std::size_t t = 0; t < view.shard_count(); ++t) {
    if (t != s) {
      EXPECT_EQ(next.world.shard(t).pages, view.shard(t).pages)
          << "shard " << t << " must share its whole page table";
    }
  }
}

TEST(ShardApply, OneRetireRewritesOnePageAndNoOtherShardsIds) {
  // A retire leaves a tombstone: the survivors keep their stable ids, so
  // no other page — in this shard or any other — rewrites its ids.
  const ShardedWorld& view = small_sharded();
  std::size_t s = 0;
  while (s < view.shard_count() &&
         (view.shard(s).n() == 0 || !dims_hold(view, s, -1))) {
    ++s;
  }
  ASSERT_LT(s, view.shard_count()) << "every shard re-bins on one retire";
  const Member victim = member(view, s, view.shard(s).n() / 3);
  delta::FeedEvent retire = make_event(0, delta::EventKind::kRetireTransceiver);
  retire.target = victim.id;
  const std::vector<delta::FeedEvent> batch{retire};
  const Successor next = apply_checked(view, batch, "one retire");
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(next.shards.rebuilt, 1u);
  EXPECT_EQ(next.shards.shared, view.shard_count() - 1);
  EXPECT_EQ(next.shards.pages_rewritten, 1u);
  const auto rewritten = rewritten_pages(view, next.world);
  ASSERT_EQ(rewritten.size(), 1u);
  EXPECT_EQ(rewritten[0].first, s);
  EXPECT_EQ(rewritten[0].second, page_at(view, s, victim.pos));
  EXPECT_EQ(next.world.tombstones(), 1u);

  // A second retire chains off the tombstoned view (its dense ids are
  // the survivors' ranks) and still matches.
  delta::FeedEvent again = make_event(1, delta::EventKind::kRetireTransceiver);
  again.target = victim.id;  // now names the survivor after the victim
  const std::vector<delta::FeedEvent> second{again};
  const Successor after =
      apply_checked(next.world, second, "retire over a tombstone");
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(after.world.tombstones(), 2u);
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
  const Successor next = apply_checked(view, cleaned.value(), "sparse tick");
  ASSERT_FALSE(HasFailure());
  ASSERT_GT(next.shards.shared, 0u) << "sparse batch still dirtied every shard";
  std::size_t pointer_shared = 0;
  for (std::size_t s = 0; s < next.world.shard_count(); ++s) {
    if (next.world.shard(s).pages == view.shard(s).pages) ++pointer_shared;
  }
  EXPECT_EQ(pointer_shared, next.shards.shared)
      << "shards.shared must mean actual storage reuse, not a recount";
  EXPECT_EQ(rewritten_pages(view, next.world).size(),
            next.shards.pages_rewritten)
      << "pages_rewritten must count pages whose storage changed";
}

TEST(ShardApply, ApplyOverOpenedContainerSharesTheMapping) {
  // A delta landing on a zero-copy cold-started view: every page the
  // batch did not rewrite must keep pointing into the container — ids
  // included, even though the batch retires.
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
  std::vector<delta::FeedEvent> batch = cleaned.value();
  ASSERT_FALSE(batch.empty());
  delta::FeedEvent retire =
      make_event(batch.back().seq + 1, delta::EventKind::kRetireTransceiver);
  retire.target = static_cast<std::uint32_t>(base.total_points() - 1);
  batch.push_back(retire);
  const Successor next = apply_checked(base, batch, "mmap");
  ASSERT_FALSE(HasFailure());
  ASSERT_GT(next.stats.retires, 0u);
  ASSERT_GT(next.shards.shared, 0u);
  std::size_t viewing = 0;
  std::size_t pages_viewing = 0;
  for (std::size_t s = 0; s < next.world.shard_count(); ++s) {
    const Shard& sh = next.world.shard(s);
    bool all_in = true;
    for (std::size_t p = 0; p < sh.page_count(); ++p) {
      const Page& pg = sh.page(p);
      if (!in_container(pg.xs.data())) {
        all_in = false;
        continue;
      }
      ++pages_viewing;
      EXPECT_TRUE(in_container(pg.cls.data())) << "shard " << s;
      EXPECT_TRUE(in_container(pg.ids.data())) << "shard " << s;
    }
    viewing += all_in;
  }
  EXPECT_EQ(viewing, next.shards.shared);
  EXPECT_EQ(pages_viewing, next.shards.pages_shared);
}

TEST(ShardApply, MoveAcrossShardsMatches) {
  const ShardedWorld& view = small_sharded();
  ASSERT_GE(view.shard_count(), 2u);
  ASSERT_GT(view.shard(0).n(), 0u);
  const std::size_t to_shard = view.shard_count() - 1;
  ASSERT_GT(view.shard(to_shard).n(), 0u);
  ASSERT_TRUE(dims_hold(view, 0, -1));
  ASSERT_TRUE(dims_hold(view, to_shard, +1));
  const Member mover = member(view, 0, view.shard(0).n() / 2);
  const Member landmark = member(view, to_shard, 0);
  ASSERT_EQ(view.layout().shard_of(landmark.pos.as_vec()), to_shard);
  delta::FeedEvent move = make_event(0, delta::EventKind::kMoveTransceiver);
  move.target = mover.id;
  move.txr.position = landmark.pos;
  const std::vector<delta::FeedEvent> batch{move};
  const Successor next = apply_checked(view, batch, "cross-shard move");
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(next.world.shard(0).n(), view.shard(0).n() - 1);
  EXPECT_EQ(next.world.shard(to_shard).n(), view.shard(to_shard).n() + 1);
  EXPECT_EQ(next.shards.rebuilt, 2u);
  EXPECT_EQ(next.shards.pages_rewritten, 2u) << "source and destination page";
  EXPECT_EQ(rewritten_pages(view, next.world).size(), 2u);
}

TEST(ShardApply, AddsThatChangeLocalGridDimsMatch) {
  // Enough adds into one shard to cross a local_grid_dims step, plus a
  // retire elsewhere, so the re-binned shard carries a tombstoned
  // lineage's stable ids.
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
  const Successor next = apply_checked(view, batch, "dims step");
  ASSERT_FALSE(HasFailure());
  const Shard& grown = next.world.shard(s);
  EXPECT_TRUE(grown.cols != sh.cols || grown.rows != sh.rows);
}

TEST(ShardApply, HazardEditStraddlingAShardEdgeMatches) {
  // A patch box centered on the edge between two horizontally adjacent
  // tiles owned by different shards, and a fire perimeter over the same
  // edge: the dirty regions straddle the shard edge with survivors on
  // both sides, and both shards' survivors must be counted and
  // re-classified exactly as the oracle's containment scan does.
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
      view.shard(sid).query_spans(box, [&](const Page& pg, std::uint32_t b,
                                           std::uint32_t e) {
        for (std::uint32_t k = b; k < e; ++k) {
          if (!box.contains(geo::Vec2{pg.xs[k], pg.ys[k]})) continue;
          (pg.xs[k] < edge ? west : east) += 1;
        }
      });
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
  const std::vector<geo::BBox> regions = dirty_regions_of(view, batch);
  const auto dirty_side = [&](bool west) {
    return positions_where(view, [&](geo::Vec2 at) {
             return (at.x < edge) == west && in_any(regions, at);
           })
        .size();
  };
  const std::size_t dirty_west = dirty_side(true);
  const std::size_t dirty_east = dirty_side(false);
  ASSERT_GT(dirty_west, 0u) << "no dirty survivor west of the edge";
  ASSERT_GT(dirty_east, 0u) << "no dirty survivor east of the edge";
  const Successor next = apply_checked(view, batch, "edge patch");
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(next.stats.whp_cells_changed, 0u);
  EXPECT_EQ(next.stats.dirty_transceivers, dirty_west + dirty_east);
  EXPECT_GE(next.shards.rebuilt, 2u) << "both sides of the edge reclass";
}

TEST(ShardApply, DirtyRegionPastTheLayoutDomainMatches) {
  // A patch over the hazard grid's south-west corner, whose cells reach
  // south of the layout domain: its dirty region does too, and a
  // survivor out there (clamped into an edge shard's edge cells) must be
  // found by the dirty scan exactly as the oracle's containment test
  // finds it.
  const ShardedWorld& view = small_sharded();
  const geo::BBox domain = view.domain();
  delta::FeedEvent patch = make_event(1, delta::EventKind::kWhpPatch);
  patch.patch_box = {domain.min_x - 4.0, domain.min_y - 8.0,
                     domain.min_x + 6.0, domain.min_y + 0.5};
  patch.severity = synth::WhpClass::kVeryHigh;
  const std::vector<delta::FeedEvent> edit{patch};
  const std::vector<geo::BBox> regions = dirty_regions_of(view, edit);
  const auto past = std::ranges::find_if(regions, [&](const geo::BBox& r) {
    return r.min_y < domain.min_y;
  });
  ASSERT_NE(past, regions.end()) << "no dirty region reaches past the domain";
  const geo::LonLat outside{(past->min_x + past->max_x) / 2.0,
                            (past->min_y + domain.min_y) / 2.0};
  ASSERT_FALSE(domain.contains(outside.as_vec()));
  ASSERT_TRUE(past->contains(outside.as_vec()));

  const std::vector<delta::FeedEvent> seed{add_at(0, outside, 41)};
  const Successor seeded = apply_checked(view, seed, "add past the domain");
  ASSERT_FALSE(HasFailure());
  const Successor next =
      apply_checked(seeded.world, edit, "region past the domain");
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(next.stats.whp_cells_changed, 0u);
  EXPECT_EQ(next.stats.dirty_transceivers,
            positions_where(seeded.world, [&](geo::Vec2 at) {
              return in_any(regions, at);
            }).size());
  EXPECT_GE(next.stats.dirty_transceivers, 1u);
}

TEST(ShardApply, SurvivorsOnADirtyRegionEdgeMatch) {
  // BBox::contains is closed: survivors exactly on a dirty region's
  // edges and corners are dirty, and survivors one ulp outside are not.
  // The shard scan's exact filter and the oracle must agree on both.
  const ShardedWorld& view = small_sharded();
  const Member anchor = member(view, 2, view.shard(2).n() / 2);
  delta::FeedEvent patch = make_event(100, delta::EventKind::kWhpPatch);
  patch.patch_box = {anchor.pos.lon - 0.3, anchor.pos.lat - 0.3,
                     anchor.pos.lon + 0.3, anchor.pos.lat + 0.3};
  patch.severity = synth::WhpClass::kVeryHigh;
  const std::vector<delta::FeedEvent> edit{patch};
  const std::vector<geo::BBox> regions = dirty_regions_of(view, edit);
  ASSERT_EQ(regions.size(), 1u) << "one patch, one changed region";
  const geo::BBox r = regions.front();
  const double mid_x = (r.min_x + r.max_x) / 2.0;
  const double mid_y = (r.min_y + r.max_y) / 2.0;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<geo::LonLat> on_edge{
      {r.min_x, mid_y}, {r.max_x, mid_y}, {mid_x, r.min_y},
      {mid_x, r.max_y}, {r.min_x, r.min_y}, {r.max_x, r.max_y}};
  const std::vector<geo::LonLat> just_outside{
      {std::nextafter(r.min_x, -inf), mid_y},
      {std::nextafter(r.max_x, inf), mid_y},
      {mid_x, std::nextafter(r.min_y, -inf)},
      {mid_x, std::nextafter(r.max_y, inf)}};
  std::vector<delta::FeedEvent> seed;
  for (const auto* group : {&on_edge, &just_outside}) {
    for (const geo::LonLat& at : *group) {
      seed.push_back(add_at(seed.size(), at,
                            static_cast<std::uint32_t>(600 + seed.size())));
    }
  }
  const std::size_t inside_before =
      positions_where(view, [&r](geo::Vec2 at) { return r.contains(at); })
          .size();

  const Successor seeded = apply_checked(view, seed, "adds on a region's edge");
  ASSERT_FALSE(HasFailure());
  const Successor next =
      apply_checked(seeded.world, edit, "patch over the edge adds");
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(next.stats.dirty_transceivers, inside_before + on_edge.size());
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
  const Successor next = apply_checked(view, batch, "quarantine");
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(next.stats.quarantined, 4u);
  EXPECT_EQ(next.stats.retires, 1u);
  EXPECT_EQ(next.stats.adds, 1u);
}

TEST(ShardApply, RetireHeavyChainCompactsAndServesLikeMonolithic) {
  // Retire-dominated ticks: tombstones cross the 1/8 compaction
  // threshold mid-chain, every tick still matches the reference, and a
  // small-layout Server fed the chain answers like a default-layout one
  // — top-K ids (dense at the edge) included.
  delta::FeedOptions feed_options;
  feed_options.seed = 907;
  feed_options.events_per_tick_mean = 640.0;
  feed_options.w_retire = 24.0;
  ShardedWorld view(small_sharded());
  serve::Server mono(serve::testing::small_config());
  serve::ServerOptions sharded;
  sharded.shard_layout = testing::small_layout();
  serve::Server shrd(serve::testing::small_config(), sharded);
  delta::FeedGenerator gen(small_world(), feed_options);
  delta::FeedIngestor ingestor;
  std::size_t compactions = 0;
  for (int tick = 0; tick < 20; ++tick) {
    auto cleaned = ingestor.ingest(gen.tick());
    ASSERT_TRUE(cleaned.ok());
    const std::string what = "retire-heavy tick " + std::to_string(tick);
    Successor next = apply_checked(view, cleaned.value(), what);
    ASSERT_FALSE(HasFailure()) << what;
    compactions += next.shards.compacted;
    if (next.shards.compacted) {
      EXPECT_EQ(next.world.tombstones(), 0u) << what;
    }
    view = std::move(next.world);
    ASSERT_TRUE(mono.apply_delta(cleaned.value()).ok()) << what;
    ASSERT_TRUE(shrd.apply_delta(cleaned.value()).ok()) << what;
  }
  EXPECT_GE(compactions, 1u) << "the chain never crossed the threshold";
  EXPECT_GT(view.tombstones(), 0u) << "end between compactions";
  EXPECT_EQ(encode_sharded(view),
            encode_sharded(shrd.snapshots().acquire()->sharded()));
  const std::vector<serve::testing::AnyQuery> stream =
      serve::testing::make_stream(200, 61);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(serve::testing::ask(mono, stream[i]) ==
                serve::testing::ask(shrd, stream[i]))
        << "query " << i << " diverged after the retire-heavy chain";
  }
}

TEST(ShardApply, CorruptIdColumnsFailTheFirstApplyClosed) {
  // The first apply over a lineage root builds the lineage index, and
  // that pass rejects id columns that repeat or go out of range.
  const auto tampered = [](auto&& edit) {
    auto owned = std::make_shared<std::string>(testing::small_image());
    auto opened = open_sharded(owned->data(), owned->size(), owned, "ids");
    EXPECT_TRUE(opened.ok());
    ShardedWorld view = std::move(opened).take();
    const Shard& sh = view.shard(0);
    std::size_t p = 0;
    while (sh.page(p).n() < 2) ++p;
    const Page& pg = sh.page(p);
    const auto at = [&](std::uint32_t k) {
      return owned->data() +
             (reinterpret_cast<const char*>(&pg.ids[k]) - owned->data());
    };
    edit(pg, at);
    return std::make_pair(std::move(owned), std::move(view));
  };
  const std::vector<delta::FeedEvent> batch{
      add_at(0, member(small_sharded(), 1, 0).pos, 5)};

  const auto [range_bytes, out_of_range] =
      tampered([](const Page& pg, const auto& at) {
        const std::uint32_t bad = 0xfffffff0u;
        std::memcpy(at(pg.begin()), &bad, sizeof bad);
      });
  auto got = apply_delta(out_of_range, batch);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code, fault::ErrCode::kOutOfRange);
  EXPECT_EQ(got.status().source, delta::kApplySite);

  const auto [twice_bytes, twice] =
      tampered([](const Page& pg, const auto& at) {
        const std::uint32_t first = pg.ids[pg.begin()];
        std::memcpy(at(pg.begin() + 1), &first, sizeof first);
      });
  got = apply_delta(twice, batch);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code, fault::ErrCode::kSchema);
  EXPECT_EQ(got.status().source, delta::kApplySite);
}

TEST(ShardLiveIds, RankAndSelectMatchABruteForceSetAcrossChunks) {
  // Retires spread over several 64 Ki-id chunks (one emptied whole) and
  // adds that open a new chunk: rank and select must agree with a plain
  // list of the live ids, and a successor must leave its base untouched.
  constexpr std::uint32_t kN = 200'000;
  std::vector<std::uint32_t> retired;
  for (std::uint32_t id = 0; id < kN; ++id) {
    if (id % 13 == 7 || (id >= 65'536 && id < 131'072)) retired.push_back(id);
  }
  const auto check = [](const LiveIds& live, std::uint64_t end,
                        const std::vector<std::uint8_t>& dead) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < end; ++id) {
      if (!dead[id]) ids.push_back(id);
    }
    ASSERT_EQ(live.end(), end);
    ASSERT_EQ(live.count(), ids.size());
    for (std::uint32_t d = 0; d < ids.size(); ++d) {
      ASSERT_EQ(live.select(d), ids[d]) << "dense " << d;
      ASSERT_EQ(live.rank(ids[d]), d) << "stable " << ids[d];
    }
    for (std::uint32_t id = 0; id < end; ++id) {
      ASSERT_EQ(live.contains(id), dead[id] == 0) << "stable " << id;
    }
  };
  const LiveIds first = LiveIds::all(kN).edited(retired, 70'000);
  std::vector<std::uint8_t> dead(kN + 70'000, 0);
  for (const std::uint32_t id : retired) dead[id] = 1;
  check(first, kN + 70'000, dead);

  const std::vector<std::uint32_t> more{0, 200'001, 269'999};
  const LiveIds second = first.edited(more, 5);
  std::vector<std::uint8_t> dead2 = dead;
  for (const std::uint32_t id : more) dead2[id] = 1;
  dead2.resize(kN + 70'005, 0);
  check(second, kN + 70'005, dead2);
  check(first, kN + 70'000, dead);
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
