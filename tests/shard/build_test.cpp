// The World-free sharded build (ShardedWorld::build, what
// serve::Snapshot::build runs): its FASHRD01 bytes equal the cut of a
// built core::World at several corpus scales, under two layouts and the
// degraded-ingest policies with the ingest.txr seam armed; Strict fails
// with World::build's Status; materialize() round-trips through the
// FASNAP01 codec to World::build's bytes; and an ordering property —
// sharing no code with the builder — checks every entry's shard, cell
// and position in its shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/provider_risk.hpp"
#include "fault/injector.hpp"
#include "index/grid_index.hpp"
#include "shard/codec.hpp"
#include "shard/world.hpp"
#include "store/access.hpp"
#include "store/codec.hpp"
#include "shard_test_util.hpp"

namespace fa::shard {
namespace {

using testing::small_layout;

constexpr double kScales[] = {1000.0, 100.0, 16.0};

synth::ScenarioConfig config_at(double scale) {
  synth::ScenarioConfig cfg = serve::testing::small_config();
  cfg.corpus_scale = scale;
  return cfg;
}

std::vector<LayoutOptions> layouts() { return serve::testing::test_layouts(); }

const char* policy_name(fault::RecoveryPolicy policy) {
  switch (policy) {
    case fault::RecoveryPolicy::kStrict: return "strict";
    case fault::RecoveryPolicy::kQuarantine: return "quarantine";
    case fault::RecoveryPolicy::kBestEffort: return "best-effort";
  }
  return "?";
}

void expect_same_diagnostics(const fault::Diagnostics& a,
                             const fault::Diagnostics& b) {
  EXPECT_EQ(a.total_dropped(), b.total_dropped());
  EXPECT_EQ(a.total_repaired(), b.total_repaired());
  EXPECT_EQ(a.total_reported(), b.total_reported());
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_EQ(a.records()[i].status.to_string(),
              b.records()[i].status.to_string());
  }
}

// Builds the world and the view for one (scale, policy) under the armed
// seam, and checks bytes, counts and diagnostics for every layout.
void expect_build_matches_world(double scale, fault::RecoveryPolicy policy,
                                const char* faults) {
  SCOPED_TRACE(std::string("scale ") + std::to_string(scale) + ", " +
               policy_name(policy) + ", faults '" + faults + "'");
  std::optional<fault::ScopedInjector> arm;
  if (*faults != '\0') arm.emplace(fault::Injector::parse(faults).take());
  const synth::ScenarioConfig cfg = config_at(scale);
  fault::Diagnostics world_diag;
  auto world = core::World::build(cfg, {policy, &world_diag});
  ASSERT_TRUE(world.ok()) << world.status().to_string();
  const core::ProviderRiskResult risk = core::run_provider_risk(world.value());
  for (const LayoutOptions& layout : layouts()) {
    fault::Diagnostics build_diag;
    auto built = ShardedWorld::build(cfg, {policy, &build_diag}, layout);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    // EXPECT_TRUE, not EXPECT_EQ: a mismatch must not print two images.
    EXPECT_TRUE(encode_sharded(built.value()) ==
                encode_sharded(
                    ShardedWorld::from_world(world.value(), risk, layout)))
        << "FASHRD01 bytes differ from from_world(World::build)'s";
    EXPECT_EQ(built.value().ingest_dropped(), world.value().ingest_dropped());
    EXPECT_EQ(built.value().ingest_repaired(),
              world.value().ingest_repaired());
    expect_same_diagnostics(build_diag, world_diag);
  }
}

TEST(ShardBuild, BytesEqualTheCutOfABuiltWorld) {
  for (const double scale : kScales) {
    expect_build_matches_world(scale, fault::RecoveryPolicy::kQuarantine, "");
  }
}

TEST(ShardBuild, DegradedIngestMatchesWorldBuild) {
  // The seam corrupts ~0.3% of records: Quarantine drops them,
  // BestEffort clamps the finite ones and drops the rest.
  for (const double scale : kScales) {
    for (const fault::RecoveryPolicy policy :
         {fault::RecoveryPolicy::kQuarantine,
          fault::RecoveryPolicy::kBestEffort}) {
      expect_build_matches_world(scale, policy, "seed=7,ingest.txr=0.003");
    }
  }
}

TEST(ShardBuild, StrictFailsWithWorldBuildStatus) {
  const fault::ScopedInjector arm(
      fault::Injector::parse("seed=7,ingest.txr=0.003").take());
  const synth::ScenarioConfig cfg = config_at(100.0);
  const core::World::BuildOptions strict{fault::RecoveryPolicy::kStrict,
                                         nullptr};
  auto world = core::World::build(cfg, strict);
  ASSERT_FALSE(world.ok());
  auto built = ShardedWorld::build(cfg, strict, small_layout());
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().to_string(), world.status().to_string());
  EXPECT_EQ(built.status().source, "ingest.txr");
}

TEST(ShardBuild, SynthFaultFailsWithWorldBuildStatus) {
  const fault::ScopedInjector arm(
      fault::Injector::parse("seed=3,synth.corpus=1").take());
  const synth::ScenarioConfig cfg = config_at(1000.0);
  auto world = core::World::build(cfg, {});
  ASSERT_FALSE(world.ok());
  auto built = ShardedWorld::build(cfg, {}, LayoutOptions{});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().to_string(), world.status().to_string());
}

TEST(ShardBuild, MaterializeRoundTripsToWorldBuildBytes) {
  const fault::ScopedInjector arm(
      fault::Injector::parse("seed=11,ingest.txr=0.002").take());
  for (const double scale : kScales) {
    for (const fault::RecoveryPolicy policy :
         {fault::RecoveryPolicy::kQuarantine,
          fault::RecoveryPolicy::kBestEffort}) {
      SCOPED_TRACE(std::to_string(scale) + " " + policy_name(policy));
      const synth::ScenarioConfig cfg = config_at(scale);
      auto world = core::World::build(cfg, {policy, nullptr});
      ASSERT_TRUE(world.ok());
      const std::string want = store::encode_world(
          world.value(), core::run_provider_risk(world.value()));
      for (const LayoutOptions& layout : layouts()) {
        auto built = ShardedWorld::build(cfg, {policy, nullptr}, layout);
        ASSERT_TRUE(built.ok());
        auto materialized = built.value().materialize();
        ASSERT_TRUE(materialized.ok()) << materialized.status().to_string();
        EXPECT_TRUE(store::encode_world(materialized.value(),
                                        built.value().provider_risk()) ==
                    want)
            << "materialized world encodes unlike World::build's";
      }
    }
  }
}

// Independent of the builder: every entry sits in the shard the layout
// routes its position to, and each shard's entries are in the order —
// and its cells hold the counts — of an index::GridIndex built over the
// shard's members in ascending id order on the shard's local grid.
TEST(ShardBuild, EntriesSitInTheirShardInCellThenIdOrder) {
  for (const double scale : {100.0, 16.0}) {
    for (const LayoutOptions& options : layouts()) {
      auto built = ShardedWorld::build(config_at(scale), {}, options);
      ASSERT_TRUE(built.ok());
      const ShardedWorld& view = built.value();
      std::vector<std::uint8_t> seen(view.total_points(), 0);
      for (std::size_t s = 0; s < view.shard_count(); ++s) {
        const Shard& sh = view.shard(s);
        // The shard's entries in page order, and its per-cell counts.
        std::vector<std::uint32_t> order;
        std::vector<std::uint32_t> counts;
        std::vector<std::pair<std::uint32_t, geo::Vec2>> members;
        for (std::size_t p = 0; p < sh.page_count(); ++p) {
          const Page& pg = sh.page(p);
          for (std::size_t j = 0; j + 1 < pg.cell_start.size(); ++j) {
            counts.push_back(pg.cell_start[j + 1] - pg.cell_start[j]);
          }
          for (std::uint32_t k = pg.begin(); k < pg.end(); ++k) {
            const geo::Vec2 pos{pg.xs[k], pg.ys[k]};
            ASSERT_EQ(view.layout().shard_of(pos), s);
            ASSERT_LT(pg.ids[k], seen.size());
            ASSERT_EQ(seen[pg.ids[k]], 0) << "id held twice";
            seen[pg.ids[k]] = 1;
            order.push_back(pg.ids[k]);
            members.emplace_back(pg.ids[k], pos);
          }
        }
        std::ranges::sort(members, {}, &std::pair<std::uint32_t,
                                                  geo::Vec2>::first);
        const geo::BBox& bounds = view.layout().extent(s).bounds;
        int cols = 0;
        int rows = 0;
        local_grid_dims(members.size(), bounds, cols, rows);
        ASSERT_EQ(sh.cols, cols);
        ASSERT_EQ(sh.rows, rows);
        std::vector<geo::Vec2> points;
        for (const auto& m : members) points.push_back(m.second);
        const index::GridIndex local(std::move(points), bounds, cols, rows);
        const std::span<const std::uint32_t> binned = local.binned_ids();
        ASSERT_EQ(order.size(), binned.size());
        for (std::size_t k = 0; k < order.size(); ++k) {
          ASSERT_EQ(order[k], members[binned[k]].first)
              << "shard " << s << " entry " << k << " out of (cell, id) order";
        }
        const std::vector<std::uint32_t>& starts =
            store::Access::cell_start(local);
        ASSERT_EQ(counts.size() + 1, starts.size());
        for (std::size_t c = 0; c < counts.size(); ++c) {
          ASSERT_EQ(counts[c], starts[c + 1] - starts[c]) << "cell " << c;
        }
      }
      for (const std::uint8_t s : seen) ASSERT_EQ(s, 1) << "id missing";
    }
  }
}

}  // namespace
}  // namespace fa::shard
