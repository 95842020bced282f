// The tentpole contract: a view advanced by shard::apply_delta is
// byte-identical — encode_sharded, the canonical dump of its
// materialized world, AND a golden query battery — to the from-scratch
// rebuild of the same final state (reference_apply), under the default
// layout and a small one. Randomized across seeds so the property
// covers arbitrary event interleavings, not one hand-picked script.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "delta/apply.hpp"
#include "delta/feed.hpp"
#include "delta_test_util.hpp"
#include "synth/rng.hpp"

namespace fa::delta {
namespace {

using testing::Chain;
using testing::encode;
using testing::expect_matches_reference;
using testing::layout_name;
using testing::run_chain;
using testing::small_risk;
using testing::small_world;
using testing::test_layouts;

// The "golden query battery" of the acceptance criteria: every serving
// read path exercised against both worlds, answers compared exactly.
void expect_query_battery_identical(const core::World& delta_built,
                                    const core::World& rebuilt,
                                    const core::ProviderRiskResult& d_risk,
                                    const core::ProviderRiskResult& r_risk,
                                    std::uint64_t seed) {
  ASSERT_EQ(delta_built.corpus().size(), rebuilt.corpus().size());
  const index::GridIndex& di = delta_built.txr_index();
  const index::GridIndex& ri = rebuilt.txr_index();
  synth::Rng rng(seed * 1315423911ull + 17);
  for (int probe = 0; probe < 32; ++probe) {
    // Lon/lat boxes over CONUS, the index's coordinates.
    const double cx = rng.uniform(-124.0, -67.0);
    const double cy = rng.uniform(25.0, 49.0);
    const double half = rng.uniform(0.05, 3.0);
    const geo::BBox box{cx - half, cy - half, cx + half, cy + half};
    EXPECT_EQ(di.query_ids(box), ri.query_ids(box)) << "probe " << probe;
    EXPECT_EQ(di.nearest({cx, cy}, 5), ri.nearest({cx, cy}, 5))
        << "probe " << probe;
  }
  for (std::uint32_t id = 0; id < delta_built.corpus().size();
       id += 97) {
    EXPECT_EQ(delta_built.txr_class(id), rebuilt.txr_class(id))
        << "id " << id;
  }
  for (std::size_t p = 0; p < d_risk.rows.size(); ++p) {
    EXPECT_EQ(d_risk.rows[p].fleet, r_risk.rows[p].fleet);
    EXPECT_EQ(d_risk.rows[p].moderate, r_risk.rows[p].moderate);
    EXPECT_EQ(d_risk.rows[p].high, r_risk.rows[p].high);
    EXPECT_EQ(d_risk.rows[p].very_high, r_risk.rows[p].very_high);
  }
  EXPECT_EQ(d_risk.regional_brands_at_risk, r_risk.regional_brands_at_risk);
}

// All three comparisons of a chain's final epochs.
void expect_chain_matches(const Chain& chain, std::uint64_t seed) {
  expect_matches_reference(chain);
  auto world = chain.view.materialize();
  ASSERT_TRUE(world.ok()) << world.status().to_string();
  expect_query_battery_identical(world.value(), chain.reference.world,
                                 chain.view.provider_risk(),
                                 chain.reference.risk, seed);
}

TEST(Equivalence, DeltaBuiltEpochMatchesFromScratchRebuild) {
  for (const shard::LayoutOptions& layout : test_layouts()) {
    for (const std::uint64_t seed : {1ull, 7ull, 23ull, 101ull, 4099ull}) {
      SCOPED_TRACE(std::string(layout_name(layout)) + ", seed " +
                   std::to_string(seed));
      FeedOptions options;
      options.seed = seed;
      const Chain chain = run_chain(layout, options, 3);
      ASSERT_EQ(chain.batches_applied, 3u);
      expect_chain_matches(chain, seed);
    }
  }
}

TEST(Equivalence, LongerChainStillMatches) {
  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    FeedOptions options;
    options.seed = 555;
    options.events_per_tick_mean = 64;
    const Chain chain = run_chain(layout, options, 8);
    ASSERT_EQ(chain.batches_applied, 8u);
    expect_chain_matches(chain, options.seed);
  }
}

TEST(Equivalence, ApplyIsDeterministic) {
  FeedOptions options;
  options.seed = 31;
  const Chain a = run_chain({}, options, 3);
  const Chain b = run_chain({}, options, 3);
  EXPECT_TRUE(shard::encode_sharded(a.view) == shard::encode_sharded(b.view));
}

TEST(Equivalence, EmptyBatchIsIdentity) {
  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    Chain chain(layout);
    const shard::ShardedWorld base = chain.view;
    auto applied = chain.apply({});
    ASSERT_TRUE(applied.ok()) << applied.status().to_string();
    EXPECT_EQ(applied.value().events, 0u);
    EXPECT_EQ(chain.view.whp_ptr().get(), base.whp_ptr().get());
    EXPECT_TRUE(shard::encode_sharded(chain.view) ==
                shard::encode_sharded(base));
    expect_matches_reference(chain);
    auto world = chain.view.materialize();
    ASSERT_TRUE(world.ok());
    EXPECT_TRUE(encode(world.value(), chain.view.provider_risk()) ==
                encode(small_world(), small_risk()));
  }
}

TEST(Equivalence, StructureSharingOnCorpusOnlyBatches) {
  // Add/retire/move never touch WHP or counties — those layers must be
  // the SAME allocation, not equal copies.
  std::vector<FeedEvent> batch;
  FeedEvent add;
  add.seq = 0;
  add.kind = EventKind::kAddTransceiver;
  add.txr.position = {-105.1, 39.9};
  add.txr.radio = cellnet::RadioType::kLte;
  add.txr.mcc = 310;
  add.txr.mnc = 410;
  add.txr.cell_id = 987654;
  batch.push_back(add);
  FeedEvent retire;
  retire.seq = 1;
  retire.kind = EventKind::kRetireTransceiver;
  retire.target = 3;
  batch.push_back(retire);
  FeedEvent move;
  move.seq = 2;
  move.kind = EventKind::kMoveTransceiver;
  move.target = 11;
  move.txr.position = {-104.8, 40.1};
  batch.push_back(move);

  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    Chain chain(layout);
    const shard::ShardedWorld base = chain.view;
    ASSERT_TRUE(chain.apply(batch).ok());
    EXPECT_EQ(chain.view.whp_ptr().get(), base.whp_ptr().get());
    EXPECT_EQ(chain.view.counties_ptr().get(), base.counties_ptr().get());
    EXPECT_EQ(chain.view.whp_ptr().get(), small_world().whp_ptr().get());
    expect_matches_reference(chain);
  }
}

TEST(Equivalence, CountiesAlwaysSharedEvenWhenWhpChanges) {
  FeedEvent patch;
  patch.seq = 0;
  patch.kind = EventKind::kWhpPatch;
  patch.patch_box = {-106.0, 39.0, -105.0, 40.0};
  patch.severity = synth::WhpClass::kVeryHigh;
  const std::vector<FeedEvent> batch{patch};
  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    Chain chain(layout);
    const shard::ShardedWorld base = chain.view;
    auto applied = chain.apply(batch);
    ASSERT_TRUE(applied.ok());
    EXPECT_GT(applied.value().whp_cells_changed, 0u);
    EXPECT_NE(chain.view.whp_ptr().get(), base.whp_ptr().get());
    EXPECT_EQ(chain.view.counties_ptr().get(), base.counties_ptr().get());
    // ...and the mutated-WHP view still matches a from-scratch rebuild.
    expect_matches_reference(chain);
  }
}

}  // namespace
}  // namespace fa::delta
