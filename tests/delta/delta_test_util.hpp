// Shared scaffolding for the delta suite: small worlds (reusing the
// serve suite's scenario shapes), their sharded views, and a chain that
// advances a shard-native view (shard::apply_delta) and the
// reference_apply oracle over the same batches, with the comparisons
// between the two.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "delta/apply.hpp"
#include "delta/feed.hpp"
#include "reference_apply.hpp"
#include "shard/apply.hpp"
#include "shard/codec.hpp"
#include "../core/world_dump.hpp"
#include "../serve/serve_test_util.hpp"

namespace fa::delta::testing {

using serve::testing::layout_name;
using serve::testing::test_layouts;

// One world per test binary; every caller shares the same build (world
// generation dominates test runtime).
inline const core::World& small_world() {
  static const core::World* world = new core::World(
      core::World::build(serve::testing::small_config()));
  return *world;
}

inline const core::ProviderRiskResult& small_risk() {
  static const core::ProviderRiskResult* risk =
      new core::ProviderRiskResult(core::run_provider_risk(small_world()));
  return *risk;
}

inline shard::ShardedWorld small_view(const shard::LayoutOptions& layout) {
  return shard::ShardedWorld::from_world(small_world(), small_risk(), layout);
}

// The canonical dump of `world` with `risk` beside it.
inline std::string encode(const core::World& world,
                          const core::ProviderRiskResult& risk) {
  return core::testing::dump_world(world, risk);
}

// A shard-native view and the oracle's world, both starting at
// small_world() and advanced batch by batch in lockstep.
struct Chain {
  shard::ShardedWorld view;
  ReferenceEpoch reference;
  std::size_t quarantined = 0;
  std::size_t batches_applied = 0;

  explicit Chain(const shard::LayoutOptions& layout)
      : view(small_view(layout)),
        reference{small_world(), small_risk(), {}} {}

  // Applies `batch` both ways. Returns the shard-native stats, or the
  // shard-native Status when the apply fails; the two sides must fail
  // alike and agree on every ApplyStats field.
  fault::Result<ApplyStats> apply(std::span<const FeedEvent> batch,
                                  const ApplyOptions& options = {}) {
    auto got = shard::apply_delta(view, batch, options);
    auto want = reference_apply(reference.world, batch, options);
    EXPECT_EQ(got.ok(), want.ok())
        << "shard apply: "
        << (got.ok() ? "ok" : got.status().to_string())
        << "; oracle: " << (want.ok() ? "ok" : want.status().to_string());
    if (!got.ok()) return got.status();
    if (!want.ok()) return want.status();
    shard::Successor next = std::move(got).take();
    EXPECT_EQ(next.stats, want.value().stats)
        << "ApplyStats diverged from the oracle";
    view = std::move(next.world);
    reference = std::move(want).take();
    quarantined += next.stats.quarantined;
    ++batches_applied;
    return next.stats;
  }
};

// Drives `ticks` rounds of feed -> ingest -> apply through a Chain.
// Asserts nothing beyond Chain::apply's own checks; the caller compares
// the final epochs as the test demands.
inline Chain run_chain(const shard::LayoutOptions& layout,
                       const FeedOptions& feed_options, std::size_t ticks) {
  Chain chain(layout);
  FeedGenerator gen(small_world(), feed_options);
  FeedIngestor ingestor;
  for (std::size_t i = 0; i < ticks; ++i) {
    auto cleaned = ingestor.ingest(gen.tick());
    if (cleaned.ok()) (void)chain.apply(cleaned.value());
  }
  return chain;
}

// A shard-native epoch against the oracle's: encode_sharded against a
// from-scratch cut of the oracle's world over the same layout, and the
// canonical dump of the materialized world (both carry the
// provider-risk aggregate). Compared with EXPECT_TRUE so a mismatch
// does not print two multi-MB images.
inline void expect_matches_reference(const shard::ShardedWorld& view,
                                     const ReferenceEpoch& reference) {
  EXPECT_TRUE(shard::encode_sharded(view) ==
              shard::encode_sharded(shard::ShardedWorld::from_world(
                  reference.world, reference.risk, view.layout())))
      << "encode_sharded diverged from a from-scratch cut of the oracle";
  auto world = view.materialize();
  ASSERT_TRUE(world.ok()) << world.status().to_string();
  EXPECT_TRUE(encode(world.value(), view.provider_risk()) ==
              encode(reference.world, reference.risk))
      << "dump of the materialized view diverged from the oracle";
}

inline void expect_matches_reference(const Chain& chain) {
  expect_matches_reference(chain.view, chain.reference);
}

}  // namespace fa::delta::testing
