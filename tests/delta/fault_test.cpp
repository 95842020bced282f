// Fault-injection seams in the delta path. The "delta.feed" stage
// corrupts the raw stream (duplicates, out-of-order arrivals, mangled
// records) deterministically, so tests can predict the damage and prove
// quarantine equivalence: a shard-native view fed hostile input
// converges to the oracle's world fed the manually pre-filtered stream.
// "delta.apply" proves the apply stage fails closed, leaving the base
// epoch intact.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "delta/apply.hpp"
#include "delta/feed.hpp"
#include "delta_test_util.hpp"
#include "fault/injector.hpp"

namespace fa::delta {
namespace {

using testing::Chain;
using testing::expect_matches_reference;
using testing::layout_name;
using testing::reference_apply;
using testing::ReferenceEpoch;
using testing::small_risk;
using testing::small_view;
using testing::small_world;
using testing::test_layouts;

fault::Injector make_injector(const std::string& spec) {
  auto injector = fault::Injector::parse(spec);
  EXPECT_TRUE(injector.ok()) << injector.status().to_string();
  return std::move(injector).take();
}

TEST(FeedFault, CorruptionStageIsPredictable) {
  // Run the exposed stage on our own copy: ingest() under the same
  // armed injector must make the exact same per-seq decisions.
  FeedOptions options;
  options.seed = 5;
  FeedGenerator gen(small_world(), options);
  const std::vector<FeedEvent> raw = gen.tick();
  ASSERT_FALSE(raw.empty());

  fault::ScopedInjector arm(make_injector("seed=42,delta.feed=0.5"));
  std::vector<FeedEvent> predicted = raw;
  corrupt_feed_stage(predicted);
  std::vector<FeedEvent> again = raw;
  corrupt_feed_stage(again);
  ASSERT_EQ(predicted.size(), again.size());
  // Canonical-encoding comparison: mangled records carry NaN payloads,
  // which operator== (IEEE semantics) reports unequal even when
  // bit-identical.
  EXPECT_EQ(encode_events(predicted), encode_events(again));
  // At 50% the stage must actually do something to a real batch.
  EXPECT_NE(encode_events(predicted), encode_events(raw));
}

TEST(FeedFault, QuarantineEquivalence) {
  // The view fed the corrupted stream == the oracle fed the clean stream
  // with the would-be-rejected records filtered by hand. Duplicates and
  // reorderings are absorbed by dedup/sort; mangled records quarantine;
  // so the accepted set is identical.
  const std::string spec = "seed=7,delta.feed=0.35";
  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    FeedOptions options;
    options.seed = 12;
    shard::ShardedWorld hostile = small_view(layout);
    ReferenceEpoch clean{small_world(), small_risk(), {}};

    FeedGenerator gen(small_world(), options);
    FeedIngestor hostile_ingestor;  // runs the armed stage inside ingest()
    FeedIngestor clean_ingestor;
    for (int tick = 0; tick < 3; ++tick) {
      const std::vector<FeedEvent> raw = gen.tick();

      std::vector<FeedEvent> cleaned_by_hand;
      {
        // Predict the corruption, then pre-filter: drop every record the
        // validator would reject; keep order/dups for the ingestor.
        fault::ScopedInjector arm(make_injector(spec));
        std::vector<FeedEvent> predicted = raw;
        corrupt_feed_stage(predicted);
        for (const FeedEvent& e : predicted) {
          if (validate_shape(e).ok()) cleaned_by_hand.push_back(e);
        }
      }

      fault::Result<std::vector<FeedEvent>> hostile_batch = [&] {
        fault::ScopedInjector arm(make_injector(spec));
        return hostile_ingestor.ingest(raw);
      }();
      ASSERT_TRUE(hostile_batch.ok());
      auto clean_batch = clean_ingestor.ingest(std::move(cleaned_by_hand));
      ASSERT_TRUE(clean_batch.ok());

      ASSERT_EQ(hostile_batch.value().size(), clean_batch.value().size())
          << "tick " << tick;
      // Encoding comparison: NaN-mangled fire/patch records can survive
      // shape validation (only their irrelevant txr field is mangled),
      // and operator== reports NaN payloads unequal even when identical.
      ASSERT_EQ(encode_events(hostile_batch.value()),
                encode_events(clean_batch.value()))
          << "tick " << tick;

      auto ha = shard::apply_delta(hostile, hostile_batch.value());
      auto ca = reference_apply(clean.world, clean_batch.value());
      ASSERT_TRUE(ha.ok()) << ha.status().to_string();
      ASSERT_TRUE(ca.ok()) << ca.status().to_string();
      EXPECT_EQ(ha.value().stats, ca.value().stats) << "tick " << tick;
      hostile = std::move(ha).take().world;
      clean = std::move(ca).take();
    }
    expect_matches_reference(hostile, clean);
    EXPECT_GT(hostile_ingestor.stats().malformed +
                  hostile_ingestor.stats().duplicates,
              0u);
  }
}

TEST(FeedFault, StrictPolicySurfacesCorruption) {
  FeedOptions options;
  options.seed = 20;
  FeedGenerator gen(small_world(), options);
  IngestOptions strict;
  strict.policy = fault::RecoveryPolicy::kStrict;
  FeedIngestor ingestor(strict);
  fault::ScopedInjector arm(make_injector("seed=3,delta.feed=1"));
  bool failed = false;
  for (int tick = 0; tick < 4 && !failed; ++tick) {
    auto cleaned = ingestor.ingest(gen.tick());
    if (!cleaned.ok()) {
      failed = true;
      EXPECT_EQ(cleaned.status().source, "delta.feed");
    }
  }
  EXPECT_TRUE(failed) << "full-rate corruption never produced a "
                         "malformed record under strict policy";
}

TEST(ApplyFault, InjectedApplyFailureLeavesBaseUntouched) {
  FeedOptions options;
  options.seed = 4;
  FeedGenerator gen(small_world(), options);
  FeedIngestor ingestor;
  auto cleaned = ingestor.ingest(gen.tick());
  ASSERT_TRUE(cleaned.ok());
  ASSERT_FALSE(cleaned.value().empty());

  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    const shard::ShardedWorld base = small_view(layout);
    const std::string before = shard::encode_sharded(base);
    fault::ScopedInjector arm(make_injector("seed=1,delta.apply=1"));
    auto applied = shard::apply_delta(base, cleaned.value());
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code, fault::ErrCode::kInjected);
    EXPECT_EQ(applied.status().source, "delta.apply");
    // The oracle stops at the same seam.
    auto reference = reference_apply(small_world(), cleaned.value());
    ASSERT_FALSE(reference.ok());
    EXPECT_EQ(reference.status().code, fault::ErrCode::kInjected);
    // apply_delta is non-destructive on failure: base still encodes the
    // same.
    EXPECT_TRUE(shard::encode_sharded(base) == before);
  }
}

TEST(ApplyFault, InvalidTargetStrictFailsQuarantineDrops) {
  FeedEvent bogus;
  bogus.seq = 0;
  bogus.kind = EventKind::kRetireTransceiver;
  bogus.target = 0xfffffff0u;  // far out of range
  FeedEvent fine;
  fine.seq = 1;
  fine.kind = EventKind::kRetireTransceiver;
  fine.target = 2;
  const std::vector<FeedEvent> batch{bogus, fine};

  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    Chain chain(layout);
    ApplyOptions strict;
    strict.policy = fault::RecoveryPolicy::kStrict;
    auto failed = chain.apply(batch, strict);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().offset, 0u);

    auto quarantined = chain.apply(batch);
    ASSERT_TRUE(quarantined.ok()) << quarantined.status().to_string();
    EXPECT_EQ(quarantined.value().quarantined, 1u);
    EXPECT_EQ(quarantined.value().retires, 1u);
    EXPECT_EQ(chain.view.total_points(), small_world().corpus().size() - 1);
    expect_matches_reference(chain);
  }
}

TEST(ApplyFault, QuarantineEqualsApplyingOnlyValidSubset) {
  FeedEvent bogus;
  bogus.seq = 5;
  bogus.kind = EventKind::kMoveTransceiver;
  bogus.target = 0xfffffff0u;
  FeedEvent fine;
  fine.seq = 6;
  fine.kind = EventKind::kRetireTransceiver;
  fine.target = 7;
  const std::vector<FeedEvent> full{bogus, fine};
  const std::vector<FeedEvent> valid_only{fine};

  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    Chain a(layout);
    Chain b(layout);
    ASSERT_TRUE(a.apply(full).ok());
    ASSERT_TRUE(b.apply(valid_only).ok());
    EXPECT_TRUE(shard::encode_sharded(a.view) ==
                shard::encode_sharded(b.view));
    expect_matches_reference(a);
  }
}

}  // namespace
}  // namespace fa::delta
