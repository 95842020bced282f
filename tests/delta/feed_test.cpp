// FeedGenerator + FeedIngestor: deterministic streams, FIRMS-style
// lookback re-serving, dedup/stale/malformed dispositions, and the
// generator's core promise — every emitted target is valid against the
// epoch its batch applies to (the strict-policy chain accepts 100%).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "delta/apply.hpp"
#include "delta/feed.hpp"
#include "delta_test_util.hpp"

namespace fa::delta {
namespace {

using testing::small_risk;
using testing::small_world;

TEST(FeedGenerator, DeterministicAcrossInstances) {
  FeedOptions options;
  options.seed = 404;
  FeedGenerator a(small_world(), options);
  FeedGenerator b(small_world(), options);
  for (int tick = 0; tick < 4; ++tick) {
    const std::vector<FeedEvent> ea = a.tick();
    const std::vector<FeedEvent> eb = b.tick();
    ASSERT_EQ(ea.size(), eb.size()) << "tick " << tick;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i], eb[i]) << "tick " << tick << " event " << i;
    }
  }
}

TEST(FeedGenerator, DifferentSeedsDiverge) {
  FeedOptions a_opts;
  a_opts.seed = 1;
  FeedOptions b_opts;
  b_opts.seed = 2;
  FeedGenerator a(small_world(), a_opts);
  FeedGenerator b(small_world(), b_opts);
  const std::vector<FeedEvent> ea = a.tick();
  const std::vector<FeedEvent> eb = b.tick();
  bool differ = ea.size() != eb.size();
  for (std::size_t i = 0; !differ && i < ea.size(); ++i) {
    differ = !(ea[i] == eb[i]);
  }
  EXPECT_TRUE(differ);
}

TEST(FeedGenerator, ReservesLookbackDuplicates) {
  FeedOptions options;
  options.seed = 9;
  options.duplicate_fraction = 0.5;
  FeedGenerator gen(small_world(), options);
  gen.tick();  // warm the window
  std::size_t dup_total = 0;
  for (int tick = 0; tick < 4; ++tick) {
    const std::vector<FeedEvent> batch = gen.tick();
    std::set<std::uint64_t> seqs;
    for (const FeedEvent& e : batch) {
      if (!seqs.insert(e.seq).second) ++dup_total;
    }
    // Re-served events may also come from earlier ticks' windows, so
    // in-batch uniqueness is not guaranteed either way; the stream
    // contract is only that fresh seqs are unique and monotone, checked
    // via next_seq below.
  }
  // With duplicate_fraction = 0.5 and a warm window, re-serving must
  // actually happen across ticks (dedup is the ingestor's job).
  EXPECT_GT(dup_total, 0u);
}

TEST(FeedGenerator, EveryShapeIsValid) {
  FeedOptions options;
  options.seed = 21;
  FeedGenerator gen(small_world(), options);
  for (int tick = 0; tick < 5; ++tick) {
    for (const FeedEvent& e : gen.tick()) {
      EXPECT_TRUE(validate_shape(e).ok())
          << "tick " << tick << " seq " << e.seq;
    }
  }
}

TEST(FeedIngestor, SortsDedupsAndAcceptsFreshEvents) {
  FeedOptions options;
  options.seed = 33;
  options.duplicate_fraction = 0.5;
  FeedGenerator gen(small_world(), options);
  FeedIngestor ingestor;
  std::uint64_t last_watermark = 0;
  for (int tick = 0; tick < 5; ++tick) {
    const std::vector<FeedEvent> raw = gen.tick();
    std::set<std::uint64_t> fresh;
    for (const FeedEvent& e : raw) {
      if (e.seq >= last_watermark) fresh.insert(e.seq);
    }
    auto cleaned = ingestor.ingest(raw);
    ASSERT_TRUE(cleaned.ok());
    // Exactly the fresh seqs, in strictly increasing order.
    ASSERT_EQ(cleaned.value().size(), fresh.size()) << "tick " << tick;
    std::uint64_t prev = 0;
    bool first = true;
    for (const FeedEvent& e : cleaned.value()) {
      EXPECT_TRUE(fresh.count(e.seq));
      if (!first) {
        EXPECT_GT(e.seq, prev);
      }
      prev = e.seq;
      first = false;
    }
    last_watermark = ingestor.watermark();
  }
  EXPECT_EQ(ingestor.stats().malformed, 0u);
  EXPECT_GT(ingestor.stats().duplicates, 0u);
}

TEST(FeedIngestor, ReingestingABatchDropsEverySeq) {
  FeedOptions options;
  options.seed = 55;
  FeedGenerator gen(small_world(), options);
  FeedIngestor ingestor;
  const std::vector<FeedEvent> raw = gen.tick();
  auto first = ingestor.ingest(raw);
  ASSERT_TRUE(first.ok());
  const std::size_t accepted = first.value().size();
  ASSERT_GT(accepted, 0u);
  auto second = ingestor.ingest(raw);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().empty());
  EXPECT_GE(ingestor.stats().duplicates, accepted);
}

TEST(FeedIngestor, StaleEventsBehindLookbackDrop) {
  IngestOptions options;
  options.lookback_span = 10;
  FeedIngestor ingestor(options);
  FeedEvent recent;
  recent.kind = EventKind::kRetireTransceiver;
  recent.target = 1;
  recent.seq = 100;
  std::vector<FeedEvent> batch{recent};
  ASSERT_TRUE(ingestor.ingest(batch).ok());
  ASSERT_EQ(ingestor.watermark(), 101u);

  FeedEvent stale = recent;
  stale.seq = 80;  // behind watermark - lookback_span = 91
  FeedEvent ok = recent;
  ok.seq = 95;  // within the window, unseen -> accepted
  std::vector<FeedEvent> late{stale, ok};
  auto cleaned = ingestor.ingest(late);
  ASSERT_TRUE(cleaned.ok());
  ASSERT_EQ(cleaned.value().size(), 1u);
  EXPECT_EQ(cleaned.value()[0].seq, 95u);
  EXPECT_EQ(ingestor.stats().stale, 1u);
}

TEST(FeedIngestor, MalformedStrictFailsQuarantineDrops) {
  FeedEvent bad;
  bad.kind = EventKind::kAddTransceiver;
  bad.txr.position = {500.0, 40.0};
  bad.seq = 7;
  FeedEvent good;
  good.kind = EventKind::kRetireTransceiver;
  good.target = 3;
  good.seq = 8;
  const std::vector<FeedEvent> batch{bad, good};

  IngestOptions strict;
  strict.policy = fault::RecoveryPolicy::kStrict;
  FeedIngestor s(strict);
  auto failed = s.ingest(batch);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().offset, 7u);

  fault::Diagnostics diag;
  IngestOptions quarantine;
  quarantine.diagnostics = &diag;
  FeedIngestor q(quarantine);
  auto cleaned = q.ingest(batch);
  ASSERT_TRUE(cleaned.ok());
  ASSERT_EQ(cleaned.value().size(), 1u);
  EXPECT_EQ(cleaned.value()[0].seq, 8u);
  EXPECT_EQ(q.stats().malformed, 1u);
  EXPECT_EQ(diag.total_dropped(), 1u);
}

TEST(FeedChain, StrictPolicyAcceptsEveryGeneratedTarget) {
  // The generator mirrors the Applier's re-densification; if that
  // mirror ever drifted, a retire/move would reference a dead or
  // out-of-range id and this strict chain would fail the batch.
  FeedOptions options;
  options.seed = 77;
  FeedGenerator gen(small_world(), options);
  FeedIngestor ingestor;
  core::World world = small_world();
  core::ProviderRiskResult risk = small_risk();
  for (int tick = 0; tick < 5; ++tick) {
    auto cleaned = ingestor.ingest(gen.tick());
    ASSERT_TRUE(cleaned.ok());
    ApplyOptions apply_options;
    apply_options.policy = fault::RecoveryPolicy::kStrict;
    auto applied =
        Applier::apply(world, risk, cleaned.value(), apply_options);
    ASSERT_TRUE(applied.ok())
        << "tick " << tick << ": " << applied.status().to_string();
    ApplyResult result = std::move(applied).take();
    EXPECT_EQ(result.stats.quarantined, 0u);
    EXPECT_EQ(gen.alive(), result.world.corpus().size())
        << "generator mirror diverged at tick " << tick;
    world = std::move(result.world);
    risk = std::move(result.provider_risk);
  }
}

TEST(FeedChain, MoveOriginsTrackTheAppliedEpoch) {
  // The generator never re-densifies its mirror (tombstoned slots plus
  // per-block live counts stand in for it), so check the dense-id ->
  // position mapping itself: a move lands within a few noise sigmas
  // (0.01 deg lon, 0.008 deg lat) of where the applied epoch has its
  // target. A churn-heavy dense feed crosses many slot blocks and
  // appends new ones.
  FeedOptions options;
  options.seed = 123;
  options.events_per_tick_mean = 96.0;
  options.w_retire = 4.0;
  options.w_move = 4.0;
  FeedGenerator gen(small_world(), options);
  FeedIngestor ingestor;
  core::World world = small_world();
  core::ProviderRiskResult risk = small_risk();
  std::size_t moves = 0;
  for (int tick = 0; tick < 30; ++tick) {
    auto cleaned = ingestor.ingest(gen.tick());
    ASSERT_TRUE(cleaned.ok());
    for (const FeedEvent& e : cleaned.value()) {
      if (e.kind != EventKind::kMoveTransceiver) continue;
      ASSERT_LT(e.target, world.corpus().size());
      const geo::LonLat at = world.corpus().transceivers()[e.target].position;
      EXPECT_LT(std::abs(e.txr.position.lon - at.lon), 0.15)
          << "tick " << tick << " target " << e.target;
      EXPECT_LT(std::abs(e.txr.position.lat - at.lat), 0.12)
          << "tick " << tick << " target " << e.target;
      ++moves;
    }
    ApplyOptions strict;
    strict.policy = fault::RecoveryPolicy::kStrict;
    auto applied = Applier::apply(world, risk, cleaned.value(), strict);
    ASSERT_TRUE(applied.ok()) << applied.status().to_string();
    ApplyResult result = std::move(applied).take();
    ASSERT_EQ(gen.alive(), result.world.corpus().size());
    world = std::move(result.world);
    risk = std::move(result.provider_risk);
  }
  EXPECT_GT(moves, 500u);
}

}  // namespace
}  // namespace fa::delta
