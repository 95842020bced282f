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
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace fa::delta {
namespace {

using testing::Chain;
using testing::expect_matches_reference;
using testing::layout_name;
using testing::small_world;
using testing::test_layouts;

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

TEST(FeedIngestor, EventsCounterCountsEachRawEventOnce) {
  // delta.feed.events counts the raw events the ingestor saw (after the
  // delta.feed seam), once: it must equal the sum of the four
  // disposition counters and the raw batch sizes, with lookback
  // duplicates and the seam's duplicated, reordered and mangled records
  // in the stream.
  const bool obs_was = obs::enabled();
  obs::set_enabled(true);
  {
    obs::ScopedRegistry scoped;
    FeedOptions options;
    options.seed = 61;
    options.duplicate_fraction = 0.5;
    FeedGenerator gen(small_world(), options);
    FeedIngestor ingestor;
    auto injector = fault::Injector::parse("seed=9,delta.feed=0.2");
    ASSERT_TRUE(injector.ok()) << injector.status().to_string();
    std::uint64_t raw_events = 0;
    for (int tick = 0; tick < 12; ++tick) {
      std::vector<FeedEvent> raw = gen.tick();
      fault::ScopedInjector arm(injector.value());
      std::vector<FeedEvent> seen = raw;
      corrupt_feed_stage(seen);  // the batch the armed ingestor sees
      raw_events += seen.size();
      ASSERT_TRUE(ingestor.ingest(std::move(raw)).ok());
    }
    obs::Registry& reg = scoped.registry();
    const auto counter = [&reg](std::string_view name) {
      return reg.counter(name).value();
    };
    const IngestStats& stats = ingestor.stats();
    EXPECT_GT(stats.duplicates, 0u);
    EXPECT_GT(stats.malformed, 0u);
    EXPECT_EQ(stats.accepted + stats.duplicates + stats.stale +
                  stats.malformed,
              raw_events);
    EXPECT_EQ(counter(obs::metrics::kDeltaFeedAccepted) +
                  counter(obs::metrics::kDeltaFeedDuplicates) +
                  counter(obs::metrics::kDeltaFeedStale) +
                  counter(obs::metrics::kDeltaFeedMalformed),
              raw_events);
    EXPECT_EQ(counter(obs::metrics::kDeltaFeedEvents), raw_events)
        << "delta.feed.events must count each raw event once";
  }
  obs::set_enabled(obs_was);
}

TEST(FeedChain, StrictPolicyAcceptsEveryGeneratedTarget) {
  // The generator mirrors the successor epochs' dense ids; if that
  // mirror ever drifted, a retire/move would reference a dead or
  // out-of-range id and this strict chain would fail the batch.
  ApplyOptions strict;
  strict.policy = fault::RecoveryPolicy::kStrict;
  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    FeedOptions options;
    options.seed = 77;
    FeedGenerator gen(small_world(), options);
    FeedIngestor ingestor;
    Chain chain(layout);
    for (int tick = 0; tick < 5; ++tick) {
      auto cleaned = ingestor.ingest(gen.tick());
      ASSERT_TRUE(cleaned.ok());
      auto applied = chain.apply(cleaned.value(), strict);
      ASSERT_TRUE(applied.ok())
          << "tick " << tick << ": " << applied.status().to_string();
      EXPECT_EQ(applied.value().quarantined, 0u);
      EXPECT_EQ(gen.alive(), chain.view.total_points())
          << "generator mirror diverged at tick " << tick;
    }
    expect_matches_reference(chain);
  }
}

TEST(FeedChain, MoveOriginsTrackTheAppliedEpoch) {
  // The generator never re-densifies its mirror (tombstoned slots plus
  // per-block live counts stand in for it), so check the dense-id ->
  // position mapping itself: a move lands within a few noise sigmas
  // (0.01 deg lon, 0.008 deg lat) of where the applied epoch has its
  // target. A churn-heavy dense feed crosses many slot blocks and
  // appends new ones.
  ApplyOptions strict;
  strict.policy = fault::RecoveryPolicy::kStrict;
  for (const shard::LayoutOptions& layout : test_layouts()) {
    SCOPED_TRACE(layout_name(layout));
    FeedOptions options;
    options.seed = 123;
    options.events_per_tick_mean = 96.0;
    options.w_retire = 4.0;
    options.w_move = 4.0;
    FeedGenerator gen(small_world(), options);
    FeedIngestor ingestor;
    Chain chain(layout);
    std::size_t moves = 0;
    for (int tick = 0; tick < 30; ++tick) {
      auto cleaned = ingestor.ingest(gen.tick());
      ASSERT_TRUE(cleaned.ok());
      auto positions = chain.view.positions_by_id();
      ASSERT_TRUE(positions.ok()) << positions.status().to_string();
      for (const FeedEvent& e : cleaned.value()) {
        if (e.kind != EventKind::kMoveTransceiver) continue;
        ASSERT_LT(e.target, positions.value().size());
        const geo::LonLat at = positions.value()[e.target];
        EXPECT_LT(std::abs(e.txr.position.lon - at.lon), 0.15)
            << "tick " << tick << " target " << e.target;
        EXPECT_LT(std::abs(e.txr.position.lat - at.lat), 0.12)
            << "tick " << tick << " target " << e.target;
        ++moves;
      }
      auto applied = chain.apply(cleaned.value(), strict);
      ASSERT_TRUE(applied.ok()) << applied.status().to_string();
      ASSERT_EQ(gen.alive(), chain.view.total_points());
    }
    EXPECT_GT(moves, 500u);
    expect_matches_reference(chain);
  }
}

}  // namespace
}  // namespace fa::delta
