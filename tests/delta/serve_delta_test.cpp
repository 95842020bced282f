// Server::apply_delta — the incremental sibling of rebuild(): epoch
// publication, survivability on injected failure, snapshot structure
// sharing, and the store integration (delta log appends, cold-start
// replay to the exact serving bytes, log disengagement after rebuild).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "delta/feed.hpp"
#include "fault/injector.hpp"
#include "serve/server.hpp"
#include "store/codec.hpp"
#include "../serve/serve_test_util.hpp"
#include "../store/store_test_util.hpp"

namespace fa::serve {
namespace {

using store::testing::TempDir;
using testing::tiny_config;

std::size_t count_increments(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".fad") ++n;
  }
  return n;
}

std::string serving_bytes(const Server& server) {
  const auto snap = server.snapshots().acquire();
  return store::encode_world(snap->world(), snap->provider_risk());
}

// One ingested feed batch derived from the serving epoch.
std::vector<delta::FeedEvent> next_batch(const Server& server,
                                         delta::FeedGenerator& gen,
                                         delta::FeedIngestor& ingestor) {
  auto cleaned = ingestor.ingest(gen.tick());
  EXPECT_TRUE(cleaned.ok());
  return cleaned.ok() ? std::move(cleaned).take()
                      : std::vector<delta::FeedEvent>{};
}

TEST(ServeDelta, ApplyPublishesNextEpoch) {
  Server server(tiny_config());
  ASSERT_EQ(server.epoch(), 1u);
  const auto feed_root = server.snapshots().acquire();
  delta::FeedGenerator gen(feed_root->world(), {});
  delta::FeedIngestor ingestor;
  const std::vector<delta::FeedEvent> batch =
      next_batch(server, gen, ingestor);
  ASSERT_FALSE(batch.empty());
  delta::ApplyStats stats;
  const fault::Status status = server.apply_delta(batch, &stats);
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(server.epoch(), 2u);
  EXPECT_EQ(stats.events, batch.size());
  EXPECT_GT(stats.dirty_transceivers + stats.whp_cells_changed, 0u);
  // Queries now answer from the delta-built epoch.
  const PointRiskResponse r =
      server.point_risk(PointRiskQuery{{-105.0, 40.0}, 0.0});
  EXPECT_EQ(r.epoch, 2u);
}

TEST(ServeDelta, InjectedFailureKeepsServingEpoch) {
  Server server(tiny_config());
  const std::string before = serving_bytes(server);
  const auto feed_root = server.snapshots().acquire();
  delta::FeedGenerator gen(feed_root->world(), {});
  delta::FeedIngestor ingestor;
  const std::vector<delta::FeedEvent> batch =
      next_batch(server, gen, ingestor);
  ASSERT_FALSE(batch.empty());

  fault::ScopedInjector arm(
      fault::Injector::parse("seed=2,delta.apply=1").take());
  const fault::Status status = server.apply_delta(batch);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code, fault::ErrCode::kInjected);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(serving_bytes(server), before);
}

TEST(ServeDelta, SnapshotsShareUntouchedLayers) {
  Server server(tiny_config());
  const auto base = server.snapshots().acquire();
  delta::FeedEvent retire;
  retire.seq = 0;
  retire.kind = delta::EventKind::kRetireTransceiver;
  retire.target = 1;
  const std::vector<delta::FeedEvent> batch{retire};
  ASSERT_TRUE(server.apply_delta(batch).ok());
  const auto next = server.snapshots().acquire();
  ASSERT_NE(base.get(), next.get());
  // Corpus-only delta: WHP raster and county map are the same
  // allocations across epochs, not equal copies.
  EXPECT_EQ(next->world().whp_ptr().get(), base->world().whp_ptr().get());
  EXPECT_EQ(next->world().counties_ptr().get(),
            base->world().counties_ptr().get());
  EXPECT_EQ(next->world().corpus().size(),
            base->world().corpus().size() - 1);
}

// The store-backed cases run once per layout: the Server's lifecycle is
// one path, so the log contracts must hold however the view is cut.
ServerOptions store_options(const std::string& dir,
                            const shard::LayoutOptions& layout) {
  ServerOptions options;
  options.store_dir = dir;
  options.shard_layout = layout;
  return options;
}

TEST(ServeDelta, ColdStartReplaysChainToServingBytes) {
  for (const shard::LayoutOptions& layout : testing::test_layouts()) {
    SCOPED_TRACE(testing::layout_name(layout));
    TempDir tmp;
    const ServerOptions options = store_options(tmp.path, layout);
    std::string final_bytes;
    {
      Server server(tiny_config(), options);
      ASSERT_TRUE(server.save_snapshot().ok());
      const auto feed_root = server.snapshots().acquire();
      delta::FeedGenerator gen(feed_root->world(), {});
      delta::FeedIngestor ingestor;
      for (int tick = 0; tick < 3; ++tick) {
        const std::vector<delta::FeedEvent> batch =
            next_batch(server, gen, ingestor);
        ASSERT_FALSE(batch.empty());
        ASSERT_TRUE(server.apply_delta(batch).ok()) << "tick " << tick;
      }
      EXPECT_EQ(count_increments(tmp.path), 3u);
      final_bytes = serving_bytes(server);
    }
    // Cold start: image + 3-increment chain replay, no fresh build.
    Server revived(tiny_config(), options);
    EXPECT_TRUE(revived.loaded_from_store());
    EXPECT_EQ(revived.epoch(), 1u);
    EXPECT_EQ(serving_bytes(revived), final_bytes);
    // The revived log continues the chain instead of restarting it.
    const auto revived_root = revived.snapshots().acquire();
    delta::FeedGenerator gen(revived_root->world(), {});
    delta::FeedIngestor ingestor;
    const std::vector<delta::FeedEvent> batch =
        next_batch(revived, gen, ingestor);
    ASSERT_TRUE(revived.apply_delta(batch).ok());
    EXPECT_EQ(revived.epoch(), 2u);
    EXPECT_EQ(count_increments(tmp.path), 4u);
  }
}

TEST(ServeDelta, SaveSnapshotRerootsChain) {
  for (const shard::LayoutOptions& layout : testing::test_layouts()) {
    SCOPED_TRACE(testing::layout_name(layout));
    TempDir tmp;
    const ServerOptions options = store_options(tmp.path, layout);
    Server server(tiny_config(), options);
    ASSERT_TRUE(server.save_snapshot().ok());
    const auto feed_root = server.snapshots().acquire();
    delta::FeedGenerator gen(feed_root->world(), {});
    delta::FeedIngestor ingestor;
    ASSERT_TRUE(
        server.apply_delta(next_batch(server, gen, ingestor)).ok());
    ASSERT_TRUE(
        server.apply_delta(next_batch(server, gen, ingestor)).ok());
    ASSERT_EQ(count_increments(tmp.path), 2u);
    // Committing the serving state supersedes the old chain: stale
    // increments prune, and the next delta starts a chain on the new
    // image.
    ASSERT_TRUE(server.save_snapshot().ok());
    EXPECT_EQ(count_increments(tmp.path), 0u);
    ASSERT_TRUE(
        server.apply_delta(next_batch(server, gen, ingestor)).ok());
    EXPECT_EQ(count_increments(tmp.path), 1u);
    const std::string final_bytes = serving_bytes(server);
    Server revived(tiny_config(), options);
    EXPECT_TRUE(revived.loaded_from_store());
    EXPECT_EQ(serving_bytes(revived), final_bytes);
  }
}

TEST(ServeDelta, RebuildDisengagesLog) {
  for (const shard::LayoutOptions& layout : testing::test_layouts()) {
    SCOPED_TRACE(testing::layout_name(layout));
    TempDir tmp;
    Server server(tiny_config(), store_options(tmp.path, layout));
    ASSERT_TRUE(server.save_snapshot().ok());
    // rebuild() publishes a from-scratch world: the serving state no
    // longer derives from the committed generation, so subsequent deltas
    // must NOT append to that generation's chain (replaying them over
    // the old image would fabricate a different world than served).
    ASSERT_TRUE(server.rebuild(tiny_config()).ok());
    const auto feed_root = server.snapshots().acquire();
    delta::FeedGenerator gen(feed_root->world(), {});
    delta::FeedIngestor ingestor;
    ASSERT_TRUE(
        server.apply_delta(next_batch(server, gen, ingestor)).ok());
    EXPECT_EQ(count_increments(tmp.path), 0u);
    // save_snapshot() re-roots; appending resumes on the new image.
    ASSERT_TRUE(server.save_snapshot().ok());
    ASSERT_TRUE(
        server.apply_delta(next_batch(server, gen, ingestor)).ok());
    EXPECT_EQ(count_increments(tmp.path), 1u);
  }
}

TEST(ServeDelta, NoStoreConfiguredStillApplies) {
  Server server(tiny_config());
  const auto feed_root = server.snapshots().acquire();
  delta::FeedGenerator gen(feed_root->world(), {});
  delta::FeedIngestor ingestor;
  ASSERT_TRUE(
      server.apply_delta(next_batch(server, gen, ingestor)).ok());
  EXPECT_EQ(server.epoch(), 2u);
}

}  // namespace
}  // namespace fa::serve
