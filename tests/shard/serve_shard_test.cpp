// Server integration for sharded serving: byte-identity across layouts
// through the public front door, FASHRD01 persistence and zero-copy cold
// start, the upgrade path for stores written before serving was
// sharded-only (FASNAP01 plus a delta log), shard-native deltas
// (fail-closed contracts), a whole lifecycle that never builds or
// materializes a monolithic world, degraded serving over a damaged
// store, and epoch purity under concurrent queries while swaps land (the
// TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "delta/feed.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "delta/log.hpp"
#include "serve/server.hpp"
#include "shard/codec.hpp"
#include "store/codec.hpp"
#include "store/format.hpp"
#include "shard_test_util.hpp"
#include "../delta/reference_apply.hpp"

namespace fa::shard {
namespace {

namespace st = fa::serve::testing;
using st::AnyQuery;
using st::AnyResponse;
using st::ask;
using st::epoch_of;
using testing::small_layout;
using testing::TempDir;

serve::ServerOptions sharded_options(const std::string& store_dir = "") {
  serve::ServerOptions options;
  options.shard_layout = small_layout();
  options.store_dir = store_dir;
  return options;
}

std::string serving_image(const serve::Server& server) {
  return encode_sharded(server.snapshots().acquire()->sharded());
}

std::uint64_t swaps_failed(serve::Server& server) {
  return server.registry().counter(obs::metrics::kServeSwapsFailed).value();
}

// The counter checks below need obs on whatever FA_OBS says.
struct ObsOn {
  bool was = obs::enabled();
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was); }
};

// A hand-built batch valid against any non-trivial epoch: retire id 0,
// add one site near Denver.
std::vector<delta::FeedEvent> retire_and_add() {
  delta::FeedEvent retire;
  retire.seq = 0;
  retire.kind = delta::EventKind::kRetireTransceiver;
  retire.target = 0;
  delta::FeedEvent add;
  add.seq = 1;
  add.kind = delta::EventKind::kAddTransceiver;
  add.txr.position = {-104.99, 39.74};
  add.txr.mcc = 310;
  add.txr.mnc = 410;
  return {retire, add};
}

// Flips one byte of the newest committed generation so that exactly one
// shard payload fails its CRC (the frame and globals stay clean).
void damage_one_shard(const std::string& store_dir) {
  auto dir = store::StoreDir::open(store_dir);
  ASSERT_TRUE(dir.ok());
  auto manifest = dir.value().read_manifest();
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest.value().generations.empty());
  const std::string path =
      dir.value().file_path(manifest.value().generations.back().filename);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::string dirty;
  for (std::size_t frac = 3; frac <= 7; ++frac) {
    std::string candidate = bytes;
    const std::size_t at = bytes.size() * frac / 10;
    candidate[at] = static_cast<char>(candidate[at] ^ 0x40);
    auto report = inspect_sharded(candidate.data(), candidate.size(), "probe");
    if (!report.ok() || !report.value().globals_ok) continue;
    std::size_t bad = 0;
    for (const ShardReport& sh : report.value().shards) {
      if (!sh.crc_ok) ++bad;
    }
    if (bad == 1) {
      dirty = std::move(candidate);
      break;
    }
  }
  ASSERT_FALSE(dirty.empty());
  std::ofstream out(path, std::ios::binary);
  out.write(dirty.data(), static_cast<std::streamsize>(dirty.size()));
}

// Commits `world` as a FASNAP01 generation, the way a server built
// before serving was sharded-only persisted its monolithic world.
store::Generation commit_fasnap01(const std::string& store_dir,
                                  const core::World& world) {
  auto dir = store::StoreDir::open(store_dir);
  EXPECT_TRUE(dir.ok());
  auto gen = dir.value().commit(
      store::encode_world(world, core::run_provider_risk(world)));
  EXPECT_TRUE(gen.ok());
  return gen.value();
}

AnyResponse without_epoch(AnyResponse r) {
  std::visit([](auto& response) { response.epoch = 0; }, r);
  return r;
}

TEST(ServeSharded, FrontDoorMatchesMonolithicServer) {
  serve::Server mono(st::small_config());
  serve::Server shrd(st::small_config(), sharded_options());
  const std::vector<AnyQuery> stream = st::make_stream(300, 17);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(ask(mono, stream[i]) == ask(shrd, stream[i]))
        << "query " << i << " diverged through the server front door";
  }
}

TEST(ServeSharded, SaveThenColdStartServesIdenticalAnswers) {
  TempDir tmp;
  const std::vector<AnyQuery> stream = st::make_stream(150, 23);
  std::vector<AnyResponse> before;
  {
    serve::Server server(st::small_config(), sharded_options(tmp.path));
    EXPECT_FALSE(server.loaded_from_store());
    ASSERT_TRUE(server.save_snapshot().ok());
    for (const AnyQuery& q : stream) before.push_back(ask(server, q));
  }
  serve::Server reborn(st::small_config(), sharded_options(tmp.path));
  EXPECT_TRUE(reborn.loaded_from_store());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(before[i] == ask(reborn, stream[i]))
        << "query " << i << " changed across the cold start";
  }
}

// Saves `server`'s serving view and checks the generation the streamed
// commit wrote: byte-equal to encode_sharded's string of the same view,
// and recorded in MANIFEST with its size and crc32 of the file.
store::Generation expect_save_writes_the_view(serve::Server& server,
                                              const std::string& store_dir) {
  const std::shared_ptr<const serve::Snapshot> snap =
      server.snapshots().acquire();
  EXPECT_TRUE(server.save_snapshot().ok());
  auto dir = store::StoreDir::open(store_dir);
  EXPECT_TRUE(dir.ok());
  auto manifest = dir.value().read_manifest();
  EXPECT_TRUE(manifest.ok());
  if (!manifest.ok()) return {};
  const store::Generation gen = manifest.value().generations.back();
  std::ifstream in(dir.value().file_path(gen.filename), std::ios::binary);
  const std::string bytes(std::istreambuf_iterator<char>(in), {});
  EXPECT_TRUE(bytes == encode_sharded(snap->sharded()))
      << "the streamed generation differs from encode_sharded's bytes";
  EXPECT_EQ(gen.size, bytes.size());
  EXPECT_EQ(gen.crc, store::crc32(bytes.data(), bytes.size()));
  return gen;
}

// The delta log rooted on `gen` replays `batches` increments: its first
// link, the manifest's whole-file CRC, matches the one replay derives
// from the file.
void expect_log_replays(const std::string& store_dir,
                        const store::Generation& gen, std::size_t batches) {
  auto log = delta::DeltaLog::open(store::StoreDir::open(store_dir).take(),
                                   gen.number, gen.crc);
  ASSERT_TRUE(log.ok()) << log.status().to_string();
  const delta::DeltaLog::Replay replay = log.value().replay();
  EXPECT_EQ(replay.batches.size(), batches);
  EXPECT_EQ(replay.truncated, 0u);
}

// save_snapshot streams the serving view into its generation file with
// no image-sized buffer; the file must still be the bytes encode_sharded
// writes, for three views under each test layout: a fresh build, a fed
// view with tombstones (its ids leave re-ranked dense, a page at a
// time), and a view a retire-heavy chain compacted.
TEST(ServeSharded, StreamedSaveWritesEncodeShardedBytes) {
  delta::FeedOptions feed_options;
  feed_options.seed = 907;
  feed_options.events_per_tick_mean = 640.0;
  feed_options.w_retire = 24.0;
  for (const LayoutOptions& layout : st::test_layouts()) {
    SCOPED_TRACE(st::layout_name(layout));
    TempDir tmp;
    serve::ServerOptions options;
    options.shard_layout = layout;
    options.store_dir = tmp.path;
    serve::Server server(st::small_config(), options);
    delta::FeedGenerator gen(testing::small_world(), feed_options);
    delta::FeedIngestor ingestor;
    const auto tombstones = [&server] {
      return server.snapshots().acquire()->sharded().tombstones();
    };
    const auto tick = [&] {
      auto cleaned = ingestor.ingest(gen.tick());
      ASSERT_TRUE(cleaned.ok());
      ASSERT_TRUE(server.apply_delta(cleaned.value()).ok());
    };

    store::Generation saved = expect_save_writes_the_view(server, tmp.path);
    std::size_t ticks = 0;
    while (tombstones() == 0 && ticks < 20) {
      tick();
      ++ticks;
    }
    ASSERT_GT(tombstones(), 0u) << "the feed never retired a site";
    expect_log_replays(tmp.path, saved, ticks);

    saved = expect_save_writes_the_view(server, tmp.path);
    ticks = 0;
    while (tombstones() > 0 && ticks < 40) {
      tick();
      ++ticks;
    }
    ASSERT_EQ(tombstones(), 0u) << "the chain never compacted";
    expect_log_replays(tmp.path, saved, ticks);

    saved = expect_save_writes_the_view(server, tmp.path);
    tick();
    expect_log_replays(tmp.path, saved, 1);
  }
}

// A cold start counts the generation it loads whatever its format, so
// a traced restart reports the bytes it mapped.
TEST(ServeSharded, ColdStartCountsTheGenerationItLoads) {
  ObsOn obs_on;
  TempDir tmp;
  auto dir = store::StoreDir::open(tmp.path);
  ASSERT_TRUE(dir.ok());
  auto gen = dir.value().commit(testing::small_image());
  ASSERT_TRUE(gen.ok());

  obs::ScopedRegistry scope;
  serve::Server server(st::small_config(), sharded_options(tmp.path));
  ASSERT_TRUE(server.loaded_from_store());
  obs::Registry& reg = scope.registry();
  EXPECT_EQ(reg.counter(obs::metrics::kStoreLoads).value(), 1u);
  EXPECT_EQ(reg.counter(obs::metrics::kStoreLoadBytes).value(),
            gen.value().size);
  EXPECT_EQ(reg.histogram(obs::metrics::kStoreLoadNs).count(), 1u);
}

TEST(ServeSharded, MonolithicStoreMigratesOnColdStart) {
  TempDir tmp;
  commit_fasnap01(tmp.path, testing::small_world());
  serve::Server shrd(st::small_config(), sharded_options(tmp.path));
  EXPECT_TRUE(shrd.loaded_from_store());
  serve::Server fresh(st::small_config(), sharded_options());
  const std::vector<AnyQuery> stream = st::make_stream(120, 31);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(ask(shrd, stream[i]) == ask(fresh, stream[i]))
        << "query " << i << " diverged after FASNAP01 migration";
  }
}

TEST(ServeSharded, ApplyDeltaPublishesShardedEpochMatchingMonolithic) {
  serve::Server mono(st::small_config());
  serve::Server shrd(st::small_config(), sharded_options());

  delta::FeedOptions feed_options;
  feed_options.seed = 7;
  // The generator keeps a pointer to the world; pin the snapshot for
  // the generator's whole lifetime.
  const auto base = shrd.snapshots().acquire();
  delta::FeedGenerator gen(base->world(), feed_options);
  delta::FeedIngestor ingest_a, ingest_b;
  for (int tick = 0; tick < 3; ++tick) {
    const std::vector<delta::FeedEvent> events = gen.tick();
    auto a = ingest_a.ingest(events);
    auto b = ingest_b.ingest(events);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(mono.apply_delta(a.value()).ok());
    ASSERT_TRUE(shrd.apply_delta(b.value()).ok());
  }
  ASSERT_EQ(mono.epoch(), shrd.epoch());
  const std::vector<AnyQuery> stream = st::make_stream(200, 41);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(ask(mono, stream[i]) == ask(shrd, stream[i]))
        << "query " << i << " diverged after incremental epochs";
  }
}

TEST(ServeSharded, DamagedStoreServesDegradedAndRefusesPersist) {
  TempDir tmp;
  {
    serve::Server server(st::small_config(), sharded_options(tmp.path));
    ASSERT_TRUE(server.save_snapshot().ok());
  }
  damage_one_shard(tmp.path);
  ASSERT_FALSE(HasFatalFailure());

  serve::Server degraded(st::small_config(), sharded_options(tmp.path));
  EXPECT_TRUE(degraded.loaded_from_store());
  const serve::Snapshot& snap = *degraded.snapshots().acquire();
  EXPECT_EQ(snap.sharded().quarantined_count(), 1u);
  // The surviving geography answers; a whole-domain aggregate sees a
  // subset, never a failure.
  const serve::BBoxAggregateResponse r = degraded.bbox_aggregate(
      serve::BBoxAggregateQuery{snap.sharded().layout().domain()});
  EXPECT_GT(r.transceivers, 0u);
  EXPECT_LT(r.transceivers, snap.sharded().total_points());
  // And the degraded view must not overwrite the store as the newest
  // generation.
  EXPECT_FALSE(degraded.save_snapshot().ok());
}

TEST(ServeSharded, ConcurrentQueriesStayEpochPureAcrossSwaps) {
  serve::Server server(st::tiny_config(1), sharded_options());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> asked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&server, &stop, &asked, t] {
      const std::vector<AnyQuery> stream = st::make_stream(64, 100 + t);
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const AnyResponse r = ask(server, stream[i % stream.size()]);
        const serve::Epoch epoch = epoch_of(r);
        if (epoch < 1 || epoch > 4) {
          ADD_FAILURE() << "response from unknown epoch " << epoch;
          break;
        }
        ++i;
        asked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Swaps while the readers hammer: a rebuild and two incremental
  // epochs, all publishing sharded snapshots.
  ASSERT_TRUE(server.rebuild(st::tiny_config(2)).ok());
  delta::FeedOptions feed_options;
  feed_options.seed = 3;
  const auto base = server.snapshots().acquire();
  delta::FeedGenerator gen(base->world(), feed_options);
  delta::FeedIngestor ingestor;
  for (int tick = 0; tick < 2; ++tick) {
    auto cleaned = ingestor.ingest(gen.tick());
    ASSERT_TRUE(cleaned.ok());
    ASSERT_TRUE(server.apply_delta(cleaned.value()).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(asked.load(), 0u);
}

TEST(ServeSharded, ApplyOnDegradedColdStartFailsClosed) {
  ObsOn obs_on;
  TempDir tmp;
  {
    serve::Server server(st::small_config(), sharded_options(tmp.path));
    ASSERT_TRUE(server.save_snapshot().ok());
  }
  damage_one_shard(tmp.path);
  ASSERT_FALSE(HasFatalFailure());
  serve::Server degraded(st::small_config(), sharded_options(tmp.path));
  ASSERT_TRUE(degraded.loaded_from_store());
  ASSERT_EQ(degraded.snapshots().acquire()->sharded().quarantined_count(),
            1u);
  const std::uint64_t failed_before = swaps_failed(degraded);
  const fault::Status status = degraded.apply_delta(retire_and_add());
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(degraded.epoch(), 1u);
  EXPECT_EQ(swaps_failed(degraded), failed_before + 1);
}

TEST(ServeSharded, InjectedApplyFaultPublishesNothing) {
  ObsOn obs_on;
  serve::Server server(st::small_config(), sharded_options());
  const std::string before = serving_image(server);
  const std::uint64_t failed_before = swaps_failed(server);
  {
    fault::ScopedInjector arm(
        fault::Injector::parse("seed=1,delta.apply=1").take());
    const fault::Status status = server.apply_delta(retire_and_add());
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code, fault::ErrCode::kInjected);
    EXPECT_EQ(status.source, "delta.apply");
  }
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(serving_image(server), before);
  EXPECT_EQ(swaps_failed(server), failed_before + 1);
  // Disarmed, the same batch publishes.
  ASSERT_TRUE(server.apply_delta(retire_and_add()).ok());
  EXPECT_EQ(server.epoch(), 2u);
}

TEST(ServeSharded, StrictPolicyFailurePublishesNothing) {
  serve::ServerOptions options = sharded_options();
  options.policy = fault::RecoveryPolicy::kStrict;
  serve::Server server(st::small_config(), options);
  const std::string before = serving_image(server);
  std::vector<delta::FeedEvent> batch = retire_and_add();
  batch[0].target = 0xfffffff0u;  // dead target: strict fails the batch
  const fault::Status status = server.apply_delta(batch);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.offset, 0u);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(serving_image(server), before);
}

TEST(ServeSharded, ColdStartReplayingARetireNeverMaterializes) {
  ObsOn obs_on;
  TempDir tmp;
  const std::vector<AnyQuery> stream = st::make_stream(150, 59);
  std::string final_image;
  std::vector<AnyResponse> before;
  {
    serve::Server server(st::small_config(), sharded_options(tmp.path));
    ASSERT_TRUE(server.save_snapshot().ok());
    delta::FeedOptions feed_options;
    feed_options.seed = 13;
    delta::FeedGenerator gen(server.snapshots().acquire()->world(),
                             feed_options);
    delta::FeedIngestor ingestor;
    std::size_t retires = 0;
    for (int tick = 0; tick < 3; ++tick) {
      auto cleaned = ingestor.ingest(gen.tick());
      ASSERT_TRUE(cleaned.ok());
      delta::ApplyStats stats;
      ASSERT_TRUE(server.apply_delta(cleaned.value(), &stats).ok());
      retires += stats.retires;
    }
    ASSERT_GT(retires, 0u) << "the logged batches never retired a site";
    final_image = serving_image(server);
    for (const AnyQuery& q : stream) {
      before.push_back(without_epoch(ask(server, q)));
    }
  }
  obs::ScopedRegistry scoped;
  serve::ServerOptions options = sharded_options(tmp.path);
  options.registry = &scoped.registry();
  serve::Server revived(st::small_config(), options);
  ASSERT_TRUE(revived.loaded_from_store());
  EXPECT_EQ(scoped.registry().counter(obs::metrics::kDeltaLogReplayed).value(),
            3u);
  EXPECT_EQ(serving_image(revived), final_image);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(before[i] == without_epoch(ask(revived, stream[i])))
        << "query " << i << " diverged after the replayed cold start";
  }
  EXPECT_EQ(
      scoped.registry().counter(obs::metrics::kShardMaterializes).value(),
      0u);
}

// Stores written before serving was sharded-only hold a FASNAP01
// generation and a delta log chained to it. A cold start migrates the
// image, replays the chain, and serves the reference evaluator's bytes
// over the world reference_apply rebuilds from the same prefix; the
// next save commits a FASHRD01 generation and re-roots the log on it.
TEST(ServeSharded, PreShardingStoreWithDeltaLogUpgradesOnColdStart) {
  ObsOn obs_on;
  TempDir tmp;
  const core::World& base = testing::small_world();
  const store::Generation root = commit_fasnap01(tmp.path, base);
  ASSERT_FALSE(HasFailure());
  core::World world = base;
  core::ProviderRiskResult risk = core::run_provider_risk(base);
  {
    auto dir = store::StoreDir::open(tmp.path);
    ASSERT_TRUE(dir.ok());
    auto log = delta::DeltaLog::open(dir.value(), root.number, root.crc);
    ASSERT_TRUE(log.ok()) << log.status().to_string();
    delta::FeedOptions feed_options;
    feed_options.seed = 17;
    delta::FeedGenerator gen(base, feed_options);
    delta::FeedIngestor ingestor;
    std::size_t retires = 0;
    for (int tick = 0; tick < 3; ++tick) {
      auto cleaned = ingestor.ingest(gen.tick());
      ASSERT_TRUE(cleaned.ok());
      auto applied = delta::testing::reference_apply(world, cleaned.value());
      ASSERT_TRUE(applied.ok()) << applied.status().to_string();
      delta::testing::ReferenceEpoch result = std::move(applied).take();
      retires += result.stats.retires;
      world = std::move(result.world);
      risk = std::move(result.risk);
      ASSERT_TRUE(log.value().append(cleaned.value()).ok());
    }
    ASSERT_GT(retires, 0u) << "the logged batches never retired a site";
  }

  obs::ScopedRegistry scoped;
  serve::ServerOptions options = sharded_options(tmp.path);
  options.registry = &scoped.registry();
  serve::Server server(st::small_config(), options);
  ASSERT_TRUE(server.loaded_from_store());
  EXPECT_EQ(scoped.registry().counter(obs::metrics::kDeltaLogReplayed).value(),
            3u);
  EXPECT_EQ(scoped.registry().counter(obs::metrics::kShardMigrations).value(),
            1u);
  const std::vector<AnyQuery> stream = st::make_stream(150, 67);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(st::ask_reference(world, risk, server.epoch(), stream[i]) ==
                ask(server, stream[i]))
        << "query " << i << " diverged from the oracle's world";
  }

  ASSERT_TRUE(server.save_snapshot().ok());
  auto dir = store::StoreDir::open(tmp.path);
  ASSERT_TRUE(dir.ok());
  auto manifest = dir.value().read_manifest();
  ASSERT_TRUE(manifest.ok());
  const store::Generation& newest = manifest.value().generations.back();
  ASSERT_GT(newest.number, root.number);
  std::string magic(8, '\0');
  std::ifstream(dir.value().file_path(newest.filename), std::ios::binary)
      .read(magic.data(), 8);
  EXPECT_EQ(magic, std::string(store::kShardMagic, 8));
  // Re-rooted: a cold start now replays nothing past the new image.
  const std::string image = serving_image(server);
  obs::ScopedRegistry again;
  options.registry = &again.registry();
  serve::Server reborn(st::small_config(), options);
  ASSERT_TRUE(reborn.loaded_from_store());
  EXPECT_EQ(again.registry().counter(obs::metrics::kDeltaLogReplayed).value(),
            0u);
  EXPECT_EQ(again.registry().counter(obs::metrics::kShardMigrations).value(),
            0u);
  EXPECT_EQ(serving_image(reborn), image);
}

// No serving path builds or materializes a core::World: the fresh build,
// every query shape (both ensemble shapes included), fed ticks with a
// retire, saves, a cold start that replays the chain, rebuild and
// rebuild_from_store, and ensemble queries on fed epochs.
TEST(ServeSharded, NoServingPathBuildsOrMaterializesAWorld) {
  ObsOn obs_on;
  TempDir tmp;
  obs::ScopedRegistry scoped;
  obs::Registry& reg = scoped.registry();
  const auto no_world = [&reg](const char* when) {
    EXPECT_EQ(reg.counter("world.builds").value(), 0u) << when;
    EXPECT_EQ(reg.counter(obs::metrics::kShardMaterializes).value(), 0u)
        << when;
  };
  const auto every_shape = [](serve::Server& server) {
    for (const AnyQuery& q : st::make_stream(40, 71)) (void)ask(server, q);
    EXPECT_GT(server.ensemble_summary({3, 9}).sites, 0u);
    EXPECT_FALSE(server.top_k_fragile_sites({3, 9, 5}).sites_ranked.empty());
  };
  // Feeds from the shard columns' positions, as fa_served does.
  const auto feed = [](serve::Server& server, std::uint64_t seed, int ticks) {
    delta::FeedOptions feed_options;
    feed_options.seed = seed;
    delta::FeedGenerator gen(
        server.snapshots().acquire()->sharded().positions_by_id().take(),
        feed_options);
    delta::FeedIngestor ingestor;
    std::size_t retires = 0;
    for (int tick = 0; tick < ticks; ++tick) {
      auto cleaned = ingestor.ingest(gen.tick());
      EXPECT_TRUE(cleaned.ok());
      delta::ApplyStats stats;
      EXPECT_TRUE(server.apply_delta(cleaned.value(), &stats).ok());
      retires += stats.retires;
    }
    return retires;
  };
  serve::ServerOptions options = sharded_options(tmp.path);
  options.registry = &reg;
  {
    serve::Server server(st::small_config(), options);
    ASSERT_FALSE(server.loaded_from_store());
    no_world("fresh build");
    ASSERT_TRUE(server.save_snapshot().ok());
    every_shape(server);
    no_world("queries on the built epoch");
    EXPECT_GT(feed(server, 13, 3), 0u) << "the ticks never retired a site";
    every_shape(server);
    no_world("fed ticks and queries on a fed epoch");
  }
  serve::Server revived(st::small_config(), options);
  ASSERT_TRUE(revived.loaded_from_store());
  EXPECT_EQ(reg.counter(obs::metrics::kDeltaLogReplayed).value(), 3u);
  every_shape(revived);
  no_world("cold start replaying the chain");
  ASSERT_TRUE(revived.save_snapshot().ok());
  ASSERT_TRUE(revived.rebuild(st::small_config()).ok());
  ASSERT_TRUE(revived.rebuild_from_store().ok());
  feed(revived, 29, 1);
  every_shape(revived);
  no_world("save, rebuild, rebuild_from_store and a fed epoch");
}

}  // namespace
}  // namespace fa::shard
