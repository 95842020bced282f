// Unit tests for the fa::serve building blocks: query fingerprints, the
// sharded LRU cache (counters, epoch keying, the corruption seam), the
// snapshot store's retire/reclaim accounting, and the Server front door
// (per-shape answers, rebuild success and failure).
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "serve/wire.hpp"
#include "serve_test_util.hpp"

namespace fa::serve {
namespace {

using testing::AnyQuery;
using testing::ask;
using testing::make_stream;
using testing::small_config;
using testing::tiny_config;

// Counters only record while obs is enabled; force it on per test and
// restore, so the suite passes under any FA_OBS setting.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
  }
  void TearDown() override { obs::set_enabled(was_enabled_); }

  // One small server shared across tests (world builds dominate).
  static Server& shared_server() {
    static Server server(small_config());
    return server;
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(ServeTest, FingerprintsSeparateQueriesAndTypes) {
  const PointRiskQuery p1{{-100.0, 40.0}, 0.0};
  const PointRiskQuery p2{{-100.0, 40.5}, 0.0};
  const PointRiskQuery p3{{-100.0, 40.0}, 10e3};
  EXPECT_EQ(fingerprint(p1), fingerprint(PointRiskQuery{{-100.0, 40.0}, 0.0}));
  EXPECT_NE(fingerprint(p1), fingerprint(p2));
  EXPECT_NE(fingerprint(p1), fingerprint(p3));
  // Same leading bytes, different type tag.
  const TopKSitesQuery t{{-100.0, 40.0}, 0.0, 0};
  EXPECT_NE(fingerprint(p1), fingerprint(t));
  EXPECT_NE(fingerprint(ProviderExposureQuery{cellnet::Provider::kAtt}),
            fingerprint(ProviderExposureQuery{cellnet::Provider::kVerizon}));
}

PointRiskResponse point_response(Epoch epoch, int county) {
  PointRiskResponse r;
  r.epoch = epoch;
  r.county = county;
  return r;
}

TEST_F(ServeTest, CacheCountsHitsMissesAndEvictsLru) {
  obs::Registry reg;
  ShardedCache cache({.capacity = 3, .shards = 1}, reg);
  EXPECT_FALSE(cache.get(1, 10).has_value());
  cache.put(1, 10, point_response(1, 10));
  cache.put(1, 20, point_response(1, 20));
  cache.put(1, 30, point_response(1, 30));
  EXPECT_EQ(cache.size(), 3u);
  // Touch 10 so 20 becomes the LRU tail, then overflow.
  EXPECT_TRUE(cache.get(1, 10).has_value());
  cache.put(1, 40, point_response(1, 40));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.get(1, 20).has_value()) << "LRU tail should be evicted";
  EXPECT_TRUE(cache.get(1, 30).has_value());
  EXPECT_TRUE(cache.get(1, 40).has_value());
  const CacheHit refreshed = cache.get(1, 40);
  ASSERT_TRUE(refreshed.has_value());
  const auto* hit =
      std::get_if<PointRiskResponse>(&std::get<Response>(*refreshed.reply));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->county, 40);
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheHits).value(), 4u);
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheMisses).value(), 2u);
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheEvictions).value(), 1u);
}

TEST_F(ServeTest, CacheKeyIncludesEpoch) {
  obs::Registry reg;
  ShardedCache cache({.capacity = 8, .shards = 2}, reg);
  cache.put(1, 99, point_response(1, 1));
  EXPECT_FALSE(cache.get(2, 99).has_value())
      << "an entry from epoch 1 must be invisible to epoch 2";
  EXPECT_TRUE(cache.get(1, 99).has_value());
  cache.invalidate_all();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(1, 99).has_value());
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheInvalidations).value(), 1u);
}

TEST_F(ServeTest, CorruptionSeamDropsHitAndRecomputes) {
  obs::Registry reg;
  ShardedCache cache({.capacity = 8, .shards = 1}, reg);
  cache.put(1, 7, point_response(1, 7));
  {
    fault::ScopedInjector guard(
        fault::Injector::parse("serve.cache=1").take());
    EXPECT_FALSE(cache.get(1, 7).has_value())
        << "a corrupt hit must fall through to recomputation";
    EXPECT_EQ(cache.size(), 0u) << "the corrupt entry is dropped";
  }
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheCorruptDropped).value(), 1u);
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheHits).value(), 0u);
  // Refill with the seam disarmed: served normally again.
  cache.put(1, 7, point_response(1, 7));
  EXPECT_TRUE(cache.get(1, 7).has_value());
}

TEST_F(ServeTest, CacheTalliesAreExactWithObsOff) {
  // The cache's own counts are correctness counters: they must not
  // depend on FA_OBS, unlike the serve.cache.* obs counters.
  obs::set_enabled(false);
  obs::Registry reg;
  ShardedCache cache({.capacity = 2, .shards = 1}, reg);
  EXPECT_FALSE(cache.get(1, 10).has_value());                     // miss
  cache.put(1, 10, point_response(1, 10));
  EXPECT_TRUE(cache.get(1, 10).has_value());                      // hit
  EXPECT_FALSE(cache.get(1, 10, Codec::kBinary).has_value());     // miss
  cache.put(1, 10, Codec::kBinary, CachedReply{std::string("wire")});
  EXPECT_TRUE(cache.get(1, 10, Codec::kBinary).has_value());      // hit
  cache.put(1, 20, point_response(1, 20));                        // evicts
  EXPECT_FALSE(cache.get(1, 10).has_value());                     // miss
  const ShardedCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheHits).value(), 0u)
      << "obs counters stay off with FA_OBS off";
}

TEST_F(ServeTest, CacheKeyIncludesCodec) {
  obs::Registry reg;
  ShardedCache cache({.capacity = 8, .shards = 2}, reg);
  cache.put(1, 5, Codec::kBinary, CachedReply{std::string("payload")});
  EXPECT_FALSE(cache.get(1, 5, Codec::kJson).has_value());
  EXPECT_FALSE(cache.get(1, 5).has_value());
  const CacheHit hit = cache.get(1, 5, Codec::kBinary);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<std::string>(*hit.reply), "payload");
  // A hit's share outlives the entry.
  cache.invalidate_all();
  EXPECT_EQ(std::get<std::string>(*hit.reply), "payload");
}

TEST_F(ServeTest, EncodedRepliesMatchTheTypedAnswer) {
  // Every codec's entry is the typed answer's encoding, whether the
  // cache was cold, warm, or off.
  Server& server = shared_server();
  ServerOptions off;
  off.cache_enabled = false;
  Server uncached(small_config(), off);
  for (const AnyQuery& any : make_stream(40, 31, 12)) {
    const Request req = std::visit([](const auto& q) { return Request{q}; }, any);
    const Response typed = server.handle(req);
    for (Server* s : {&server, &uncached}) {
      EXPECT_EQ(std::get<std::string>(*s->handle(req, Codec::kBinary)),
                wire::encode(typed));
      EXPECT_EQ(std::get<std::string>(*s->handle(req, Codec::kJson)),
                json_body(typed));
      EXPECT_EQ(std::get<Response>(*s->handle(req, Codec::kResponse)), typed);
    }
  }
}

TEST_F(ServeTest, SnapshotStoreRetiresAndReclaims) {
  SnapshotStore store;
  EXPECT_EQ(store.current_epoch(), 0u);
  EXPECT_EQ(store.acquire(), nullptr);
  auto s1 = Snapshot::build(tiny_config(1), 1).take();
  auto s2 = Snapshot::build(tiny_config(2), 2).take();
  EXPECT_EQ(store.publish(std::move(s1)), 0u) << "nothing displaced yet";
  EXPECT_EQ(store.current_epoch(), 1u);
  std::shared_ptr<const Snapshot> pinned = store.acquire();
  EXPECT_EQ(store.publish(std::move(s2)), 1u);
  EXPECT_EQ(store.current_epoch(), 2u);
  EXPECT_EQ(store.retired(), 1u);
  EXPECT_EQ(store.reclaimed(), 0u) << "a pinned epoch must stay alive";
  EXPECT_EQ(pinned->epoch(), 1u) << "the in-flight reader still sees epoch 1";
  pinned.reset();
  EXPECT_EQ(store.reclaimed(), 1u) << "releasing the last reader reclaims";
}

TEST_F(ServeTest, ServerAnswersEveryQueryShape) {
  Server& server = shared_server();
  EXPECT_EQ(server.epoch(), 1u);
  const std::shared_ptr<const Snapshot> snap = server.snapshots().acquire();
  const core::World& world = snap->world();

  // Point risk agrees with the underlying surfaces at the query point.
  const geo::LonLat la{-118.24, 34.05};
  const PointRiskResponse point =
      server.point_risk({.point = la, .neighborhood_m = 50e3});
  EXPECT_EQ(point.epoch, 1u);
  EXPECT_EQ(point.whp, world.whp().class_at(la));
  EXPECT_EQ(point.at_risk, synth::whp_at_risk(point.whp));
  EXPECT_EQ(point.county, world.counties().county_of(la));
  EXPECT_GT(point.nearby_txr, 0u) << "downtown LA has transceivers in 50km";
  EXPECT_LE(point.nearby_at_risk, point.nearby_txr);

  // BBox aggregate: class counts partition the transceiver count.
  const BBoxAggregateResponse box =
      server.bbox_aggregate({{-125.0, 32.0, -114.0, 42.0}});
  EXPECT_EQ(box.epoch, 1u);
  EXPECT_GT(box.transceivers, 0u);
  std::uint64_t by_class = 0;
  for (const std::uint64_t c : box.by_class) by_class += c;
  std::uint64_t by_provider = 0;
  for (const std::uint64_t c : box.by_provider) by_provider += c;
  EXPECT_EQ(by_class, box.transceivers);
  EXPECT_EQ(by_provider, box.transceivers);
  EXPECT_LE(box.at_risk, box.transceivers);

  // Provider exposure is the snapshot's Table 2 row, O(1).
  std::uint64_t fleet = 0;
  for (int p = 0; p < cellnet::kNumProviders; ++p) {
    const ProviderExposureResponse row =
        server.provider_exposure({static_cast<cellnet::Provider>(p)});
    EXPECT_EQ(row.epoch, 1u);
    EXPECT_EQ(row.provider, static_cast<cellnet::Provider>(p));
    EXPECT_LE(row.at_risk(), row.fleet);
    fleet += row.fleet;
  }
  EXPECT_EQ(fleet, world.corpus().size());

  // Top-K: best-first by (class desc, distance asc, id), k-bounded.
  const TopKSitesQuery topk{la, 80e3, 12};
  const TopKSitesResponse ranked = server.top_k_sites(topk);
  EXPECT_EQ(ranked.epoch, 1u);
  ASSERT_GT(ranked.sites.size(), 0u);
  EXPECT_LE(ranked.sites.size(), topk.k);
  EXPECT_GE(ranked.candidates, ranked.sites.size());
  for (std::size_t i = 1; i < ranked.sites.size(); ++i) {
    const RankedSite& a = ranked.sites[i - 1];
    const RankedSite& b = ranked.sites[i];
    EXPECT_TRUE(a.whp > b.whp ||
                (a.whp == b.whp && a.distance_m <= b.distance_m))
        << "ranking must be class-major, distance-minor at " << i;
    EXPECT_LE(b.distance_m, topk.radius_m);
  }
}

TEST_F(ServeTest, ScopedRegistryIsolatesServeCounters) {
  // The scoped registry keeps this test's counts exact even though the
  // shared server has been recording serve.* metrics into the default
  // global registry for the whole binary.
  obs::ScopedRegistry scoped;
  Server server(tiny_config());
  const PointRiskQuery q{{-98.0, 39.0}, 0.0};
  const PointRiskResponse first = server.point_risk(q);
  const PointRiskResponse again = server.point_risk(q);
  EXPECT_TRUE(first == again);
  obs::Registry& reg = scoped.registry();
  EXPECT_EQ(&server.registry(), &reg)
      << "a server built under a ScopedRegistry must record into it";
  EXPECT_EQ(reg.counter(obs::metrics::kServeQueries).value(), 2u);
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheMisses).value(), 1u);
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheHits).value(), 1u);
}

TEST_F(ServeTest, RebuildPublishesAndFailedRebuildKeepsServing) {
  obs::ScopedRegistry scoped;
  Server server(tiny_config(1));
  EXPECT_EQ(server.epoch(), 1u);
  const PointRiskQuery q{{-105.0, 40.0}, 0.0};
  (void)server.point_risk(q);  // seed the cache at epoch 1

  ASSERT_TRUE(server.rebuild(tiny_config(2)).ok());
  EXPECT_EQ(server.epoch(), 2u);
  EXPECT_EQ(server.config().seed, 2u);
  obs::Registry& reg = scoped.registry();
  EXPECT_EQ(reg.counter(obs::metrics::kServeSwapsPublished).value(), 1u);
  EXPECT_EQ(reg.counter(obs::metrics::kServeCacheInvalidations).value(), 1u);
  // Nothing read epoch 1 after the swap, so it reclaims immediately.
  EXPECT_EQ(server.snapshots().retired(), 1u);
  EXPECT_EQ(server.snapshots().reclaimed(), 1u);

  {
    fault::ScopedInjector guard(
        fault::Injector::parse("serve.snapshot.build=1").take());
    const fault::Status failed = server.rebuild(tiny_config(3));
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.code, fault::ErrCode::kInjected);
  }
  EXPECT_EQ(server.epoch(), 2u) << "a failed swap must leave epoch 2 serving";
  EXPECT_EQ(server.config().seed, 2u);
  EXPECT_EQ(reg.counter(obs::metrics::kServeSwapsFailed).value(), 1u);
  EXPECT_EQ(reg.counter(obs::metrics::kServeSwapsPublished).value(), 1u);
  const PointRiskResponse after = server.point_risk(q);
  EXPECT_EQ(after.epoch, 2u);
}

TEST_F(ServeTest, UnbuildableInitialSnapshotThrows) {
  fault::ScopedInjector guard(
      fault::Injector::parse("serve.snapshot.build=1").take());
  EXPECT_THROW(Server{tiny_config()}, fault::IoError)
      << "a server with nothing to serve should fail loudly";
}

}  // namespace
}  // namespace fa::serve
