// Store x serve x net integration (`ctest -L store`, `-L net`): cold
// start from a persisted generation, the disk-sourced hot-swap
// (rebuild_from_store — the SIGHUP path of `fa_served --store`) under
// live network load, and byte-identity between a rebuild-from-disk and
// the equivalent in-memory rebuild.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "store_test_util.hpp"

namespace fa::store {
namespace {

using serve::testing::AnyQuery;
using serve::testing::ask;
using serve::testing::epoch_of;
using serve::testing::make_stream;
using serve::testing::tiny_config;
using testing::TempDir;

constexpr const char* kLoop = "127.0.0.1";

serve::Request to_request(const AnyQuery& q) {
  return std::visit([](const auto& query) { return serve::Request{query}; },
                    q);
}

serve::Response to_response(const serve::testing::AnyResponse& r) {
  return std::visit([](const auto& resp) { return serve::Response{resp}; }, r);
}

TEST(StoreServe, ColdStartFromStoreServesIdenticalBytes) {
  TempDir tmp;
  serve::ServerOptions opts;
  opts.store_dir = tmp.path;

  // First boot: the store is empty, so this is a fresh build.
  serve::Server built(tiny_config(), opts);
  EXPECT_FALSE(built.loaded_from_store());
  ASSERT_TRUE(built.save_snapshot().ok());

  // Second boot: same config, warm store — no world build at all.
  serve::Server loaded(tiny_config(), opts);
  EXPECT_TRUE(loaded.loaded_from_store());
  EXPECT_EQ(loaded.epoch(), 1u);

  for (const auto& q : make_stream(150, /*seed=*/41)) {
    EXPECT_EQ(serve::wire::encode(to_response(ask(built, q))),
              serve::wire::encode(to_response(ask(loaded, q))));
  }
}

TEST(StoreServe, ConfigMismatchFallsBackToFreshBuild) {
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "monolithic");
    TempDir tmp;
    serve::ServerOptions opts;
    opts.store_dir = tmp.path;
    opts.sharded = sharded;
    {
      serve::Server seeded(tiny_config(/*seed=*/1), opts);
      ASSERT_TRUE(seeded.save_snapshot().ok());
    }
    // A different seed is a different scenario: the stored generation
    // must not be adopted silently.
    serve::Server other(tiny_config(/*seed=*/2), opts);
    EXPECT_FALSE(other.loaded_from_store());
    EXPECT_TRUE(other.config() == tiny_config(2));
  }
}

TEST(StoreServe, SaveWithoutStoreIsAnError) {
  serve::Server server(tiny_config());
  const fault::Status s = server.save_snapshot();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code, fault::ErrCode::kIoFailure);
}

// The satellite contract: rebuilding from disk publishes a new epoch
// whose bytes match an in-memory rebuild of the same scenario exactly,
// whichever representation serves.
TEST(StoreServe, RebuildFromStoreMatchesInMemoryRebuild) {
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "monolithic");
    TempDir tmp;
    serve::ServerOptions opts;
    opts.sharded = sharded;
    serve::Server mem(tiny_config(), opts);
    ASSERT_TRUE(mem.rebuild(tiny_config()).ok());
    EXPECT_EQ(mem.epoch(), 2u);

    opts.store_dir = tmp.path;
    serve::Server disk(tiny_config(), opts);
    ASSERT_TRUE(disk.save_snapshot().ok());
    ASSERT_TRUE(disk.rebuild_from_store().ok());
    EXPECT_EQ(disk.epoch(), 2u);

    for (const auto& q : make_stream(150, /*seed=*/43)) {
      EXPECT_EQ(serve::wire::encode(to_response(ask(mem, q))),
                serve::wire::encode(to_response(ask(disk, q))));
    }
  }
}

TEST(StoreServe, RebuildFromEmptyStoreKeepsServing) {
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "monolithic");
    TempDir tmp;
    serve::ServerOptions opts;
    opts.store_dir = tmp.path;
    opts.sharded = sharded;
    serve::Server server(tiny_config(), opts);  // fresh build, nothing saved
    const serve::Epoch before = server.epoch();
    const fault::Status s = server.rebuild_from_store();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(server.epoch(), before)
        << "failed swap must not move the epoch";
    serve::PointRiskResponse r = server.point_risk({{-120.0, 38.0}, 0.0});
    EXPECT_EQ(r.epoch, before);
  }
}

// Disk-sourced hot-swap under concurrent network load: clients hammer a
// live NetServer while the main thread swaps in store-recovered epochs.
// Every reply must be whole-epoch (epoch purity is per-response by
// construction; here we assert the observed sequence per connection is
// monotone — a swap can never roll a client backwards).
TEST(StoreServe, HotSwapFromStoreUnderNetworkLoad) {
  TempDir tmp;
  serve::ServerOptions opts;
  opts.store_dir = tmp.path;
  serve::Server server(tiny_config(), opts);
  ASSERT_TRUE(server.save_snapshot().ok());

  net::NetServer net_server(server);  // ephemeral port
  const std::uint16_t port = net_server.port();

  constexpr int kThreads = 3;
  constexpr int kPerThread = 120;
  std::atomic<int> failures{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      net::Client::BackoffPolicy policy;
      policy.seed = 100 + static_cast<std::uint64_t>(t);
      fault::Result<net::Client> c =
          net::Client::connect_retry(kLoop, port, policy);
      if (!c.ok()) {
        failures.fetch_add(1);
        return;
      }
      serve::Epoch last_seen = 0;
      const auto stream = make_stream(kPerThread, 1000 + t);
      for (const auto& q : stream) {
        fault::Result<net::Client::Reply> reply =
            c.value().call(to_request(q));
        if (!reply.ok() || !reply.value().ok()) {
          failures.fetch_add(1);
          return;
        }
        const serve::Epoch e = std::visit(
            [](const auto& resp) { return resp.epoch; },
            *reply.value().response);
        if (e < last_seen) {
          failures.fetch_add(1);
          return;
        }
        last_seen = e;
        answered.fetch_add(1);
      }
    });
  }

  // Two disk-sourced swaps while the clients run.
  ASSERT_TRUE(server.rebuild_from_store().ok());
  ASSERT_TRUE(server.rebuild_from_store().ok());
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  EXPECT_EQ(server.epoch(), 3u);

  // The final epoch still answers byte-identically to a fresh build of
  // the same scenario (the store round-tripped it twice by now).
  serve::Server reference(tiny_config());
  for (const auto& q : make_stream(60, /*seed=*/77)) {
    serve::Response want = to_response(ask(reference, q));
    serve::Response got = to_response(ask(server, q));
    // Epochs differ (1 vs 3); compare through the wire encoding after
    // pinning both to the same epoch value.
    std::visit([](auto& r) { r.epoch = 0; }, want);
    std::visit([](auto& r) { r.epoch = 0; }, got);
    EXPECT_EQ(serve::wire::encode(want), serve::wire::encode(got));
  }

  net_server.shutdown(/*drain=*/true);
}

}  // namespace
}  // namespace fa::store
