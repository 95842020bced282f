// Snapshot hot-swap under fire: writer threads republishing epochs
// while reader threads query through handle() and the typed wrappers,
// cache on. Run under FA_SANITIZE=thread this is the serving layer's
// data-race proof; the assertions here pin the memory-lifetime story —
// every response carries a live, monotonically advancing epoch, and
// every retired snapshot is reclaimed once its readers drain.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace fa::serve {
namespace {

using testing::AnyQuery;
using testing::AnyResponse;
using testing::ask;
using testing::epoch_of;
using testing::make_stream;
using testing::tiny_config;

// Readers hammer a server while writers swap snapshots; `rebuild_spec`
// optionally arms the snapshot-build fault seam so some swaps fail
// mid-traffic (a failed swap must be invisible to readers).
void run_swap_race(const char* rebuild_spec) {
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kSwapsPerWriter = 3;
  constexpr std::size_t kQueriesPerReader = 160;

  Server server(tiny_config(1));
  // Armed only after the initial snapshot exists: the seam is meant to
  // fail *rebuilds*, and no query threads are running yet.
  std::optional<fault::ScopedInjector> guard;
  if (rebuild_spec != nullptr) {
    guard.emplace(fault::Injector::parse(rebuild_spec).take());
  }

  std::atomic<std::uint64_t> published{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> start{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::vector<AnyQuery> stream =
          make_stream(kQueriesPerReader, 1000 + static_cast<std::uint64_t>(r));
      Epoch last = 0;
      for (const AnyQuery& q : stream) {
        // Point queries take the front door the network workers use.
        const auto* p = std::get_if<PointRiskQuery>(&q);
        const Epoch epoch =
            p != nullptr
                ? std::get<PointRiskResponse>(server.handle(Request{*p})).epoch
                : epoch_of(ask(server, q));
        // 0 never serves, and each acquire() sees the current snapshot,
        // so the epochs one thread observes can only move forward.
        if (epoch == 0 || epoch < last) violations.fetch_add(1);
        last = epoch;
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int s = 0; s < kSwapsPerWriter; ++s) {
        const std::uint64_t seed =
            2 + static_cast<std::uint64_t>(w * kSwapsPerWriter + s);
        if (server.rebuild(tiny_config(seed)).ok()) {
          published.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(violations.load(), 0)
      << "readers observed a dead or regressed epoch";
  EXPECT_EQ(published.load() + failed.load(),
            static_cast<std::uint64_t>(kWriters * kSwapsPerWriter));
  // Epochs are only burned by successful publishes.
  EXPECT_EQ(server.epoch(), 1u + published.load());
  // All readers drained: every displaced snapshot's storage is free.
  EXPECT_EQ(server.snapshots().retired(), published.load());
  EXPECT_EQ(server.snapshots().reclaimed(), published.load())
      << "a retired snapshot outlived its last reader";
  // One last query against the surviving epoch still answers.
  EXPECT_EQ(server.point_risk({{-98.0, 39.0}, 0.0}).epoch, server.epoch());
}

TEST(ServeSwapRace, ReadersSurviveConcurrentSwaps) {
  run_swap_race(nullptr);
}

TEST(ServeSwapRace, FailedSwapsAreInvisibleToReaders) {
  // ~half the builds fail at the serve.snapshot.build seam
  // (deterministically in the epoch number); readers must not notice.
  run_swap_race("serve.snapshot.build=0.5");
}

}  // namespace
}  // namespace fa::serve
