// Serving queries never enter the fa::exec pool. The pool runs one
// region at a time, so a query that fanned out on it would queue behind
// whatever batch region holds it — a feed apply, a build — for that
// region's whole run. Here a region holds the pool open on purpose, its
// chunks blocked on a latch, while a multi-shard bbox and a multi-shard
// top-K go through Server::handle: both must answer before the region
// is released, byte-identical to the brute-force reference evaluator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <thread>
#include <utility>
#include <variant>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "exec/exec.hpp"
#include "serve/planner.hpp"
#include "serve/server.hpp"
#include "reference_eval.hpp"
#include "serve_test_util.hpp"

namespace fa::serve {
namespace {

using testing::reference;
using testing::small_config;

TEST(ServeExecRegion, MultiShardQueriesAnswerWhileARegionHoldsThePool) {
  Server server(small_config());
  const core::World world = core::World::build(small_config());
  const core::ProviderRiskResult risk = core::run_provider_risk(world);

  // CONUS-wide, and a disc wide enough to straddle shard edges.
  const BBoxAggregateQuery bbox{{-125.0, 24.0, -66.0, 50.0}};
  const TopKSitesQuery topk{{-98.0, 38.0}, 800e3, 10};
  {
    const shard::ShardLayout& layout =
        server.snapshots().acquire()->sharded().layout();
    ASSERT_GE(layout.shards_overlapping(bbox.bbox).size(), 2u);
    ASSERT_GE(layout
                  .shards_overlapping(
                      detail::disc_bbox(topk.center, topk.radius_m))
                  .size(),
              2u);
  }

  // With FA_THREADS=8 (tests/CMakeLists.txt) the region is pooled and
  // holds the pool until release; a one-worker pool would run it inline
  // on the holder thread and hold nothing.
  std::latch release(1);
  std::atomic<bool> holding{false};
  std::thread holder([&] {
    exec::parallel_for(
        64,
        [&](std::size_t) {
          holding.store(true);
          release.wait();
        },
        {.grain = 1});
  });
  while (!holding.load()) std::this_thread::yield();

  std::future<std::pair<Response, Response>> answers =
      std::async(std::launch::async, [&] {
        return std::pair{server.handle(Request{bbox}),
                         server.handle(Request{topk})};
      });
  const bool answered = answers.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  release.count_down();
  holder.join();
  EXPECT_TRUE(answered)
      << "a multi-shard query waited for the exec region to finish";

  const auto [b, t] = answers.get();
  const Epoch epoch = server.epoch();
  ASSERT_TRUE(std::holds_alternative<BBoxAggregateResponse>(b));
  ASSERT_TRUE(std::holds_alternative<TopKSitesResponse>(t));
  EXPECT_TRUE(std::get<BBoxAggregateResponse>(b) ==
              reference(world, risk, epoch, bbox));
  EXPECT_TRUE(std::get<TopKSitesResponse>(t) ==
              reference(world, risk, epoch, topk));
  EXPECT_GT(std::get<BBoxAggregateResponse>(b).transceivers, 0u);
  EXPECT_FALSE(std::get<TopKSitesResponse>(t).sites.empty());
}

}  // namespace
}  // namespace fa::serve
