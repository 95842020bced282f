// The exec.chunk seam: an armed injector forces task failures inside
// fa::exec regions; the pool must propagate them as InjectedFault on the
// calling thread, never hang, and stay fully usable afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/exec.hpp"
#include "fault/injector.hpp"

namespace fa::exec {
namespace {

using fault::Injector;
using fault::InjectedFault;
using fault::ScopedInjector;

TEST(ExecFault, ArmedChunkSeamPropagatesInjectedFault) {
  const ScopedInjector scope(Injector::parse("seed=1,exec.chunk=1").take());
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      parallel_for(
          10000, [&executed](std::size_t) { executed.fetch_add(1); },
          {.grain = 64}),
      InjectedFault);
  // Cancellation is best-effort, but with p=1 every chunk's fail point
  // fires before its body, so no iteration may have run.
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ExecFault, SerialInlinePathHitsTheSameSeam) {
  const ScopedInjector scope(Injector::parse("seed=1,exec.chunk=1").take());
  const ConcurrencyLimit serial(1);
  EXPECT_THROW(parallel_for(100, [](std::size_t) {}, {.grain = 10}),
               InjectedFault);
}

TEST(ExecFault, PartialProbabilityFailsDeterministically) {
  // Which chunks fire is a pure function of (seed, site, chunk): the
  // thrown fault's offset must be one of the predicted chunks, at any
  // thread count.
  const Injector inj = Injector::parse("seed=77,exec.chunk=0.05").take();
  std::vector<std::uint64_t> firing;
  for (std::uint64_t chunk = 0; chunk < 100; ++chunk) {
    if (inj.fires("exec.chunk", chunk)) firing.push_back(chunk);
  }
  ASSERT_FALSE(firing.empty()) << "pick a seed that fires at least once";

  const ScopedInjector scope(Injector::parse("seed=77,exec.chunk=0.05").take());
  for (const int threads : {1, 4}) {
    const ConcurrencyLimit limit(threads);
    try {
      parallel_for(100 * 64, [](std::size_t) {}, {.grain = 64});
      FAIL() << "expected an injected fault";
    } catch (const InjectedFault& e) {
      EXPECT_EQ(e.status().source, "exec.chunk");
      EXPECT_NE(std::find(firing.begin(), firing.end(), e.status().offset),
                firing.end())
          << "fault fired at unpredicted chunk " << e.status().offset;
    }
  }
}

TEST(ExecFault, PoolStaysUsableAfterInjectedFailure) {
  {
    const ScopedInjector scope(Injector::parse("seed=3,exec.chunk=1").take());
    EXPECT_THROW(parallel_for(1000, [](std::size_t) {}, {.grain = 16}),
                 InjectedFault);
  }
  // Injector restored: the same region now completes and is correct.
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&hits](std::size_t i) { hits[i] = 1; },
               {.grain = 16});
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST(ExecFault, ReduceSurvivesAndRecovers) {
  {
    const ScopedInjector scope(Injector::parse("seed=9,exec.chunk=1").take());
    EXPECT_THROW(
        parallel_reduce(
            512, std::size_t{0},
            [](std::size_t b, std::size_t e, std::size_t& acc) {
              acc += e - b;
            },
            [](std::size_t& into, std::size_t&& part) { into += part; },
            {.grain = 32}),
        InjectedFault);
  }
  const std::size_t total = parallel_reduce(
      512, std::size_t{0},
      [](std::size_t b, std::size_t e, std::size_t& acc) { acc += e - b; },
      [](std::size_t& into, std::size_t&& part) { into += part; },
      {.grain = 32});
  EXPECT_EQ(total, 512u);
}

}  // namespace
}  // namespace fa::exec
