// fa::exec contract tests: deterministic chunking, thread-count-invariant
// results (including float reductions), exception propagation, nested
// regions, and the scratch/limit utilities.
#include "exec/exec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fa::exec {
namespace {

TEST(ChunkPlanTest, CoversRangeExactlyOnce) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1000}, std::size_t{1 << 20}}) {
    for (const std::size_t grain : {std::size_t{1}, std::size_t{64},
                                    std::size_t{1024}}) {
      const ChunkPlan plan = ChunkPlan::make(n, grain);
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < plan.chunks; ++c) {
        const auto [begin, end] = plan.bounds(c);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        covered += end - begin;
        expected_begin = end;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " grain=" << grain;
      if (n > 0) EXPECT_GE(plan.chunks, 1u);
    }
  }
}

TEST(ChunkPlanTest, ChunkCountIsCapped) {
  const ChunkPlan plan = ChunkPlan::make(std::size_t{1} << 30, 1);
  EXPECT_EQ(plan.chunks, kMaxChunks);
}

TEST(ChunkPlanTest, RespectsGrain) {
  const ChunkPlan plan = ChunkPlan::make(10000, 1000);
  EXPECT_EQ(plan.chunks, 10u);
}

TEST(ConcurrencyLimitTest, NestsAndRestores) {
  EXPECT_EQ(ConcurrencyLimit::current(), 0);
  {
    ConcurrencyLimit outer(4);
    EXPECT_EQ(ConcurrencyLimit::current(), 4);
    {
      ConcurrencyLimit inner(1);
      EXPECT_EQ(ConcurrencyLimit::current(), 1);
    }
    EXPECT_EQ(ConcurrencyLimit::current(), 4);
  }
  EXPECT_EQ(ConcurrencyLimit::current(), 0);
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, [&visits](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, IdenticalResultsAcrossThreadCounts) {
  const std::size_t n = 50000;
  const auto run = [n](int threads) {
    ConcurrencyLimit limit(threads);
    std::vector<double> out(n);
    parallel_for(
        n, [&out](std::size_t i) { out[i] = std::sqrt(static_cast<double>(i)); },
        {.grain = 128});
    return out;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunksTest, ChunksMatchThePlan) {
  const std::size_t n = 10000;
  const ExecOptions opt{.grain = 256};
  const ChunkPlan plan = ChunkPlan::make(n, opt.grain);
  std::vector<std::atomic<int>> seen(plan.chunks);
  parallel_for_chunks(
      n,
      [&](std::size_t begin, std::size_t end, ChunkContext ctx) {
        const auto [eb, ee] = plan.bounds(ctx.chunk);
        EXPECT_EQ(begin, eb);
        EXPECT_EQ(end, ee);
        seen[ctx.chunk].fetch_add(1, std::memory_order_relaxed);
      },
      opt);
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    EXPECT_EQ(seen[c].load(), 1) << "chunk " << c;
  }
}

TEST(ParallelReduceTest, IntegerSumMatchesSerial) {
  const std::size_t n = 123457;
  const auto total = parallel_reduce(
      n, std::uint64_t{0},
      [](std::size_t begin, std::size_t end, std::uint64_t& acc) {
        for (std::size_t i = begin; i < end; ++i) acc += i;
      },
      [](std::uint64_t& into, std::uint64_t&& part) { into += part; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelReduceTest, FloatReductionBitIdenticalAcrossThreadCounts) {
  // Floating-point addition is not associative; the contract holds anyway
  // because partials are combined serially in chunk order.
  const std::size_t n = 200000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / (i + 1.0);
  }
  const auto run = [&values](int threads) {
    ConcurrencyLimit limit(threads);
    return parallel_reduce(
        values.size(), 0.0,
        [&values](std::size_t begin, std::size_t end, double& acc) {
          for (std::size_t i = begin; i < end; ++i) acc += values[i];
        },
        [](double& into, double&& part) { into += part; }, {.grain = 512});
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));  // bitwise, not EXPECT_DOUBLE_EQ
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelReduceTest, VectorPartialsCombineInChunkOrder) {
  const std::size_t n = 10000;
  const ExecOptions opt{.grain = 64};
  const auto out = parallel_reduce(
      n, std::vector<std::size_t>{},
      [](std::size_t begin, std::size_t end, std::vector<std::size_t>& acc) {
        for (std::size_t i = begin; i < end; ++i) acc.push_back(i);
      },
      [](std::vector<std::size_t>& into, std::vector<std::size_t>&& part) {
        into.insert(into.end(), part.begin(), part.end());
      },
      opt);
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i);  // sorted order
}

TEST(ExceptionTest, PropagatesToCaller) {
  EXPECT_THROW(
      parallel_for(
          10000,
          [](std::size_t i) {
            if (i == 4242) throw std::runtime_error("chunk failure");
          },
          {.grain = 16}),
      std::runtime_error);
}

TEST(ExceptionTest, PoolIsUsableAfterAFailedRegion) {
  try {
    parallel_for(1000, [](std::size_t) { throw std::runtime_error("boom"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<std::size_t> count{0};
  parallel_for(1000, [&count](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 1000u);
}

TEST(ExceptionTest, SerialInlinePathPropagatesToo) {
  ConcurrencyLimit limit(1);
  EXPECT_THROW(parallel_for(100,
                            [](std::size_t i) {
                              if (i == 50) throw std::logic_error("serial");
                            }),
               std::logic_error);
}

TEST(NestedTest, InnerRegionRunsInlineAndCorrectly) {
  const std::size_t outer_n = 64;
  const std::size_t inner_n = 1000;
  std::vector<std::uint64_t> sums(outer_n, 0);
  parallel_for(
      outer_n,
      [&sums, inner_n](std::size_t o) {
        // Nested region: must not deadlock or re-enter the pool.
        sums[o] = parallel_reduce(
            inner_n, std::uint64_t{0},
            [o](std::size_t begin, std::size_t end, std::uint64_t& acc) {
              for (std::size_t i = begin; i < end; ++i) acc += i + o;
            },
            [](std::uint64_t& into, std::uint64_t&& part) { into += part; });
      },
      {.grain = 1});
  const std::uint64_t base = inner_n * (inner_n - 1) / 2;
  for (std::size_t o = 0; o < outer_n; ++o) {
    EXPECT_EQ(sums[o], base + o * inner_n) << "outer " << o;
  }
}

TEST(WorkerScratchTest, OneSlotPerWorkerBuffersAreReused) {
  WorkerScratch<std::vector<int>> scratch;
  EXPECT_EQ(scratch.size(),
            static_cast<std::size_t>(ThreadPool::global().max_workers()));
  std::atomic<std::size_t> total{0};
  parallel_for_chunks(
      100000,
      [&](std::size_t begin, std::size_t end, ChunkContext ctx) {
        std::vector<int>& buf = scratch.at(ctx.worker);
        buf.clear();
        for (std::size_t i = begin; i < end; ++i) {
          buf.push_back(static_cast<int>(i & 7));
        }
        total.fetch_add(buf.size(), std::memory_order_relaxed);
      },
      {.grain = 512});
  EXPECT_EQ(total.load(), 100000u);
}

TEST(ThreadPoolTest, DefaultPoolFollowsHostOrFaThreads) {
  // One worker per hardware thread unless FA_THREADS says otherwise
  // (tests/CMakeLists.txt sets FA_THREADS=8 on every test, so the
  // thread-count sweeps run 8 workers on any host). Garbage falls back
  // to the host size.
  const char* env = std::getenv("FA_THREADS");
  const std::optional<std::string> saved =
      env != nullptr ? std::optional<std::string>(env) : std::nullopt;
  EXPECT_EQ(ThreadPool::global().max_workers(), ThreadPool().max_workers());

  const int host =
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                 ThreadPool::kMaxWorkers);
  ::setenv("FA_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool().max_workers(), 3);
  ::setenv("FA_THREADS", "lots", 1);
  EXPECT_EQ(ThreadPool().max_workers(), host);
  ::unsetenv("FA_THREADS");
  EXPECT_EQ(ThreadPool().max_workers(), host);
  if (saved) ::setenv("FA_THREADS", saved->c_str(), 1);
}

TEST(ThreadPoolTest, OffWorkerThreadByDefault) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  bool inside = false;
  parallel_for(1, [&inside](std::size_t) {
    inside = ThreadPool::on_worker_thread();
  });
  EXPECT_TRUE(inside);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

}  // namespace
}  // namespace fa::exec
