// Counted budgets (`ctest -L budget`): costs pinned by counting, not by
// timing, so they fail the same way on any host. This binary replaces
// the global operator new to record the largest single allocation made
// while a budget window is open; it is never built under a sanitizer,
// which brings its own operator new.
//
// Budget: a save allocates no image-sized buffer. Server::save_snapshot
// streams FASHRD01 from the page columns into the generation file
// through a fixed-size write buffer, so no single allocation during the
// save may reach half the image it writes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "serve/server.hpp"
#include "shard/codec.hpp"
#include "../serve/serve_test_util.hpp"
#include "../store/store_test_util.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_largest{0};

void* allocate(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

// The largest single allocation any thread makes between construction
// and largest().
class LargestAllocation {
 public:
  LargestAllocation() {
    g_largest.store(0);
    g_counting.store(true);
  }
  ~LargestAllocation() { g_counting.store(false); }
  LargestAllocation(const LargestAllocation&) = delete;
  LargestAllocation& operator=(const LargestAllocation&) = delete;
  std::size_t largest() const { return g_largest.load(); }
};

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fa::serve {
namespace {

TEST(SaveBudget, NoAllocationReachesHalfTheImage) {
  store::testing::TempDir tmp;
  ServerOptions options;
  options.store_dir = tmp.path;
  Server server(testing::small_config(), options);
  const std::size_t image_bytes =
      shard::encode_sharded(server.snapshots().acquire()->sharded()).size();

  std::size_t largest = 0;
  {
    const LargestAllocation window;
    ASSERT_TRUE(server.save_snapshot().ok());
    largest = window.largest();
  }
  EXPECT_LT(largest, image_bytes / 2)
      << "save_snapshot made a " << largest << "-byte allocation for a "
      << image_bytes << "-byte image";
}

}  // namespace
}  // namespace fa::serve
