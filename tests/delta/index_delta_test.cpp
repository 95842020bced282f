// Incremental spatial-index maintenance for the feed's fire index:
// DynamicRTree must answer every query exactly like a fresh bulk-loaded
// tree, across 1000 seeded randomized op-sequences. The concurrent
// section is a TSan target: const readers race each other with no
// synchronization beyond the API contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "index/dynamic_rtree.hpp"
#include "synth/rng.hpp"

namespace fa::index {
namespace {

// DynamicRTree: overlay/tombstone correctness against a fresh STR pack.

std::vector<DynamicRTree::Entry> boxes_of(
    const std::vector<std::pair<std::uint32_t, geo::BBox>>& live) {
  std::vector<DynamicRTree::Entry> entries;
  entries.reserve(live.size());
  for (const auto& [id, box] : live) entries.push_back({box, id});
  return entries;
}

geo::BBox random_box(synth::Rng& rng) {
  const double x = rng.uniform(-10.0, 9.0);
  const double y = rng.uniform(-5.0, 4.0);
  return {x, y, x + rng.uniform(0.1, 2.0), y + rng.uniform(0.1, 2.0)};
}

TEST(DynamicRTree, ThousandSeededOpSequencesMatchFreshTree) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    synth::Rng rng(seed);
    // Reference: live set as a plain vector (ordered by insertion).
    std::vector<std::pair<std::uint32_t, geo::BBox>> live;
    std::uint32_t next_id = 0;
    const std::size_t n0 = rng.below(40);
    for (std::size_t i = 0; i < n0; ++i) {
      live.push_back({next_id++, random_box(rng)});
    }
    DynamicRTree tree(boxes_of(live), 0.25, 8);
    const int ops = 4 + static_cast<int>(rng.below(28));
    for (int op = 0; op < ops; ++op) {
      switch (rng.below(3)) {
        case 0:  // insert
          live.push_back({next_id, random_box(rng)});
          tree.insert({live.back().second, next_id});
          ++next_id;
          break;
        case 1:  // remove (when non-empty)
          if (!live.empty()) {
            const std::size_t at = rng.below(live.size());
            EXPECT_TRUE(tree.remove(live[at].first));
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
          }
          break;
        default:  // replace (re-insert live id with a new box)
          if (!live.empty()) {
            const std::size_t at = rng.below(live.size());
            live[at].second = random_box(rng);
            tree.insert({live[at].second, live[at].first});
          }
          break;
      }
      ASSERT_EQ(tree.size(), live.size()) << "seed " << seed;
      // Query equivalence against a freshly bulk-loaded tree.
      const RTree fresh(boxes_of(live), 8);
      for (int q = 0; q < 3; ++q) {
        const geo::BBox query = random_box(rng);
        std::vector<std::uint32_t> got = tree.query(query);
        std::vector<std::uint32_t> want;
        fresh.query(query, [&](std::uint32_t id) { want.push_back(id); });
        std::ranges::sort(got);
        std::ranges::sort(want);
        ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
      }
    }
  }
}

TEST(DynamicRTree, RemoveAbsentIdIsFalse) {
  DynamicRTree tree;
  EXPECT_FALSE(tree.remove(5));
  tree.insert({{0, 0, 1, 1}, 5});
  EXPECT_TRUE(tree.remove(5));
  EXPECT_FALSE(tree.remove(5));
}

TEST(DynamicRTree, FindReportsLiveBox) {
  DynamicRTree tree;
  tree.insert({{0, 0, 1, 1}, 9});
  geo::BBox box;
  ASSERT_TRUE(tree.find(9, box));
  EXPECT_EQ(box.min_x, 0.0);
  tree.insert({{2, 2, 3, 3}, 9});  // replace
  ASSERT_TRUE(tree.find(9, box));
  EXPECT_EQ(box.min_x, 2.0);
  tree.remove(9);
  EXPECT_FALSE(tree.find(9, box));
}

TEST(DynamicRTree, CompactionPreservesAnswers) {
  synth::Rng rng(77);
  std::vector<std::pair<std::uint32_t, geo::BBox>> live;
  for (std::uint32_t i = 0; i < 64; ++i) live.push_back({i, random_box(rng)});
  DynamicRTree tree(boxes_of(live), 0.25, 8);
  // Churn enough to cross the compaction threshold several times.
  for (std::uint32_t i = 0; i < 200; ++i) {
    const std::uint32_t id = 64 + i;
    live.push_back({id, random_box(rng)});
    tree.insert({live.back().second, id});
    if (i % 2 == 0 && live.size() > 8) {
      tree.remove(live.front().first);
      live.erase(live.begin());
    }
  }
  tree.compact();
  EXPECT_EQ(tree.overlay_size(), 0u);
  EXPECT_EQ(tree.tombstone_count(), 0u);
  const RTree fresh(boxes_of(live), 8);
  for (int q = 0; q < 20; ++q) {
    const geo::BBox query = random_box(rng);
    std::vector<std::uint32_t> got = tree.query(query);
    std::vector<std::uint32_t> want;
    fresh.query(query, [&](std::uint32_t id) { want.push_back(id); });
    std::ranges::sort(got);
    std::ranges::sort(want);
    EXPECT_EQ(got, want);
  }
}

TEST(DynamicRTree, ConcurrentReadersBetweenMutations) {
  // The contract: const queries race each other freely; mutation is
  // externally synchronized. Readers here run against an immutable
  // phase while the writer prepares the next tree off to the side —
  // the pattern the feed generator and serve layer use. TSan-clean.
  synth::Rng rng(5);
  std::vector<std::pair<std::uint32_t, geo::BBox>> live;
  for (std::uint32_t i = 0; i < 128; ++i) {
    live.push_back({i, random_box(rng)});
  }
  const DynamicRTree tree(boxes_of(live), 0.25, 8);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      synth::Rng r(900 + static_cast<std::uint64_t>(t));
      std::uint64_t hits = 0;
      for (int q = 0; q < 3000; ++q) {
        tree.query(random_box(r), [&](std::uint32_t) { ++hits; });
      }
      total.fetch_add(hits);
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_GT(total.load(), 0u);
}

}  // namespace
}  // namespace fa::index
