// The tentpole contract: scatter/gather over shards answers every query
// family byte-identically to a brute-force scan of the whole corpus (the
// reference evaluator in tests/serve/reference_eval.hpp) — randomized
// streams, tile-edge points, boxes straddling several shards, empty
// ocean tiles, and readers racing each other over one snapshot and one
// cached server (which thread asks, and how many ask at once, cannot
// leak into response bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "serve/planner.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "shard_test_util.hpp"

namespace fa::shard {
namespace {

namespace st = fa::serve::testing;
using st::AnyQuery;
using st::AnyResponse;
using st::ask_snapshot;
using testing::ask_reference;
using testing::sharded_snapshot;
using testing::small_sharded;

void expect_stream_identical(const std::vector<AnyQuery>& stream) {
  const serve::Snapshot& shrd = *sharded_snapshot();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const AnyResponse a = ask_reference(stream[i]);
    const AnyResponse b = ask_snapshot(shrd, stream[i]);
    ASSERT_TRUE(a == b) << "query " << i
                        << ": sharded answer diverged from the reference";
  }
}

// Top-K discs over the test world's densest metros (its most populous
// quarter-degree cells), at k = 0, 1, 8, the disc's whole candidate
// count and the wire cap: the planner's k-bounded heap and its class
// skip must keep exactly the reference's k riskiest, class ties at the
// heap's boundary included.
std::vector<AnyQuery> dense_metro_top_k() {
  std::map<std::pair<int, int>, std::size_t> cells;
  for (const cellnet::Transceiver& t :
       testing::small_world().corpus().transceivers()) {
    ++cells[{static_cast<int>(std::floor(t.position.lon * 4.0)),
             static_cast<int>(std::floor(t.position.lat * 4.0))}];
  }
  std::vector<std::pair<std::size_t, std::pair<int, int>>> densest;
  for (const auto& [cell, count] : cells) densest.push_back({count, cell});
  std::sort(densest.rbegin(), densest.rend());
  densest.resize(std::min<std::size_t>(densest.size(), 4));

  std::vector<AnyQuery> stream;
  std::uint32_t most = 0;
  for (const auto& [count, cell] : densest) {
    const geo::LonLat center{(cell.first + 0.5) / 4.0,
                             (cell.second + 0.5) / 4.0};
    for (const double radius_m : {10e3, 25e3}) {
      const std::uint32_t all =
          std::get<serve::TopKSitesResponse>(
              ask_reference(serve::TopKSitesQuery{center, radius_m, 0}))
              .candidates;
      most = std::max(most, all);
      for (const std::uint32_t k :
           {0u, 1u, 8u, all, serve::wire::kMaxTopK}) {
        stream.push_back(serve::TopKSitesQuery{center, radius_m, k});
      }
    }
  }
  EXPECT_GT(most, 8u) << "no metro disc holds more sites than k";
  return stream;
}

TEST(ShardEquivalence, RandomizedStreamMatchesMonolithic) {
  std::vector<AnyQuery> stream = st::make_stream(600, 11, 96);
  const std::vector<AnyQuery> metros = dense_metro_top_k();
  stream.insert(stream.end(), metros.begin(), metros.end());
  expect_stream_identical(stream);
}

// The trig-free disc prefilter may never disagree with the exact
// haversine test it short-circuits: a "provably inside" verdict must
// mean d <= r and "provably outside" must mean d > r, for points thrown
// across the disc bbox (dense near the boundary annulus, where the
// bounds are tightest) at several radii and latitudes.
TEST(ShardEquivalence, DiscFilterNeverContradictsHaversine) {
  std::mt19937_64 rng(20191022);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double radii_m[] = {250.0, 5e3, 30e3, 400e3};
  const double center_lats[] = {0.0, 26.0, 44.5, 71.0};
  std::size_t decided = 0, total = 0;
  for (const double r : radii_m) {
    for (const double clat : center_lats) {
      const geo::LonLat c{-100.25, clat};
      const geo::BBox box = serve::detail::disc_bbox(c, r);
      const serve::detail::DiscFilter filter(c, r, box);
      for (int i = 0; i < 4000; ++i) {
        // Half uniform over the box, half pinned to a thin band around
        // the disc edge where misclassification would actually bite.
        geo::LonLat p;
        if (i % 2 == 0) {
          p = {box.min_x + unit(rng) * (box.max_x - box.min_x),
               box.min_y + unit(rng) * (box.max_y - box.min_y)};
        } else {
          const double bearing = unit(rng) * 360.0;
          const double d = r * (0.999 + 0.002 * unit(rng));
          p = geo::destination(c, bearing, d);
        }
        if (!box.contains(p.as_vec())) continue;
        const bool inside = geo::haversine_m(c, p) <= r;
        const int side = filter.classify(p.lon, p.lat);
        ++total;
        if (side != 0) {
          ++decided;
          ASSERT_EQ(side > 0, inside)
              << "filter contradicted haversine at r=" << r
              << " lat=" << clat << " point (" << p.lon << ", " << p.lat
              << ")";
        }
      }
    }
  }
  // The fast path must actually fire — most candidates, not a sliver.
  EXPECT_GT(decided, total * 3 / 4);
}

// The concurrency a served query does meet: the net IO thread, the
// pool workers and in-process callers read one snapshot, and one cached
// server, at once. Eight threads answer the same stream together, each
// from its own offset so first-touch misses, cache fills and hits
// interleave across threads; every answer equals the serial one.
TEST(ShardEquivalence, ConcurrentReadersMatchSerialAnswers) {
  constexpr std::size_t kThreads = 8;
  const std::vector<AnyQuery> stream = st::make_stream(250, 29, 64);
  expect_stream_identical(stream);
  const serve::Snapshot& shrd = *sharded_snapshot();
  std::vector<AnyResponse> serial;
  for (const AnyQuery& q : stream) serial.push_back(ask_snapshot(shrd, q));
  serve::ServerOptions options;
  options.shard_layout = testing::small_layout();
  serve::Server server(st::small_config(), options);

  std::vector<std::vector<AnyResponse>> from_snapshot(
      kThreads, std::vector<AnyResponse>(stream.size()));
  std::vector<std::vector<AnyResponse>> from_server = from_snapshot;
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t n = 0; n < stream.size(); ++n) {
        const std::size_t i = (n + t * stream.size() / kThreads) % stream.size();
        from_snapshot[t][i] = ask_snapshot(shrd, stream[i]);
        from_server[t][i] = st::ask(server, stream[i]);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(from_snapshot[t][i] == serial[i])
          << "thread " << t << ", query " << i
          << ": a concurrent snapshot read diverged from the serial one";
      ASSERT_TRUE(from_server[t][i] == serial[i])
          << "thread " << t << ", query " << i
          << ": a concurrent cached answer diverged from the serial one";
    }
  }
}

TEST(ShardEquivalence, TileEdgePointsRouteAndMatch) {
  const ShardLayout& layout = small_sharded().layout();
  // Probe every shard's bounds corners and edge midpoints: positions
  // that sit exactly on tile boundaries, where a clamping mismatch
  // between planner and index would double-count or drop neighbors.
  std::vector<AnyQuery> stream;
  for (std::size_t s = 0; s < layout.shard_count(); ++s) {
    const geo::BBox& b = layout.extent(s).bounds;
    const double xs[] = {b.min_x, (b.min_x + b.max_x) / 2, b.max_x};
    const double ys[] = {b.min_y, (b.min_y + b.max_y) / 2, b.max_y};
    for (const double x : xs) {
      for (const double y : ys) {
        stream.push_back(serve::PointRiskQuery{{x, y}, 40e3});
        stream.push_back(serve::TopKSitesQuery{{x, y}, 50e3, 6});
      }
    }
  }
  expect_stream_identical(stream);
}

TEST(ShardEquivalence, BoxesStraddlingShardsFanOutAndMatch) {
  const ShardLayout& layout = small_sharded().layout();
  const geo::BBox& d = layout.domain();
  // Domain-height slabs crossing every vertical cut, plus the whole
  // domain: each must fan out across >= 2 shards and still merge to the
  // reference bytes.
  std::vector<AnyQuery> stream;
  std::size_t straddling = 0;
  for (int i = 1; i < 8; ++i) {
    const double x = d.min_x + (d.max_x - d.min_x) * i / 8.0;
    const geo::BBox slab{x - 1.0, d.min_y, x + 1.0, d.max_y};
    if (layout.shards_overlapping(slab).size() >= 2) ++straddling;
    stream.push_back(serve::BBoxAggregateQuery{slab});
  }
  stream.push_back(serve::BBoxAggregateQuery{d});
  ASSERT_EQ(layout.shards_overlapping(d).size(), layout.shard_count());
  ASSERT_GT(straddling, 0u) << "no slab straddled a shard boundary";
  expect_stream_identical(stream);
}

TEST(ShardEquivalence, EmptyOceanTileAnswersEmptyAndIdentical) {
  const geo::BBox& d = small_sharded().layout().domain();
  const double w = (d.max_x - d.min_x) * 0.05;
  const double h = (d.max_y - d.min_y) * 0.05;
  const geo::BBox corners[] = {
      {d.min_x, d.min_y, d.min_x + w, d.min_y + h},
      {d.max_x - w, d.min_y, d.max_x, d.min_y + h},
      {d.min_x, d.max_y - h, d.min_x + w, d.max_y},
      {d.max_x - w, d.max_y - h, d.max_x, d.max_y},
  };
  const serve::Snapshot& shrd = *sharded_snapshot();
  bool found_empty = false;
  for (const geo::BBox& corner : corners) {
    const serve::BBoxAggregateQuery q{corner};
    const serve::BBoxAggregateResponse a =
        std::get<serve::BBoxAggregateResponse>(ask_reference(q));
    const serve::BBoxAggregateResponse b = serve::evaluate(shrd, q);
    ASSERT_TRUE(a == b);
    if (a.transceivers == 0) found_empty = true;
  }
  // The synthetic CONUS domain corners reach into ocean; at least one
  // corner box must be genuinely empty for this test to mean anything.
  EXPECT_TRUE(found_empty) << "no empty corner tile found in the domain";
}

TEST(ShardEquivalence, ProviderExposureReadsTheSameAggregate) {
  const serve::Snapshot& shrd = *sharded_snapshot();
  for (int p = 0; p < static_cast<int>(cellnet::kNumProviders); ++p) {
    const serve::ProviderExposureQuery q{static_cast<cellnet::Provider>(p)};
    ASSERT_TRUE(std::get<serve::ProviderExposureResponse>(ask_reference(q)) ==
                serve::evaluate(shrd, q));
  }
}

TEST(ShardEquivalence, MaterializedShardedSnapshotStillPlansSharded) {
  // A snapshot that has materialized its world (a tool or harness
  // called world()) must keep answering interactive queries through the
  // planner, with the same bytes.
  const serve::Snapshot& shrd = *sharded_snapshot();
  (void)shrd.world();  // force materialization
  expect_stream_identical(st::make_stream(120, 43));
}

}  // namespace
}  // namespace fa::shard
