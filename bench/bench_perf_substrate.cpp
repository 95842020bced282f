// Performance substrate report, in two parts:
//
//   1. fa::exec scaling — the Section 3.3 overlay primitive
//      (transceivers_in_perimeters) timed at 1/2/4/8 worker threads via
//      exec::ConcurrencyLimit, with an output-equality check against the
//      single-thread run and a machine-readable JSON trailer. Speedups
//      are whatever the host delivers: on a single-CPU container the
//      multi-thread rows measure scheduling overhead, not speedup.
//
//   2. Microbenchmarks of the GIS substrate (google-benchmark): the
//      overlay primitives whose cost dominates the reproduction
//      pipeline, the uniform-grid point index among them. Filter with
//      --benchmark_filter=...
#include <benchmark/benchmark.h>

#include <cstdio>
#include <numbers>
#include <random>
#include <thread>

#include "bench_common.hpp"
#include "core/overlay.hpp"
#include "exec/exec.hpp"
#include "firesim/fire.hpp"
#include "geo/algorithms.hpp"
#include "geo/buffer.hpp"
#include "geo/projection.hpp"
#include "index/grid_index.hpp"
#include "raster/morphology.hpp"
#include "raster/rasterize.hpp"
#include "synth/noise.hpp"

namespace {

using namespace fa;

// ---------------------------------------------------------------- part 1

void run_overlay_scaling_report() {
  bench::Stopwatch run_timer;
  core::AnalysisContext& ctx =
      bench::bench_context("Perf substrate: fa::exec overlay scaling");
  const core::World& world = ctx.world();

  // One simulated fire season gives the overlay a realistic workload:
  // a few hundred irregular perimeters against the full corpus index.
  firesim::FireSimulator sim(world.whp(), world.atlas(),
                             world.config().seed);
  const firesim::FireSeason season =
      sim.simulate_year(ctx.historical_years().back(), ctx.fire_config);
  std::printf("workload: %zu fire perimeters vs %zu transceivers\n",
              season.fires.size(), world.corpus().size());
  std::printf("host: %u hardware threads, pool of %d workers\n\n",
              std::thread::hardware_concurrency(),
              exec::ThreadPool::global().max_workers());

  constexpr int kReps = 3;
  const int thread_counts[] = {1, 2, 4, 8};
  std::vector<std::uint32_t> reference;
  double serial_s = 0.0;
  bool all_identical = true;

  core::TextTable table(
      {"Threads", "Best of 3 (ms)", "Speedup vs 1", "Hits", "Identical"});
  io::JsonArray rows;
  for (const int threads : thread_counts) {
    exec::ConcurrencyLimit limit(threads);
    double best = 0.0;
    std::vector<std::uint32_t> hits;
    for (int rep = 0; rep < kReps; ++rep) {
      bench::Stopwatch sw;
      hits = core::transceivers_in_perimeters(world, season.fires);
      const double s = sw.seconds();
      if (rep == 0 || s < best) best = s;
    }
    if (threads == 1) {
      reference = hits;
      serial_s = best;
    }
    const bool identical = hits == reference;
    all_identical = all_identical && identical;
    const double speedup = best > 0.0 ? serial_s / best : 0.0;
    table.add_row({std::to_string(threads),
                   core::fmt_double(best * 1e3, 2),
                   core::fmt_double(speedup, 2) + "x",
                   core::fmt_count(hits.size()), identical ? "yes" : "NO"});
    rows.push_back(io::JsonObject{{"threads", threads},
                                  {"best_ms", best * 1e3},
                                  {"speedup", speedup},
                                  {"hits", hits.size()},
                                  {"identical", identical}});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("determinism: every thread count produced %s output\n\n",
              all_identical ? "identical" : "DIVERGENT");

  io::JsonObject payload;
  payload["hardware_threads"] =
      static_cast<int>(std::thread::hardware_concurrency());
  payload["pool_workers"] = exec::ThreadPool::global().max_workers();
  payload["perimeters"] = season.fires.size();
  payload["transceivers"] = world.corpus().size();
  payload["identical_across_threads"] = all_identical;
  payload["scaling"] = io::JsonValue{std::move(rows)};
  bench::print_json_trailer("perf_substrate_scaling",
                            io::JsonValue{std::move(payload)}, &run_timer);
  std::printf("\n");
}

// ---------------------------------------------------------------- part 2

std::vector<geo::Vec2> random_points(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> x(-125.0, -66.0);
  std::uniform_real_distribution<double> y(24.0, 50.0);
  std::vector<geo::Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pts.push_back({x(rng), y(rng)});
  return pts;
}

geo::Ring irregular_ring(int vertices) {
  std::vector<geo::Vec2> pts;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> jitter(0.7, 1.3);
  for (int i = 0; i < vertices; ++i) {
    const double t = 2.0 * std::numbers::pi * i / vertices;
    const double r = jitter(rng);
    pts.push_back({r * std::cos(t), r * std::sin(t)});
  }
  return geo::Ring{std::move(pts)};
}

void BM_PointInPolygon(benchmark::State& state) {
  const geo::Ring ring = irregular_ring(static_cast<int>(state.range(0)));
  const auto pts = random_points(1024, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    const geo::Vec2 p{pts[i & 1023].x / 60.0, pts[i & 1023].y / 60.0};
    benchmark::DoNotOptimize(ring.contains(p));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PointInPolygon)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_GridIndexQuery(benchmark::State& state) {
  // The corpus's point index: one inflated-point probe per iteration.
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 13);
  const index::GridIndex idx(pts, geo::BBox{-125, 24, -66, 50}, 256, 128);
  std::size_t i = 0;
  std::size_t found = 0;
  for (auto _ : state) {
    const geo::Vec2 q = pts[i % pts.size()];
    idx.query(geo::BBox::of_point(q).inflated(0.05),
              [&found](std::uint32_t, geo::Vec2) { ++found; });
    ++i;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GridIndexQuery)->Arg(1000)->Arg(100000);

void BM_ParallelReduce(benchmark::State& state) {
  // fa::exec region overhead + throughput on a trivially-parallel sum,
  // swept over thread caps (Arg = ConcurrencyLimit; 1 = serial inline
  // path; caps above the pool's workers run with all of them).
  const std::size_t n = 1 << 20;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<double>(i % 97) * 0.25;
  }
  const exec::ConcurrencyLimit limit(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const double total = exec::parallel_reduce(
        n, 0.0,
        [&values](std::size_t begin, std::size_t end, double& acc) {
          for (std::size_t i = begin; i < end; ++i) acc += values[i];
        },
        [](double& into, double&& part) { into += part; },
        {.grain = 1 << 14});
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelReduce)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RasterizePolygon(benchmark::State& state) {
  raster::GridGeometry geom;
  geom.origin_x = -2.0;
  geom.origin_y = -2.0;
  geom.cell_w = geom.cell_h = 4.0 / state.range(0);
  geom.cols = geom.rows = static_cast<int>(state.range(0));
  const geo::Polygon poly{irregular_ring(64)};
  raster::MaskRaster mask(geom, 0);
  for (auto _ : state) {
    mask.fill(0);
    raster::rasterize_polygon(mask, poly, 1);
    benchmark::DoNotOptimize(mask.data().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_RasterizePolygon)->Arg(64)->Arg(256)->Arg(1024);

void BM_DistanceTransform(benchmark::State& state) {
  raster::GridGeometry geom;
  geom.cell_w = geom.cell_h = 270.0;
  geom.cols = geom.rows = static_cast<int>(state.range(0));
  raster::MaskRaster mask(geom, 0);
  std::mt19937_64 rng(5);
  for (int k = 0; k < geom.cols; ++k) {
    mask.at(static_cast<int>(rng() % geom.cols),
            static_cast<int>(rng() % geom.rows)) = 1;
  }
  for (auto _ : state) {
    const raster::FloatRaster d = raster::distance_transform(mask);
    benchmark::DoNotOptimize(d.data().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_DistanceTransform)->Arg(256)->Arg(1024);

void BM_AlbersForward(benchmark::State& state) {
  const geo::AlbersConus proj;
  const auto pts = random_points(1024, 17);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        proj.forward(geo::LonLat::from_vec(pts[i & 1023])));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AlbersForward);

void BM_FbmNoise(benchmark::State& state) {
  const synth::ValueNoise noise(42);
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(noise.fbm(x, -x * 0.7, 4));
    x += 0.01;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FbmNoise);

void BM_BufferHull(benchmark::State& state) {
  const geo::Ring ring = irregular_ring(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::buffer_hull(ring, 0.1));
  }
}
BENCHMARK(BM_BufferHull)->Arg(16)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  run_overlay_scaling_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
