// Continental scale-out bench: what does geographic sharding buy when
// the corpus is the real 5,364,949 transceivers?
//
// Builds the continental world (FA_SHARD_SCALE divides the corpus for
// smoke runs) two ways, persists the served build as a FASHRD01
// container, and measures:
//
//   build_s            World::build from synthesis (the oracle's input)
//   shard_s            ShardedWorld::from_world over the default layout
//   served_build_s     ShardedWorld::build: the World-free build every
//                      server runs (synthesis straight into columns)
//   shard_cold_s       FASHRD01 cold start to first answered point query
//                      through Snapshot::recover (mmap + O(sections)
//                      validation + the per-shard CRC sweep, zero decode)
//   shard_qps          closed-loop point-query throughput at
//                      FA_SHARD_THREADS threads
//
// Gated by the exit code:
//   build_identical — the World-free build's FASHRD01 bytes equal
//                     from_world(World::build)'s
//   identity_ok     — every pooled query answered byte-identically by
//                     the cold-started snapshot and the built one
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "serve/snapshot.hpp"
#include "shard/codec.hpp"
#include "shard/world.hpp"
#include "store/store.hpp"

namespace {

double env_or(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end != value ? parsed : fallback;
}

// Deterministic CONUS point-risk pool; half neighborhood queries, half
// bare cell lookups.
std::vector<fa::serve::PointRiskQuery> make_pool(std::size_t n,
                                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> lon(-122.0, -70.0);
  std::uniform_real_distribution<double> lat(26.0, 48.0);
  std::vector<fa::serve::PointRiskQuery> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(fa::serve::PointRiskQuery{
        {lon(rng), lat(rng)}, (i % 2 == 0) ? 30e3 : 0.0});
  }
  return pool;
}

// Closed loop: `threads` workers each run `per_thread` queries round-
// robin over the pool. Returns queries per second of wall time.
double run_qps(const fa::serve::Snapshot& snap,
               const std::vector<fa::serve::PointRiskQuery>& pool,
               std::size_t threads, std::size_t per_thread) {
  fa::bench::Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&snap, &pool, per_thread, t] {
      std::size_t at = t * 7919;  // decorrelate thread starting points
      volatile std::uint64_t sink = 0;
      for (std::size_t i = 0; i < per_thread; ++i) {
        sink = fa::serve::evaluate(snap, pool[at++ % pool.size()]).nearby_txr;
      }
      (void)sink;
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed = timer.seconds();
  return elapsed > 0.0
             ? static_cast<double>(threads * per_thread) / elapsed
             : 0.0;
}

}  // namespace

int main() {
  using namespace fa;

  bench::Stopwatch run_timer;
  synth::ScenarioConfig cfg = synth::ScenarioConfig::continental();
  cfg.corpus_scale = env_or("FA_SHARD_SCALE", cfg.corpus_scale);
  cfg.whp_cell_m = env_or("FA_CELL_M", cfg.whp_cell_m);
  cfg.seed = static_cast<std::uint64_t>(env_or("FA_SEED", 20191022.0));
  const auto threads =
      static_cast<std::size_t>(env_or("FA_SHARD_THREADS", 8.0));
  const auto per_thread =
      static_cast<std::size_t>(env_or("FA_SHARD_QUERIES", 2000.0));

  std::printf("== fa::shard — continental scale-out ==\n");
  std::printf(
      "scenario: seed=%llu  whp_cell=%.0fm  corpus=1/%.0f of 5,364,949 "
      "(%zu transceivers)\n\n",
      static_cast<unsigned long long>(cfg.seed), cfg.whp_cell_m,
      cfg.corpus_scale, cfg.corpus_size());

  char shrd_tmpl[] = "/tmp/fashard-bench-shrd-XXXXXX";
  const std::string shrd_path = ::mkdtemp(shrd_tmpl);

  // The oracle: a built World, cut by from_world. Scoped so the World is
  // gone before the World-free build runs.
  double build_s = 0.0;
  double shard_s = 0.0;
  std::size_t transceivers = 0;
  std::string oracle_image;
  {
    bench::Stopwatch build_timer;
    const core::World world = core::World::build(cfg);
    const core::ProviderRiskResult risk = core::run_provider_risk(world);
    build_s = build_timer.seconds();
    transceivers = world.corpus().size();
    std::printf("world build: %.2fs (%zu transceivers)\n", build_s,
                transceivers);
    bench::Stopwatch shard_timer;
    const shard::ShardedWorld cut =
        shard::ShardedWorld::from_world(world, risk, shard::LayoutOptions{});
    shard_s = shard_timer.seconds();
    std::printf("from_world: %.2fs (%zu shards)\n", shard_s,
                cut.shard_count());
    oracle_image = shard::encode_sharded(cut);
  }

  double served_build_s = 0.0;
  bool build_identical = false;
  std::size_t shards = 0;
  std::string shrd_image;
  std::shared_ptr<const serve::Snapshot> built_snap;
  {
    bench::Stopwatch served_timer;
    fault::Result<shard::ShardedWorld> built =
        shard::ShardedWorld::build(cfg, {}, shard::LayoutOptions{});
    served_build_s = served_timer.seconds();
    if (!built.ok()) {
      std::fprintf(stderr, "World-free build failed: %s\n",
                   built.status().to_string().c_str());
      return 1;
    }
    shrd_image = shard::encode_sharded(built.value());
    build_identical = shrd_image == oracle_image;
    shards = built.value().shard_count();
    built_snap = serve::Snapshot::adopt(std::move(built).take(), 1);
    std::printf(
        "World-free build: %.2fs (%zu shards), bytes %s from_world's\n",
        served_build_s, shards,
        build_identical ? "identical to" : "DIFFER from");
  }
  oracle_image = {};
  {
    store::StoreDir shrd_dir = store::StoreDir::open(shrd_path).take();
    if (!shrd_dir.commit(shrd_image).ok()) {
      std::fprintf(stderr, "commit failed\n");
      return 1;
    }
  }
  std::printf("image: FASHRD01 %zu bytes\n", shrd_image.size());

  const std::vector<serve::PointRiskQuery> pool = make_pool(512, cfg.seed);

  // Cold start to first query through the serving recovery ladder.
  const auto cold_start = [&pool](const std::string& path, double& seconds)
      -> std::shared_ptr<const serve::Snapshot> {
    bench::Stopwatch timer;
    auto dir = store::StoreDir::open(path, /*create=*/false);
    if (!dir.ok()) return nullptr;
    auto recovered = serve::Snapshot::recover(dir.value(), 1);
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover failed: %s\n",
                   recovered.status().to_string().c_str());
      return nullptr;
    }
    std::shared_ptr<const serve::Snapshot> snap =
        std::move(recovered).take().snapshot;
    (void)serve::evaluate(*snap, pool[0]);
    seconds = timer.seconds();
    return snap;
  };
  double shard_cold_s = 0.0;
  const std::shared_ptr<const serve::Snapshot> shrd_snap =
      cold_start(shrd_path, shard_cold_s);
  if (!shrd_snap) return 1;
  std::printf("FASHRD01 cold start to first query: %.4fs\n", shard_cold_s);

  // Byte-identity spot check over the whole pool before timing anything:
  // a fast wrong answer is not a result.
  std::size_t mismatches = 0;
  for (const serve::PointRiskQuery& q : pool) {
    if (!(serve::evaluate(*built_snap, q) == serve::evaluate(*shrd_snap, q))) {
      ++mismatches;
    }
  }
  const bool identity_ok = mismatches == 0;
  std::printf("identity: %zu/%zu pooled queries identical\n",
              pool.size() - mismatches, pool.size());

  const double shard_qps = run_qps(*shrd_snap, pool, threads, per_thread);
  std::printf("point QPS at %zu threads: %.0f\n", threads, shard_qps);

  std::error_code ec;
  std::filesystem::remove_all(shrd_path, ec);

  io::JsonObject payload;
  payload["transceivers"] = transceivers;
  payload["shards"] = shards;
  payload["shard_image_bytes"] = shrd_image.size();
  payload["build_s"] = build_s;
  payload["shard_s"] = shard_s;
  payload["served_build_s"] = served_build_s;
  payload["build_identical"] = build_identical;
  payload["shard_cold_s"] = shard_cold_s;
  payload["threads"] = threads;
  payload["shard_qps"] = shard_qps;
  payload["identity_ok"] = identity_ok;
  bench::print_json_trailer("shard_scale", io::JsonValue{std::move(payload)},
                            &run_timer);
  return identity_ok && build_identical ? 0 : 1;
}
