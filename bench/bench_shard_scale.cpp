// Continental scale-out bench: what does geographic sharding buy when
// the corpus is the real 5,364,949 transceivers?
//
// Builds the continental world (FA_SHARD_SCALE divides the corpus for
// smoke runs), persists it twice — one monolithic FASNAP01 image, one
// sharded FASHRD01 container — and measures:
//
//   build_s            full world build from synthesis
//   shard_s            ShardedWorld::from_world over the default layout
//   mono_cold_s        monolithic cold start to first answered point
//                      query (mmap + full decode + adopt + evaluate)
//   shard_cold_s       sharded cold start to first answered point query
//                      (mmap + O(sections) validation, zero decode)
//   mono_qps/shard_qps closed-loop point-query throughput at
//                      FA_SHARD_THREADS threads over each snapshot
//
// Reported in the trailer against their targets (read them from a
// full-scale run; at smoke scale fixed overheads dominate and they miss):
//   cold_speedup  = mono_cold_s / shard_cold_s   >= 10x  (cold_faster)
//   qps_ratio     = shard_qps / mono_qps         >= 2x   (qps_faster)
// Gated by the exit code:
//   identity_ok   — every pooled query answered byte-identically by
//                   both snapshots (the gate that makes the other two
//                   mean anything)
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
#include "shard/recovery.hpp"
#include "shard/world.hpp"
#include "store/codec.hpp"
#include "store/recovery.hpp"
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

  bench::Stopwatch build_timer;
  const core::World world = core::World::build(cfg);
  const core::ProviderRiskResult risk = core::run_provider_risk(world);
  const double build_s = build_timer.seconds();
  std::printf("world build: %.2fs (%zu transceivers)\n", build_s,
              world.corpus().size());

  bench::Stopwatch shard_timer;
  const shard::ShardedWorld sharded =
      shard::ShardedWorld::from_world(world, risk, shard::LayoutOptions{});
  const double shard_s = shard_timer.seconds();
  std::printf("shard: %.2fs (%zu shards)\n", shard_s,
              sharded.shard_count());

  char mono_tmpl[] = "/tmp/fashard-bench-mono-XXXXXX";
  char shrd_tmpl[] = "/tmp/fashard-bench-shrd-XXXXXX";
  const std::string mono_path = ::mkdtemp(mono_tmpl);
  const std::string shrd_path = ::mkdtemp(shrd_tmpl);

  const std::string mono_image = store::encode_world(world, risk);
  const std::string shrd_image = shard::encode_sharded(sharded);
  {
    store::StoreDir mono_dir = store::StoreDir::open(mono_path).take();
    store::StoreDir shrd_dir = store::StoreDir::open(shrd_path).take();
    if (!mono_dir.commit(mono_image).ok() ||
        !shrd_dir.commit(shrd_image).ok()) {
      std::fprintf(stderr, "commit failed\n");
      return 1;
    }
  }
  std::printf("images: monolithic %zu bytes, sharded %zu bytes\n",
              mono_image.size(), shrd_image.size());

  const std::vector<serve::PointRiskQuery> pool = make_pool(512, cfg.seed);

  // Monolithic cold start to first query: full decode, then adopt (which
  // wraps the recovered aggregate) and answer one point query.
  bench::Stopwatch mono_cold_timer;
  fault::Result<store::RecoveredWorld> mono_rec =
      store::recover_from(mono_path);
  if (!mono_rec.ok()) {
    std::fprintf(stderr, "monolithic recover failed: %s\n",
                 mono_rec.status().to_string().c_str());
    return 1;
  }
  const std::shared_ptr<const serve::Snapshot> mono_snap =
      serve::Snapshot::adopt(std::move(mono_rec.value().loaded.world), 1,
                             std::move(mono_rec.value().loaded.provider_risk));
  (void)serve::evaluate(*mono_snap, pool[0]);
  const double mono_cold_s = mono_cold_timer.seconds();
  std::printf("monolithic cold start to first query: %.3fs\n", mono_cold_s);

  // Sharded cold start to first query: zero-copy open, no decode.
  bench::Stopwatch shard_cold_timer;
  fault::Result<shard::RecoveredShardedWorld> shrd_rec =
      shard::recover_sharded(shrd_path);
  if (!shrd_rec.ok()) {
    std::fprintf(stderr, "sharded recover failed: %s\n",
                 shrd_rec.status().to_string().c_str());
    return 1;
  }
  const std::shared_ptr<const serve::Snapshot> shrd_snap =
      serve::Snapshot::adopt_sharded(std::move(shrd_rec.value().world), 1);
  (void)serve::evaluate(*shrd_snap, pool[0]);
  const double shard_cold_s = shard_cold_timer.seconds();
  const double cold_speedup =
      shard_cold_s > 0.0 ? mono_cold_s / shard_cold_s : 0.0;
  const bool cold_faster = cold_speedup >= 10.0;
  std::printf(
      "sharded cold start to first query: %.4fs  (%.0fx, %s the 10x "
      "target)\n",
      shard_cold_s, cold_speedup, cold_faster ? "clears" : "MISSES");

  // Byte-identity spot check over the whole pool before timing anything:
  // a fast wrong answer is not a result.
  std::size_t mismatches = 0;
  for (const serve::PointRiskQuery& q : pool) {
    if (!(serve::evaluate(*mono_snap, q) == serve::evaluate(*shrd_snap, q))) {
      ++mismatches;
    }
  }
  const bool identity_ok = mismatches == 0;
  std::printf("identity: %zu/%zu pooled queries identical\n",
              pool.size() - mismatches, pool.size());

  const double mono_qps = run_qps(*mono_snap, pool, threads, per_thread);
  const double shard_qps = run_qps(*shrd_snap, pool, threads, per_thread);
  const double qps_ratio = mono_qps > 0.0 ? shard_qps / mono_qps : 0.0;
  const bool qps_faster = qps_ratio >= 2.0;
  std::printf(
      "point QPS at %zu threads: monolithic %.0f, sharded %.0f  (%.2fx, "
      "%s the 2x target)\n",
      threads, mono_qps, shard_qps, qps_ratio,
      qps_faster ? "clears" : "MISSES");

  std::error_code ec;
  std::filesystem::remove_all(mono_path, ec);
  std::filesystem::remove_all(shrd_path, ec);

  io::JsonObject payload;
  payload["transceivers"] = world.corpus().size();
  payload["shards"] = sharded.shard_count();
  payload["mono_image_bytes"] = mono_image.size();
  payload["shard_image_bytes"] = shrd_image.size();
  payload["build_s"] = build_s;
  payload["shard_s"] = shard_s;
  payload["mono_cold_s"] = mono_cold_s;
  payload["shard_cold_s"] = shard_cold_s;
  payload["cold_speedup"] = cold_speedup;
  payload["cold_faster"] = cold_faster;
  payload["threads"] = threads;
  payload["mono_qps"] = mono_qps;
  payload["shard_qps"] = shard_qps;
  payload["qps_ratio"] = qps_ratio;
  payload["qps_faster"] = qps_faster;
  payload["identity_ok"] = identity_ok;
  bench::print_json_trailer("shard_scale", io::JsonValue{std::move(payload)},
                            &run_timer);
  return identity_ok ? 0 : 1;
}
