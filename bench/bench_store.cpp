// Persistence bench: what does the snapshot store buy at cold start?
//
// Measures, on the env-configured scenario (FA_SCALE/FA_CELL_M/FA_SEED),
// the store fa_served writes and boots from:
//   build_s             ShardedWorld::build from synthesis (the baseline
//                       a store-less boot pays every time)
//   save_s              the save a server runs (Server::save_snapshot's
//                       StoreDir::commit of shard::sharded_image): FASHRD01
//                       streamed from the page columns into the generation
//                       file, with no image-sized buffer; save_cpu_s is
//                       its CPU and save_hwm_step_mb how far it lifts the
//                       process's peak RSS
//   load_s              shard::recover of that generation (mmap, frame
//                       and global checks, deep-verified zero-copy open)
//   recover_fallback_s  the same recovery when the newest generation's
//                       frame is damaged at rest and an older one must
//                       win
//
// The acceptance gate is the trailer's load_speedup (build_s / load_s):
// the mmap cold start must be >= 10x faster than a full rebuild. The
// bench exits non-zero unless the committed generation is byte-equal to
// encode_sharded's string of the same view (save_identical).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "shard/codec.hpp"
#include "shard/recovery.hpp"
#include "shard/world.hpp"
#include "store/store.hpp"

namespace {

// The process's peak resident set so far (VmHWM), in MB.
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace

int main() {
  using namespace fa;

  bench::Stopwatch run_timer;
  const synth::ScenarioConfig cfg = bench::bench_banner(
      "fa::store — snapshot persistence vs full rebuild");
  std::printf("\n");

  // Baseline: the World-free sharded build a store-less server runs.
  bench::Stopwatch build_timer;
  auto built = shard::ShardedWorld::build(
      cfg, core::World::BuildOptions{bench::bench_policy(), nullptr}, {});
  const double build_s = build_timer.seconds();
  if (!built.ok()) {
    std::fprintf(stderr, "sharded build failed: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  const shard::ShardedWorld& view = built.value();
  std::printf("full rebuild: %.3fs (%llu transceivers in %zu shards)\n",
              build_s, static_cast<unsigned long long>(view.total_points()),
              view.shard_count());

  char tmpl[] = "/tmp/fastore-bench-XXXXXX";
  const std::string dir_path = ::mkdtemp(tmpl);

  // Save: the streamed commit a server's save_snapshot runs.
  store::StoreDir dir = store::StoreDir::open(dir_path).take();
  const double hwm_before_mb = peak_rss_mb();
  bench::Stopwatch save_timer;
  fault::Result<store::Generation> committed =
      dir.commit(shard::sharded_image(view));
  const double save_s = save_timer.seconds();
  const double save_cpu_s = save_timer.cpu_seconds();
  const double save_hwm_step_mb = peak_rss_mb() - hwm_before_mb;
  if (!committed.ok()) {
    std::fprintf(stderr, "commit failed: %s\n",
                 committed.status().to_string().c_str());
    return 1;
  }
  const std::string image = shard::encode_sharded(view);
  const bool save_identical =
      slurp(dir.file_path(committed.value().filename)) == image;
  std::printf(
      "save: %.3fs, %.3fs CPU, peak RSS +%.1f MB (%zu bytes, generation "
      "%llu, %s encode_sharded)\n",
      save_s, save_cpu_s, save_hwm_step_mb, image.size(),
      static_cast<unsigned long long>(committed.value().number),
      save_identical ? "byte-identical to" : "DIFFERS from");

  // Load: the cold start fa_served runs (manifest -> mmap -> open).
  bench::Stopwatch load_timer;
  fault::Result<shard::Recovered> loaded = shard::recover(dir);
  const double load_s = load_timer.seconds();
  if (!loaded.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 loaded.status().to_string().c_str());
    return 1;
  }
  std::printf("load: %.3fs (%llu transceivers restored)\n", load_s,
              static_cast<unsigned long long>(
                  loaded.value().world.total_points()));

  // Degraded recovery: the newest generation's header is damaged at
  // rest, so its frame is unreadable and the older generation wins. (A
  // flipped payload byte would only quarantine one shard.)
  std::string bad = image;
  bad[20] ^= 0x20;
  (void)dir.commit(bad);
  bench::Stopwatch fallback_timer;
  fault::Result<shard::Recovered> fallback = shard::recover(dir);
  const double fallback_s = fallback_timer.seconds();
  const bool fallback_ok =
      fallback.ok() && fallback.value().generation.number == 1;
  std::printf("recover (newest corrupt): %.3fs, fell back to generation %llu\n",
              fallback_s,
              fallback.ok() ? static_cast<unsigned long long>(
                                  fallback.value().generation.number)
                            : 0ull);

  const double speedup = load_s > 0.0 ? build_s / load_s : 0.0;
  const bool load_faster = speedup >= 10.0;
  std::printf("cold start speedup: %.1fx (%s the 10x gate)\n", speedup,
              load_faster ? "clears" : "MISSES");

  std::error_code ec;
  std::filesystem::remove_all(dir_path, ec);

  io::JsonObject payload;
  payload["transceivers"] = static_cast<std::size_t>(view.total_points());
  payload["image_bytes"] = image.size();
  payload["build_s"] = build_s;
  payload["save_s"] = save_s;
  payload["save_cpu_s"] = save_cpu_s;
  payload["save_hwm_step_mb"] = save_hwm_step_mb;
  payload["save_identical"] = save_identical;
  payload["load_s"] = load_s;
  payload["recover_fallback_s"] = fallback_s;
  payload["fallback_to_older_generation"] = fallback_ok;
  payload["load_speedup"] = speedup;
  payload["load_faster"] = load_faster;
  bench::print_json_trailer("store", io::JsonValue{std::move(payload)},
                            &run_timer);
  return save_identical ? 0 : 1;
}
