// Incremental-update bench: what does the shard-native delta apply buy
// over rebuilding?
//
// Measures, on the env-configured scenario (FA_SCALE/FA_CELL_M/FA_SEED):
//   rebuild_s        ShardedWorld::build of the scenario over the default
//                    16-shard layout — the update-to-serving latency a
//                    rebuild-per-change server pays (Server::rebuild)
//   apply_mean_s     mean feed-batch apply (ingest + shard::apply_delta
//                    over the shard pages), measured over FA_DELTA_TICKS
//                    batches of a live synthetic feed
//   apply_p99_s      worst batches observed (fires dirty whole regions)
//   apply_steady_mean_s  the mean without the first tick, whose apply
//                    builds the lineage index over the whole corpus
// Per tick it also reports what the apply copied — pages rewritten,
// pages shared with the base, column bytes written — so its cost can be
// read against the batch rather than the corpus; dirty_transceivers
// sums the applies' ApplyStats (movers, adds, and the survivors inside a
// dirty region).
//
// The acceptance gates: delta_speedup (rebuild / mean apply) must be
// >= 10x, and the final epoch must be byte-identical (encode_sharded) to
// a from-scratch cut of World::from_parts over its materialized corpus.
// The exit code is non-zero when either misses — a fast wrong answer or
// a slow right one fails the run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "delta/apply.hpp"
#include "delta/feed.hpp"
#include "shard/apply.hpp"
#include "shard/codec.hpp"

namespace {

struct ApplyTimes {
  double mean_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

ApplyTimes summarize(std::vector<double> seconds) {
  ApplyTimes t;
  if (seconds.empty()) return t;
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  std::sort(seconds.begin(), seconds.end());
  t.mean_s = sum / static_cast<double>(seconds.size());
  t.p99_s = seconds[std::min(seconds.size() - 1,
                             static_cast<std::size_t>(
                                 static_cast<double>(seconds.size()) * 0.99))];
  t.max_s = seconds.back();
  return t;
}

}  // namespace

int main() {
  using namespace fa;

  bench::Stopwatch run_timer;
  const synth::ScenarioConfig cfg = bench::bench_banner(
      "fa::delta — incremental epoch updates vs full rebuild");
  std::printf("\n");

  const char* ticks_env = std::getenv("FA_DELTA_TICKS");
  const std::size_t ticks =
      ticks_env ? static_cast<std::size_t>(std::atol(ticks_env)) : 16;

  // Baseline: the rebuild-per-change path, the World-free sharded build
  // a server's rebuild runs.
  bench::Stopwatch rebuild_timer;
  auto built = shard::ShardedWorld::build(
      cfg, core::World::BuildOptions{bench::bench_policy(), nullptr}, {});
  const double rebuild_s = rebuild_timer.seconds();
  if (!built.ok()) {
    std::fprintf(stderr, "sharded build failed: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  shard::ShardedWorld view = std::move(built).take();
  std::printf("full rebuild: %.3fs (%llu transceivers in %zu shards)\n",
              rebuild_s, static_cast<unsigned long long>(view.total_points()),
              view.shard_count());

  // Delta path: a live feed over the view, one epoch per batch (the
  // generator mirrors the view's positions, as fa_served's feed does).
  auto positions = view.positions_by_id();
  if (!positions.ok()) {
    std::fprintf(stderr, "positions failed: %s\n",
                 positions.status().to_string().c_str());
    return 1;
  }
  delta::FeedOptions feed_options;
  feed_options.seed = cfg.seed + 1;
  delta::FeedGenerator gen(std::move(positions).take(), feed_options);
  delta::FeedIngestor ingestor;
  std::vector<double> apply_s;
  std::size_t events_applied = 0;
  std::size_t dirty_total = 0;
  std::size_t shards_rebuilt = 0;
  std::vector<std::size_t> pages_rewritten;
  std::vector<std::size_t> pages_shared;
  std::vector<std::size_t> bytes_copied;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    std::vector<delta::FeedEvent> raw = gen.tick();
    bench::Stopwatch apply_timer;
    auto cleaned = ingestor.ingest(std::move(raw));
    if (!cleaned.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   cleaned.status().to_string().c_str());
      return 1;
    }
    auto applied = shard::apply_delta(view, cleaned.value(), {});
    if (!applied.ok()) {
      std::fprintf(stderr, "apply failed: %s\n",
                   applied.status().to_string().c_str());
      return 1;
    }
    shard::Successor result = std::move(applied).take();
    apply_s.push_back(apply_timer.seconds());
    events_applied += result.stats.events - result.stats.quarantined;
    dirty_total += result.stats.dirty_transceivers;
    shards_rebuilt += result.shards.rebuilt;
    pages_rewritten.push_back(result.shards.pages_rewritten);
    pages_shared.push_back(result.shards.pages_shared);
    bytes_copied.push_back(result.shards.bytes_copied);
    view = std::move(result.world);
  }
  const ApplyTimes times = summarize(apply_s);
  const ApplyTimes steady = summarize(
      apply_s.size() > 1 ? std::vector<double>(apply_s.begin() + 1,
                                               apply_s.end())
                         : apply_s);
  std::printf(
      "shard-native apply: %zu batches, %zu events, mean %.4fs, max %.4fs, "
      "mean %.4fs after the first tick (%zu dirty transceivers, %zu shard "
      "rewrites)\n",
      ticks, events_applied, times.mean_s, times.max_s, steady.mean_s,
      dirty_total, shards_rebuilt);

  // Correctness gate: the final delta-built epoch must be byte-identical
  // to a from-scratch rebuild of the same state, cut over the same
  // layout.
  auto materialized = view.materialize();
  if (!materialized.ok()) {
    std::fprintf(stderr, "materialize failed: %s\n",
                 materialized.status().to_string().c_str());
    return 1;
  }
  const core::World& final_world = materialized.value();
  auto reference = core::World::from_parts(
      cellnet::CellCorpus(std::vector<cellnet::Transceiver>(
          final_world.corpus().transceivers())),
      final_world.whp_ptr(), final_world.counties_ptr(),
      final_world.config(), {});
  if (!reference.ok()) {
    std::fprintf(stderr, "reference rebuild failed: %s\n",
                 reference.status().to_string().c_str());
    return 1;
  }
  const core::World& ref_world = reference.value();
  const bool byte_identical =
      shard::encode_sharded(view) ==
      shard::encode_sharded(shard::ShardedWorld::from_world(
          ref_world, core::run_provider_risk(ref_world), view.layout()));
  if (!byte_identical) {
    std::fprintf(stderr,
                 "FAIL: shard-native epoch diverges from a fresh rebuild\n");
  }

  const double speedup = times.mean_s > 0.0 ? rebuild_s / times.mean_s : 0.0;
  const bool delta_faster = speedup >= 10.0;
  std::printf("update-to-serving speedup: %.1fx (%s the 10x gate)\n",
              speedup, delta_faster ? "clears" : "MISSES");

  io::JsonObject payload;
  payload["transceivers"] = static_cast<std::size_t>(view.total_points());
  payload["shards"] = view.shard_count();
  payload["ticks"] = ticks;
  payload["events_applied"] = events_applied;
  payload["dirty_transceivers"] = dirty_total;
  payload["rebuild_s"] = rebuild_s;
  payload["apply_mean_s"] = times.mean_s;
  payload["apply_p99_s"] = times.p99_s;
  payload["apply_max_s"] = times.max_s;
  payload["apply_steady_mean_s"] = steady.mean_s;
  payload["shards_rebuilt"] = shards_rebuilt;
  const auto array = [](const auto& values) {
    return io::JsonArray(values.begin(), values.end());
  };
  payload["apply_tick_s"] = array(apply_s);
  payload["pages_rewritten"] = array(pages_rewritten);
  payload["pages_shared"] = array(pages_shared);
  payload["bytes_copied"] = array(bytes_copied);
  payload["byte_identical"] = byte_identical;
  payload["delta_speedup"] = speedup;
  payload["delta_faster"] = delta_faster;
  bench::print_json_trailer("delta_ingest", io::JsonValue{std::move(payload)},
                            &run_timer);
  return byte_identical && delta_faster ? 0 : 1;
}
