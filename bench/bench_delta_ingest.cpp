// Incremental-update bench: what does fa::delta buy over rebuilding?
//
// Measures, on the env-configured scenario (FA_SCALE/FA_CELL_M/FA_SEED):
//   rebuild_s        full from-scratch world build + provider-risk
//                    re-tally — the update-to-serving latency a
//                    rebuild-per-change deployment pays
//   apply_mean_s     mean feed-batch apply (ingest + copy-on-write
//                    apply + incremental index/risk maintenance) —
//                    the latency the delta path pays, measured over
//                    FA_DELTA_TICKS batches of a live synthetic feed
//   apply_p99_s      worst batch observed (fires dirty whole regions)
// and the same for the sharded serving view (the default shard layout
// over the same world): sharded_rebuild_s adds the re-shard a
// rebuild-per-change sharded deployment pays, and sharded_apply_*_s
// time the same feed through the shard-native apply (shard::apply_delta)
// over the shard pages. Per tick, the sharded row also reports what the
// apply copied — pages rewritten, pages shared with the base, column
// bytes written — so its cost can be read against the batch rather than
// the corpus; sharded_apply_steady_mean_s leaves out the first tick,
// whose apply builds the lineage index over the whole corpus.
//
// The acceptance gates are the trailer's delta_speedup and
// sharded_speedup (rebuild / mean apply): publishing a delta-built
// epoch must be >= 10x faster than the full rebuild it replaces, on
// both paths. Each final epoch is also checked byte-identical to a
// from-scratch rebuild of the same state (the sharded one as
// encode_sharded of a fresh re-shard over the same layout). The exit
// code is non-zero when any gate misses — a fast wrong answer or a slow
// right one fails the run.
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
#include "store/codec.hpp"

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
  core::AnalysisContext& ctx = bench::bench_context(
      "fa::delta — incremental epoch updates vs full rebuild");
  const synth::ScenarioConfig cfg = ctx.world().config();

  const char* ticks_env = std::getenv("FA_DELTA_TICKS");
  const std::size_t ticks =
      ticks_env ? static_cast<std::size_t>(std::atol(ticks_env)) : 16;

  // Baseline: the rebuild-per-change path (fresh build, fresh tally),
  // plus the re-shard a sharded deployment adds on top.
  bench::Stopwatch rebuild_timer;
  core::World rebuilt = core::World::build(cfg);
  core::ProviderRiskResult rebuilt_risk = core::run_provider_risk(rebuilt);
  const double rebuild_s = rebuild_timer.seconds();
  bench::Stopwatch shard_timer;
  shard::ShardedWorld view =
      shard::ShardedWorld::from_world(rebuilt, rebuilt_risk);
  const double sharded_rebuild_s = rebuild_s + shard_timer.seconds();
  std::printf("full rebuild: %.3fs (%zu transceivers), +%.3fs to shard "
              "into %zu\n",
              rebuild_s, rebuilt.corpus().size(),
              sharded_rebuild_s - rebuild_s, view.shard_count());

  // Delta path: a live feed over the same world, one epoch per batch,
  // through both appliers (each with its own generator and ingestor
  // seeded alike, so both see the same batches).
  delta::FeedOptions feed_options;
  feed_options.seed = cfg.seed + 1;
  delta::FeedGenerator gen(rebuilt, feed_options);
  delta::FeedGenerator sharded_gen(rebuilt, feed_options);
  delta::FeedIngestor ingestor;
  delta::FeedIngestor sharded_ingestor;
  core::World world = std::move(rebuilt);
  core::ProviderRiskResult risk = std::move(rebuilt_risk);
  std::vector<double> apply_s;
  std::vector<double> sharded_apply_s;
  std::size_t events_applied = 0;
  std::size_t dirty_total = 0;
  std::size_t shards_rebuilt = 0;
  std::vector<std::size_t> pages_rewritten;
  std::vector<std::size_t> pages_shared;
  std::vector<std::size_t> bytes_copied;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    {
      std::vector<delta::FeedEvent> raw = gen.tick();
      bench::Stopwatch apply_timer;
      auto cleaned = ingestor.ingest(std::move(raw));
      if (!cleaned.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     cleaned.status().to_string().c_str());
        return 1;
      }
      auto applied = delta::Applier::apply(world, risk, cleaned.value(), {});
      if (!applied.ok()) {
        std::fprintf(stderr, "apply failed: %s\n",
                     applied.status().to_string().c_str());
        return 1;
      }
      delta::ApplyResult result = std::move(applied).take();
      apply_s.push_back(apply_timer.seconds());
      events_applied += result.stats.events - result.stats.quarantined;
      dirty_total += result.stats.dirty_transceivers;
      world = std::move(result.world);
      risk = std::move(result.provider_risk);
    }
    {
      std::vector<delta::FeedEvent> raw = sharded_gen.tick();
      bench::Stopwatch apply_timer;
      auto cleaned = sharded_ingestor.ingest(std::move(raw));
      if (!cleaned.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     cleaned.status().to_string().c_str());
        return 1;
      }
      auto applied = shard::apply_delta(view, cleaned.value(), {});
      if (!applied.ok()) {
        std::fprintf(stderr, "sharded apply failed: %s\n",
                     applied.status().to_string().c_str());
        return 1;
      }
      shard::ShardApplyResult result = std::move(applied).take();
      sharded_apply_s.push_back(apply_timer.seconds());
      shards_rebuilt += result.shards.rebuilt;
      pages_rewritten.push_back(result.shards.pages_rewritten);
      pages_shared.push_back(result.shards.pages_shared);
      bytes_copied.push_back(result.shards.bytes_copied);
      view = std::move(result.world);
    }
  }
  const ApplyTimes mono = summarize(apply_s);
  const ApplyTimes sharded = summarize(sharded_apply_s);
  const ApplyTimes steady =
      summarize(sharded_apply_s.size() > 1
                    ? std::vector<double>(sharded_apply_s.begin() + 1,
                                          sharded_apply_s.end())
                    : sharded_apply_s);
  std::printf(
      "delta apply: %zu batches, %zu events, mean %.4fs, max %.4fs "
      "(%zu dirty transceivers)\n",
      ticks, events_applied, mono.mean_s, mono.max_s, dirty_total);
  std::printf(
      "shard-native apply: mean %.4fs, max %.4fs, mean %.4fs after the "
      "first tick (%zu shard rewrites over %zu batches)\n",
      sharded.mean_s, sharded.max_s, steady.mean_s, shards_rebuilt, ticks);

  // Correctness gate: each final delta-built epoch must be
  // byte-identical to a from-scratch rebuild of the same state.
  core::World::BuildOptions opts;
  auto reference = core::World::from_parts(
      cellnet::CellCorpus(
          std::vector<cellnet::Transceiver>(world.corpus().transceivers())),
      world.whp_ptr(), world.counties_ptr(), world.config(), opts);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference rebuild failed: %s\n",
                 reference.status().to_string().c_str());
    return 1;
  }
  core::World ref_world = std::move(reference).take();
  const core::ProviderRiskResult ref_risk =
      core::run_provider_risk(ref_world);
  const bool byte_identical = store::encode_world(world, risk) ==
                              store::encode_world(ref_world, ref_risk);
  if (!byte_identical) {
    std::fprintf(stderr,
                 "FAIL: delta-built epoch diverges from rebuild\n");
  }
  const bool sharded_byte_identical =
      shard::encode_sharded(view) ==
      shard::encode_sharded(shard::ShardedWorld::from_world(
          ref_world, ref_risk, view.layout()));
  if (!sharded_byte_identical) {
    std::fprintf(stderr,
                 "FAIL: shard-native epoch diverges from a fresh re-shard\n");
  }

  const auto speedup_of = [](double rebuild, double apply) {
    return apply > 0.0 ? rebuild / apply : 0.0;
  };
  const double speedup = speedup_of(rebuild_s, mono.mean_s);
  const double sharded_speedup =
      speedup_of(sharded_rebuild_s, sharded.mean_s);
  const bool delta_faster = speedup >= 10.0;
  const bool sharded_faster = sharded_speedup >= 10.0;
  std::printf("update-to-serving speedup: %.1fx (%s the 10x gate)\n",
              speedup, delta_faster ? "clears" : "MISSES");
  std::printf("sharded update-to-serving speedup: %.1fx (%s the 10x gate)\n",
              sharded_speedup, sharded_faster ? "clears" : "MISSES");

  io::JsonObject payload;
  payload["transceivers"] = world.corpus().size();
  payload["ticks"] = ticks;
  payload["events_applied"] = events_applied;
  payload["dirty_transceivers"] = dirty_total;
  payload["rebuild_s"] = rebuild_s;
  payload["apply_mean_s"] = mono.mean_s;
  payload["apply_p99_s"] = mono.p99_s;
  payload["apply_max_s"] = mono.max_s;
  payload["byte_identical"] = byte_identical;
  payload["delta_speedup"] = speedup;
  payload["delta_faster"] = delta_faster;
  payload["shards"] = view.shard_count();
  payload["sharded_rebuild_s"] = sharded_rebuild_s;
  payload["sharded_apply_mean_s"] = sharded.mean_s;
  payload["sharded_apply_p99_s"] = sharded.p99_s;
  payload["sharded_apply_steady_mean_s"] = steady.mean_s;
  payload["sharded_shards_rebuilt"] = shards_rebuilt;
  const auto array = [](const auto& values) {
    return io::JsonArray(values.begin(), values.end());
  };
  payload["sharded_apply_tick_s"] = array(sharded_apply_s);
  payload["sharded_pages_rewritten"] = array(pages_rewritten);
  payload["sharded_pages_shared"] = array(pages_shared);
  payload["sharded_bytes_copied"] = array(bytes_copied);
  payload["sharded_byte_identical"] = sharded_byte_identical;
  payload["sharded_speedup"] = sharded_speedup;
  payload["sharded_faster"] = sharded_faster;
  bench::print_json_trailer("delta_ingest", io::JsonValue{std::move(payload)},
                            &run_timer);
  return byte_identical && sharded_byte_identical && delta_faster &&
                 sharded_faster
             ? 0
             : 1;
}
