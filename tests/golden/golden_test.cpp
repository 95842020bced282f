// Golden-value regression suite: the paper's headline aggregates,
// computed on the fixed-seed synthetic world (the shared test scenario),
// pinned to exact constants in tests/golden/expected/*.json. Any change
// to synthesis, ingestion, overlay, or simulation arithmetic — even a
// single record — shows up as a diff against these files.
//
//   ctest -L golden                      # verify against the pinned files
//   ./test_golden --update-golden        # regenerate after intended drift
//
// Regeneration rewrites the expected files in the source tree; review
// the diff like any other code change.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/historical.hpp"
#include "core/provider_risk.hpp"
#include "core/whp_overlay.hpp"
#include "delta/event.hpp"
#include "delta/feed.hpp"
#include "io/json.hpp"
#include "shard/apply.hpp"
#include "shard/codec.hpp"
#include "shard/world.hpp"
#include "store/format.hpp"
#include "test_world.hpp"
#include "world_dump.hpp"
#include "../delta/reference_apply.hpp"

namespace fa::core::testing {
namespace {

bool g_update_golden = false;

std::string golden_path(const std::string& name) {
  return std::string(FA_GOLDEN_DIR) + "/" + name + ".json";
}

// Serialized form is the contract: pretty-printed via io::to_json with
// %.17g doubles, so equal strings mean bit-identical aggregates.
void check_golden(const std::string& name, const io::JsonValue& actual) {
  const std::string serialized = io::to_json(actual, 2) + "\n";
  const std::string path = golden_path(name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << serialized;
    std::printf("[golden] updated %s\n", path.c_str());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "; regenerate with: test_golden --update-golden";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), serialized)
      << "golden drift in '" << name << "' — if the change is intended, "
      << "regenerate with: test_golden --update-golden";
}

TEST(Golden, Table1Historical) {
  const World& world = test_world();
  const HistoricalResult result = run_historical_overlay(
      world, test_context().historical_years(), test_context().fire_config);
  io::JsonArray rows;
  for (const HistoricalYearRow& row : result.rows) {
    rows.push_back(io::JsonObject{{"year", row.year},
                                  {"fires", row.fires},
                                  {"acres_millions", row.acres_millions},
                                  {"txr_in_perimeters", row.txr_in_perimeters},
                                  {"txr_per_macre", row.txr_per_macre}});
  }
  io::JsonObject doc;
  doc["rows"] = io::JsonValue{std::move(rows)};
  doc["total_txr"] = result.total_txr;
  doc["corpus_scale"] = result.corpus_scale;
  check_golden("table1_historical", io::JsonValue{std::move(doc)});
}

TEST(Golden, Table2Providers) {
  const ProviderRiskResult result = run_provider_risk(test_world());
  io::JsonArray rows;
  for (const ProviderRiskRow& row : result.rows) {
    rows.push_back(
        io::JsonObject{{"provider", std::string{cellnet::provider_name(row.provider)}},
                       {"fleet", row.fleet},
                       {"moderate", row.moderate},
                       {"high", row.high},
                       {"very_high", row.very_high}});
  }
  io::JsonObject doc;
  doc["rows"] = io::JsonValue{std::move(rows)};
  doc["regional_brands_at_risk"] = result.regional_brands_at_risk;
  check_golden("table2_providers", io::JsonValue{std::move(doc)});
}

TEST(Golden, Table3RadioTypes) {
  const RadioRiskResult result = run_radio_risk(test_world());
  io::JsonArray rows;
  for (const RadioRiskRow& row : result.rows) {
    rows.push_back(
        io::JsonObject{{"radio", std::string{cellnet::radio_type_name(row.radio)}},
                       {"moderate", row.moderate},
                       {"high", row.high},
                       {"very_high", row.very_high}});
  }
  check_golden("table3_radio_types", io::JsonValue{std::move(rows)});
}

TEST(Golden, Fig6Fig7WhpOverlay) {
  const World& world = test_world();
  const WhpOverlayResult result = run_whp_overlay(world);
  io::JsonObject doc;
  io::JsonArray by_class;
  for (const std::size_t n : result.txr_by_class) by_class.push_back(n);
  doc["txr_by_class"] = io::JsonValue{std::move(by_class)};
  doc["total_at_risk"] = result.total_at_risk();
  io::JsonArray states;
  for (const StateWhpRow& row : result.states) {
    if (row.at_risk() == 0) continue;  // keep the file to states that matter
    states.push_back(io::JsonObject{
        {"state", std::string{world.atlas()
                                  .states()[static_cast<std::size_t>(row.state)]
                                  .abbr}},
        {"moderate", row.moderate},
        {"high", row.high},
        {"very_high", row.very_high},
        {"per_thousand_vh", row.per_thousand_vh}});
  }
  doc["states"] = io::JsonValue{std::move(states)};
  io::JsonArray rank;
  for (const int s : result.rank_by_at_risk()) {
    rank.push_back(std::string{
        world.atlas().states()[static_cast<std::size_t>(s)].abbr});
  }
  doc["rank_by_at_risk"] = io::JsonValue{std::move(rank)};
  check_golden("fig6_7_whp_overlay", io::JsonValue{std::move(doc)});
}

TEST(Golden, DeltaEpochBytes) {
  // Pins the whole incremental-update pipeline: a fixed-seed feed chain
  // over the shared test world through shard::apply_delta, the canonical
  // dump of the delta-built epoch's materialized world, and — the
  // tentpole contract — the identical dump of the from-scratch
  // reference_apply chain over the same batches. A drift in either CRC
  // means the feed, the shard apply, materialize, or world synthesis
  // changed; the two CRCs diverging means the shard apply broke
  // equivalence.
  const World& base = test_world();
  const ProviderRiskResult base_risk = run_provider_risk(base);
  fa::delta::FeedOptions feed_options;
  feed_options.seed = 909;
  fa::delta::FeedGenerator gen(base, feed_options);
  fa::delta::FeedIngestor ingestor;
  fa::shard::ShardedWorld view =
      fa::shard::ShardedWorld::from_world(base, base_risk);
  fa::delta::testing::ReferenceEpoch reference{base, base_risk, {}};
  std::size_t events_applied = 0;
  for (int tick = 0; tick < 3; ++tick) {
    auto cleaned = ingestor.ingest(gen.tick());
    ASSERT_TRUE(cleaned.ok());
    auto applied = fa::shard::apply_delta(view, cleaned.value());
    ASSERT_TRUE(applied.ok()) << applied.status().to_string();
    auto rebuilt =
        fa::delta::testing::reference_apply(reference.world, cleaned.value());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().to_string();
    fa::shard::Successor result = std::move(applied).take();
    events_applied += result.stats.events - result.stats.quarantined;
    view = std::move(result.world);
    reference = std::move(rebuilt).take();
  }
  auto world = view.materialize();
  ASSERT_TRUE(world.ok()) << world.status().to_string();
  const std::string delta_dump =
      dump_world(world.value(), view.provider_risk());
  const std::string rebuilt_dump =
      dump_world(reference.world, reference.risk);
  ASSERT_TRUE(delta_dump == rebuilt_dump)
      << "delta-built epoch no longer dumps identical to the rebuild";

  io::JsonObject doc;
  doc["feed_seed"] = static_cast<std::size_t>(feed_options.seed);
  doc["ticks"] = 3;
  doc["events_applied"] = events_applied;
  doc["corpus_size"] = static_cast<std::size_t>(view.total_points());
  doc["dump_bytes"] = delta_dump.size();
  doc["delta_crc"] = static_cast<std::size_t>(
      store::crc32(delta_dump.data(), delta_dump.size()));
  doc["rebuild_crc"] = static_cast<std::size_t>(
      store::crc32(rebuilt_dump.data(), rebuilt_dump.size()));
  check_golden("delta_epoch", io::JsonValue{std::move(doc)});
}

TEST(Golden, FeedStreamBytes) {
  // Pins the raw feed stream of a fixed-seed generator over the shared
  // test world: every tick's events in encode_events bytes, chained into
  // one CRC and checkpointed every 100 ticks so a drift names the window
  // it starts in. The run is long enough that some ignitions land in the
  // bboxes of two or more active fires, so it pins which fire grows (the
  // oldest) and not only the RNG draw order.
  constexpr std::uint64_t kSeed = 7;
  constexpr int kTicks = 600;
  fa::delta::FeedOptions feed_options;
  feed_options.seed = kSeed;
  fa::delta::FeedGenerator gen(test_world(), feed_options);
  std::uint32_t crc = 0;
  std::size_t events = 0;
  std::size_t fire_events = 0;
  io::JsonArray checkpoints;
  for (int tick = 1; tick <= kTicks; ++tick) {
    const std::vector<fa::delta::FeedEvent> batch = gen.tick();
    const std::string bytes = fa::delta::encode_events(batch);
    crc = store::crc32(bytes.data(), bytes.size(), crc);
    events += batch.size();
    for (const fa::delta::FeedEvent& e : batch) {
      if (e.kind == fa::delta::EventKind::kFirePerimeter) ++fire_events;
    }
    if (tick % 100 == 0) checkpoints.push_back(static_cast<std::size_t>(crc));
  }
  io::JsonObject doc;
  doc["feed_seed"] = static_cast<std::size_t>(kSeed);
  doc["ticks"] = kTicks;
  doc["events"] = events;
  doc["fire_events"] = fire_events;
  doc["next_seq"] = static_cast<std::size_t>(gen.next_seq());
  doc["crc_every_100_ticks"] = io::JsonValue{std::move(checkpoints)};
  check_golden("feed_stream", io::JsonValue{std::move(doc)});
}

TEST(Golden, ShardImageBytes) {
  // Pins the FASHRD01 bytes of the shared test world's sharded view,
  // under the default layout and a small multi-shard one. The serving
  // build (World-free, streamed into shard columns) and the cut of a
  // built World must both produce them.
  const World& world = test_world();
  const ProviderRiskResult risk = run_provider_risk(world);
  fa::shard::LayoutOptions small;
  small.tiles_x = 8;
  small.tiles_y = 4;
  small.target_shards = 6;
  io::JsonObject doc;
  for (const auto& [name, layout] :
       {std::pair<const char*, fa::shard::LayoutOptions>{"default", {}},
        std::pair<const char*, fa::shard::LayoutOptions>{"small", small}}) {
    auto built = fa::shard::ShardedWorld::build(world.config(), {}, layout);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    const std::string bytes = fa::shard::encode_sharded(built.value());
    ASSERT_TRUE(bytes == fa::shard::encode_sharded(
                             fa::shard::ShardedWorld::from_world(world, risk,
                                                                 layout)))
        << name << ": the World-free build diverged from from_world";
    io::JsonObject entry;
    entry["bytes"] = bytes.size();
    entry["crc"] = static_cast<std::size_t>(
        store::crc32(bytes.data(), bytes.size()));
    doc[name] = io::JsonValue{std::move(entry)};
  }
  check_golden("shard_image", io::JsonValue{std::move(doc)});
}

}  // namespace
}  // namespace fa::core::testing

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--update-golden") {
      fa::core::testing::g_update_golden = true;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
