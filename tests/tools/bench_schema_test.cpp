// Bench JSON schema validator: runs every bench_* binary on a tiny
// scenario, parses the machine-readable `JSON {...}` trailer, and fails
// if a key a downstream consumer greps for went missing or was renamed.
// The required-key table below IS the published schema — extend it when
// a bench grows a field, and expect this test to object when one drifts.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "io/json.hpp"

namespace fa {
namespace {

struct BenchSchema {
  // Binary name under the bench build dir.
  std::string_view binary;
  // Expected "bench" field of the trailer.
  std::string_view trailer;
  // Keys required at the top level of "result" ("" marker = result is
  // an array; remaining keys are then required of every row).
  std::vector<std::string_view> keys;
  // Extra argv appended to the command line.
  std::string_view extra_args = "";
  // Extra environment assignments prepended to the command (for benches
  // sized by env knobs rather than FA_SCALE).
  std::string_view extra_env = "";
};

const std::vector<BenchSchema>& schemas() {
  static const std::vector<BenchSchema> table = {
      {"bench_table1_historical", "table1_historical",
       {"", "year", "fires", "acres_millions", "txr", "paper_txr"}},
      {"bench_table2_providers", "table2_providers",
       {"", "provider", "fleet", "moderate", "high", "very_high"}},
      {"bench_table3_radio_types", "table3_radio_types",
       {"", "type", "moderate", "high", "very_high"}},
      {"bench_fig2_3_4_maps", "fig2_3_4_maps",
       {"transceivers", "large_fires", "txr_in_perimeters"}},
      {"bench_fig5_case_study", "fig5_case_study",
       {"days", "peak_day", "sites_monitored"}},
      {"bench_fig6_7_whp_overlay", "fig6_7_whp_overlay",
       {"moderate", "high", "very_high", "total_at_risk"}},
      {"bench_fig8_9_states", "fig8_9_states",
       {"", "state", "moderate", "high", "very_high"}},
      {"bench_fig10_11_population", "fig10_11_population",
       {"population_served", "at_risk_pop_vh", "very_high_pop_vh",
        "by_county"}},
      {"bench_fig12_13_metros", "fig12_13_metros",
       {"", "metro", "state", "total"}},
      {"bench_fig14_15_climate", "fig14_15_climate",
       {"", "name", "delta_pct", "transceivers", "at_risk"}},
      {"bench_validation_whp", "validation_whp",
       {"predicted", "in_perimeter", "accuracy", "accuracy_excluding_top2"}},
      {"bench_extension_halfmile", "extension_halfmile",
       {"at_risk_before", "at_risk_after", "accuracy_before",
        "accuracy_after", "sweep"}},
      {"bench_escape_ablation", "escape_ablation",
       {"rank_correlation", "top_state_whp", "top_state_escape"}},
      {"bench_iab_resilience", "iab_resilience",
       {"", "iab", "power_site_days", "transport_site_days"}},
      {"bench_scale_invariance", "scale_invariance",
       {"", "scale", "cell_m", "at_risk_share", "top1"}},
      {"bench_power_interdependence", "power_interdependence",
       {"feeders", "power_site_days", "sites_on_exposed_feeders"}},
      {"bench_coverage_models", "coverage_models",
       {"county_users_affected", "spatial_users_affected",
        "population_served_headline"}},
      {"bench_future_exposure", "future_exposure",
       {"at_risk_now", "index_2040", "by_state"}},
      {"bench_roadside_shadow", "roadside_shadow",
       {"dirs_filings", "roadside_flag_rate", "interior_flag_rate",
        "shadow_share"}},
      {"bench_site_vs_transceiver", "site_vs_transceiver",
       {"sites", "transceivers", "sites_at_risk", "txr_at_risk", "sweep"}},
      {"bench_fault_ingest", "fault_ingest", {"", "policy"}},
      {"bench_geo_kernels", "geo_kernels",
       {"points", "fires", "verts", "candidates", "hits", "identical",
        "scalar_ms", "prepared_ms", "batch_ms", "prepared_speedup",
        "batch_speedup"},
       "", "FA_GEO_POINTS=60000 FA_GEO_FIRES=8 FA_GEO_VERTS=128 FA_GEO_REPS=1"},
      {"bench_perf_substrate", "perf_substrate_scaling",
       {"pool_workers", "identical_across_threads", "scaling"},
       "--benchmark_filter=__none__"},
      {"bench_serve_qps", "serve_qps",
       {"pool_workers", "distinct_queries", "queries_per_thread",
        "cache_on_beats_off", "rows"}},
      {"bench_store", "store",
       {"transceivers", "image_bytes", "build_s", "save_s", "save_cpu_s",
        "save_hwm_step_mb", "save_identical", "load_s",
        "recover_fallback_s", "fallback_to_older_generation",
        "load_speedup", "load_faster"}},
      {"bench_serve_net", "serve_net",
       {"workers", "per_thread", "distinct_queries", "shed_demonstrated",
        "rows", "saturation"},
       "",
       "FA_NET_PER_THREAD=40 FA_NET_SAT_CLIENTS=8 FA_NET_SAT_PER_THREAD=60"},
      {"bench_delta_ingest", "delta_ingest",
       {"transceivers", "shards", "ticks", "events_applied",
        "dirty_transceivers", "rebuild_s", "apply_mean_s", "apply_p99_s",
        "apply_max_s", "apply_steady_mean_s", "shards_rebuilt",
        "apply_tick_s", "pages_rewritten", "pages_shared", "bytes_copied",
        "byte_identical", "delta_speedup", "delta_faster"},
       "", "FA_DELTA_TICKS=4"},
      {"bench_shard_scale", "shard_scale",
       {"transceivers", "shards", "mono_image_bytes", "shard_image_bytes",
        "build_s", "shard_s", "served_build_s", "build_identical",
        "mono_cold_s", "shard_cold_s", "cold_speedup", "cold_faster",
        "threads", "shard_qps", "identity_ok"},
       "",
       "FA_SHARD_SCALE=400 FA_CELL_M=18000 FA_SHARD_THREADS=2 "
       "FA_SHARD_QUERIES=100"},
      {"bench_ensemble", "ensemble",
       {"members", "sites", "identical", "baseline_user_hours",
        "greedy_user_hours", "random_user_hours", "optimizer_beats_random",
        "optimizer_beats_baseline", "threads"},
       "", "FA_ENS_MEMBERS=24"},
  };
  return table;
}

// Runs one bench on the tiny scenario, returning its full stdout.
std::string run_bench(const BenchSchema& schema) {
  const std::string tmp = ::testing::TempDir();
  std::string cmd = "cd '" + tmp + "' && FA_SCALE=64 FA_CELL_M=5400 ";
  if (!schema.extra_env.empty()) {
    cmd += std::string{schema.extra_env} + " ";
  }
  cmd += "'" FA_BENCH_DIR "/" + std::string{schema.binary} + "'";
  if (!schema.extra_args.empty()) {
    cmd += " " + std::string{schema.extra_args};
  }
  cmd += " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  EXPECT_EQ(status, 0) << schema.binary << " exited with status " << status;
  return out;
}

// The single `JSON {...}` trailer line, or empty.
std::string extract_trailer(const std::string& output) {
  std::size_t pos = 0;
  std::string found;
  while ((pos = output.find("JSON ", pos)) != std::string::npos) {
    if (pos == 0 || output[pos - 1] == '\n') {
      const std::size_t end = output.find('\n', pos);
      found = output.substr(pos + 5, end == std::string::npos
                                         ? std::string::npos
                                         : end - pos - 5);
    }
    ++pos;
  }
  return found;
}

TEST(BenchSchema, EveryBenchEmitsItsContract) {
  for (const BenchSchema& schema : schemas()) {
    SCOPED_TRACE(std::string{schema.binary});
    const std::string output = run_bench(schema);
    const std::string trailer = extract_trailer(output);
    ASSERT_FALSE(trailer.empty()) << "no JSON trailer in output";

    const fault::Result<io::JsonValue> parsed = io::try_parse_json(trailer);
    ASSERT_TRUE(parsed.ok()) << "unparseable trailer: "
                             << parsed.status().to_string();
    const io::JsonValue& doc = parsed.value();

    ASSERT_TRUE(doc.has("bench"));
    EXPECT_EQ(doc.at("bench").as_string(), schema.trailer);
    ASSERT_TRUE(doc.has("result")) << "trailer lost its result";
    ASSERT_TRUE(doc.has("timing")) << "trailer lost its timing block";
    EXPECT_TRUE(doc.at("timing").has("wall_s"));
    EXPECT_TRUE(doc.at("timing").has("cpu_s"));
    EXPECT_GE(doc.at("timing").at("cpu_s").as_number(), 0.0);

    const io::JsonValue& result = doc.at("result");
    const bool rows_schema = !schema.keys.empty() && schema.keys[0].empty();
    if (rows_schema) {
      ASSERT_GT(result.size(), 0u) << "result array is empty";
      for (std::size_t r = 0; r < result.size(); ++r) {
        for (std::size_t k = 1; k < schema.keys.size(); ++k) {
          EXPECT_TRUE(result.at(r).has(std::string{schema.keys[k]}))
              << "row " << r << " lost key '" << schema.keys[k] << "'";
        }
      }
    } else {
      for (const std::string_view key : schema.keys) {
        EXPECT_TRUE(result.has(std::string{key}))
            << "result lost key '" << key << "'";
      }
    }
  }
}

// The schema table itself stays in sync with the bench directory: a new
// bench binary must be added to the table (or this fails).
TEST(BenchSchema, TableCoversEveryBenchBinary) {
  for (const BenchSchema& schema : schemas()) {
    const std::string path = FA_BENCH_DIR "/" + std::string{schema.binary};
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << "bench binary missing: " << path;
    if (f != nullptr) std::fclose(f);
  }
}

}  // namespace
}  // namespace fa
