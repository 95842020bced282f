#include "bench_common.hpp"

#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/obs.hpp"

namespace fa::bench {

namespace {

double env_or(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end != value ? parsed : fallback;
}

}  // namespace

synth::ScenarioConfig bench_scenario() {
  synth::ScenarioConfig cfg;
  cfg.whp_cell_m = env_or("FA_CELL_M", 1350.0);
  cfg.corpus_scale = env_or("FA_SCALE", 8.0);
  cfg.seed = static_cast<std::uint64_t>(env_or("FA_SEED", 20191022.0));
  return cfg;
}

synth::ScenarioConfig bench_banner(const std::string& bench_name) {
  const synth::ScenarioConfig cfg = bench_scenario();
  std::printf("== %s ==\n", bench_name.c_str());
  std::printf(
      "scenario: seed=%llu  whp_cell=%.0fm  corpus=1/%.0f of 5,364,949 "
      "(%zu transceivers)\n",
      static_cast<unsigned long long>(cfg.seed), cfg.whp_cell_m,
      cfg.corpus_scale, cfg.corpus_size());
  std::printf("observability: %s (FA_OBS)\n", obs::enabled() ? "on" : "off");
  return cfg;
}

fault::RecoveryPolicy bench_policy() {
  fault::RecoveryPolicy policy = fault::RecoveryPolicy::kQuarantine;
  if (const char* name = std::getenv("FA_POLICY");
      name != nullptr && *name != '\0') {
    if (const auto parsed = fault::recovery_policy_from_name(name)) {
      policy = *parsed;
    } else {
      std::fprintf(stderr, "FA_POLICY: unknown policy '%s' (ignored)\n",
                   name);
    }
  }
  return policy;
}

core::AnalysisContext& bench_context(const std::string& bench_name) {
  core::AnalysisContext& ctx =
      core::AnalysisContext::shared(bench_banner(bench_name));
  ctx.recovery_policy = bench_policy();
  if (!ctx.built()) {
    Stopwatch timer;
    ctx.world();
    std::printf("world build: %.2fs  policy=%s\n",
                timer.seconds(),
                std::string(fault::recovery_policy_name(ctx.recovery_policy))
                    .c_str());
    std::printf("%s\n\n",
                core::coverage_line(ctx.world().corpus().size(),
                                    ctx.diagnostics())
                    .c_str());
  } else {
    std::printf("world: cached scenario reused\n\n");
  }
  return ctx;
}

double Stopwatch::process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void print_json_trailer(const std::string& bench_name,
                        const io::JsonValue& payload,
                        const Stopwatch* timer) {
  io::JsonObject doc;
  doc["bench"] = bench_name;
  doc["result"] = payload;
  if (timer != nullptr) {
    io::JsonObject timing;
    timing["wall_s"] = timer->seconds();
    timing["cpu_s"] = timer->cpu_seconds();
    doc["timing"] = io::JsonValue{std::move(timing)};
  }
  std::printf("\nJSON %s\n", io::to_json(io::JsonValue{std::move(doc)}).c_str());
  if (!obs::enabled()) return;
  // Stage-by-stage profile: one greppable line plus a chrome-trace file.
  std::printf("OBS %s\n", obs::to_json().c_str());
  std::string path;
  if (const char* dir = std::getenv("FA_TRACE_DIR");
      dir != nullptr && *dir != '\0') {
    path = std::string(dir) + "/";
  }
  path += "trace_" + bench_name + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) {
    out << obs::to_chrome_trace();
    std::printf("trace: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
  }
}

double to_paper_scale(const core::World& world, std::size_t measured) {
  return static_cast<double>(measured) * world.config().corpus_scale;
}

}  // namespace fa::bench
