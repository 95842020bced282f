// Shared scaffolding for the reproduction harness binaries.
//
// Every bench_* executable prints (a) the scenario banner, (b) the
// paper's rows next to the measured values, and (c) a machine-readable
// JSON trailer. The scenario can be overridden via environment:
//   FA_CELL_M  - WHP cell size in metres   (default 1350)
//   FA_SCALE   - corpus scale denominator  (default 8)
//   FA_SEED    - master seed               (default 20191022)
//   FA_POLICY  - ingestion RecoveryPolicy: strict|quarantine|best_effort
//                (default quarantine)
//   FA_FAULTS  - deterministic fault-injection spec, e.g.
//                "seed=42,ingest.txr=0.01" (see fault/injector.hpp)
#pragma once

#include <chrono>
#include <string>

#include "core/analysis_context.hpp"
#include "core/report.hpp"
#include "core/world.hpp"
#include "io/json.hpp"

namespace fa::bench {

// Scenario from defaults + environment overrides.
synth::ScenarioConfig bench_scenario();

// Prints the banner (name, scenario, observability) and returns the
// scenario, building nothing — for benches that build their own view.
synth::ScenarioConfig bench_banner(const std::string& bench_name);

// The FA_POLICY ingestion policy (quarantine when unset or unknown).
fault::RecoveryPolicy bench_policy();

// The process-wide AnalysisContext for the env-configured scenario.
// Prints the banner, and the build time when this call builds the world
// (first bench in the process; reruns reuse the cached scenario).
core::AnalysisContext& bench_context(const std::string& bench_name);

class Stopwatch {
 public:
  Stopwatch()
      : start_(std::chrono::steady_clock::now()),
        cpu_start_s_(process_cpu_seconds()) {}
  // Elapsed wall-clock time.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  // Per-process CPU time consumed since construction (sums across
  // threads, so > seconds() whenever the exec pool is busy).
  double cpu_seconds() const { return process_cpu_seconds() - cpu_start_s_; }

 private:
  static double process_cpu_seconds();

  std::chrono::steady_clock::time_point start_;
  double cpu_start_s_;
};

// Prints the machine-readable trailer (single line, greppable). When
// `timer` is given the trailer gains a "timing" object with "wall_s"
// and "cpu_s". With observability on (FA_OBS, the default) also prints
// a one-line OBS profile and writes a chrome-trace file
// trace_<bench_name>.json (to FA_TRACE_DIR when set, else the working
// directory) — open it at chrome://tracing or https://ui.perfetto.dev.
void print_json_trailer(const std::string& bench_name,
                        const io::JsonValue& payload,
                        const Stopwatch* timer = nullptr);

// Paper-normalized count: measured * corpus_scale, for comparing scaled
// runs against the paper's full-corpus numbers.
double to_paper_scale(const core::World& world, std::size_t measured);

}  // namespace fa::bench
