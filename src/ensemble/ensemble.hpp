// fa::ensemble — cascading-scenario ensemble engine.
//
// The paper's Section 3.2 case study is one PSPS window; the question it
// begs — which sites fail users the most across *many* plausible fire
// seasons — needs thousands of seeded scenarios. Each ensemble member is
// one cascading season: seeded ignitions grown on the WHP fuel surface
// (firesim) × a wind-driven PSPS over the distribution grid (powergrid)
// × backhaul cuts × battery-exhaustion timelines, scored against the
// population raster. Members run across fa::exec with copy-on-write
// scenario state: the shared inputs (WHP surface, grid model, population
// surface, ignition tables) are immutable after build, and every member
// derives its own cheap overlays (wind profile, fires, feeder-plan copy)
// from a per-member seed, never mutating shared state.
//
// Determinism contract (mirrors fa::exec): member seeds are a pure
// function of (ensemble seed, member index); the chunk plan depends only
// on (members, grain); partial aggregates are combined serially in chunk
// order. The same config therefore produces byte-identical aggregates,
// exceedance curves and top-K orderings at any thread count. Quarantine
// decisions from the "ensemble.member" fault seam are pure functions of
// the injector seed and member index, so a degraded run is deterministic
// too.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cellnet/types.hpp"
#include "core/world.hpp"
#include "firesim/fire.hpp"
#include "firesim/outage.hpp"
#include "powergrid/grid_model.hpp"
#include "synth/population.hpp"

namespace fa::ensemble {

// Fault-injection seam: fires(kMemberFaultSite, member_index) quarantines
// that member — it is skipped, counted, and excluded from every aggregate.
inline constexpr std::string_view kMemberFaultSite = "ensemble.member";

struct EnsembleConfig {
  std::uint32_t members = 256;
  std::uint64_t seed = 7;
  // State the scenario family plays in (the paper's case-study region).
  std::string region = "CA";
  // Ignitions per member-season (Poisson mean) and the bounded-Pareto
  // size distribution they draw from.
  double mean_fires = 3.0;
  double min_fire_acres = 1500.0;
  double max_fire_acres = 2.0e5;
  double fire_size_alpha = 0.62;
  std::uint32_t max_fires = 10;  // hard cap per member
  // PSPS window length in days; each member perturbs the baseline wind
  // profile below with its own seeded multipliers.
  int window_days = 8;
  firesim::OutageSimConfig outage;
  // Members per exec chunk. Part of the deterministic chunk plan — a
  // throughput knob only, results are identical for any value.
  std::size_t exec_grain = 4;
  // Points on the per-member user-hours exceedance curve.
  std::uint32_t exceedance_points = 16;
};

// A fixed budget of physical upgrades, chosen by the optimizer (or a
// random baseline). Applied per member as copy-on-write overlays: the
// battery vector feeds OutageSimConfig::site_battery_hours, the feeder
// flags are OR-ed into a member-local copy of the feeder plan.
struct HardeningPlan {
  // Per region site; 0 entries (or an empty vector) mean "stock battery".
  std::vector<double> site_battery_hours;
  // Per feeder: rebuilt fire-safe (PSPS-exempt below extreme wind).
  std::vector<std::uint8_t> feeder_hardened;
  std::uint32_t budget_spent = 0;
  // The optimizer's model-predicted expected user-hours saved; compare
  // against the re-simulated ensemble to see model fidelity.
  double predicted_savings = 0.0;
};

// Everything members share, immutable after build(). Build once, run
// many ensembles (baseline, hardened, swept) against it.
struct SharedInputs {
  std::shared_ptr<const synth::WhpModel> whp;
  int region_state = -1;
  std::vector<cellnet::CellSite> sites;  // region sites (dense ids 0..n)
  // Users served per site: the population cell's persons split evenly
  // among the sites sharing that cell (sums to ~the region population
  // covered by sites).
  std::vector<double> site_users;
  double region_users = 0.0;
  // Site coordinates in contains_batch layout (lon, lat).
  std::vector<double> site_x;
  std::vector<double> site_y;
  powergrid::GridModel grid;
  firesim::FeederPlan feeder_plan;
  std::unique_ptr<synth::PopulationSurface> population;
  // Prototype fire simulator; members fork() it (shared ignition tables,
  // fresh RNG) instead of paying the full-grid constructor per member.
  std::unique_ptr<firesim::FireSimulator> fire_proto;
  // Region-restricted ignition CDF over burnable WHP cells.
  std::vector<double> ignition_cdf;
  std::vector<std::uint32_t> ignition_cells;

  // The state index of config.region; throws std::invalid_argument for
  // a region the atlas does not know.
  static int region_state_of(const EnsembleConfig& config);

  // Builds from the parts an ensemble reads: the WHP surface, the
  // scenario, and the region's transceivers in ascending dense-id order.
  // Throws std::invalid_argument for a region with no burnable cells.
  static SharedInputs build(std::shared_ptr<const synth::WhpModel> whp,
                            const synth::ScenarioConfig& scenario,
                            std::vector<cellnet::Transceiver> region,
                            const EnsembleConfig& config);
  // The same parts, taken from a built world.
  static SharedInputs build(const core::World& world,
                            const EnsembleConfig& config);
};

// Hazard-weighted ignition draw restricted to the region (used by the
// member runner; exposed for tests).
geo::LonLat sample_region_ignition(const SharedInputs& inputs,
                                   synth::Rng& rng);

// One member's season outcome (kept per member for exceedance curves and
// the quarantine-exclusion accounting).
struct MemberStats {
  double user_hours = 0.0;  // total user-hours lost, all causes
  double power_user_hours = 0.0;
  double damage_user_hours = 0.0;
  double transport_user_hours = 0.0;
  // Person-days of population inside an active fire perimeter.
  double pop_exposure = 0.0;
  // User-hours lost at sites that were inside an active fire while out —
  // the fire+outage overlap family (people in the burn zone with no
  // service).
  double overlap_user_hours = 0.0;
  std::uint32_t fires = 0;
  std::uint32_t outage_site_days = 0;
  std::uint8_t quarantined = 0;
};

struct ExceedancePoint {
  double user_hours = 0.0;   // threshold
  double probability = 0.0;  // P(member total >= threshold)
};

struct EnsembleReport {
  std::uint32_t members = 0;      // scheduled
  std::uint32_t quarantined = 0;  // excluded by the fault seam
  std::uint32_t sites = 0;
  std::uint64_t fires = 0;
  std::uint64_t outage_site_days = 0;
  // Means over the non-quarantined members.
  double expected_user_hours = 0.0;
  double expected_power_user_hours = 0.0;
  double expected_pop_exposure = 0.0;
  double expected_overlap_user_hours = 0.0;
  std::vector<MemberStats> member_stats;  // size == members
  // Per region site (index-aligned with SharedInputs::sites).
  std::vector<double> site_expected_user_hours;
  std::vector<double> site_expected_power_user_hours;
  std::vector<double> site_outage_probability;  // P(>= 1 outage day)
  std::vector<ExceedancePoint> exceedance;  // member-total curve
  // Site indices, most fragile first (expected user-hours desc, id asc —
  // a total order, so the ranking is reproducible byte-for-byte).
  std::vector<std::uint32_t> fragile_order;

  std::uint32_t effective_members() const { return members - quarantined; }
};

// Runs the ensemble. `plan` (optional) applies a hardening overlay to
// every member. Deterministic in (inputs, config, plan) at any thread
// count.
EnsembleReport run_ensemble(const SharedInputs& inputs,
                            const EnsembleConfig& config,
                            const HardeningPlan* plan = nullptr);

// The served fragility row: top-K projection of a report.
struct FragileSite {
  std::uint32_t site = 0;  // index into SharedInputs::sites
  geo::LonLat position;
  double users = 0.0;
  double expected_user_hours = 0.0;
  double power_share = 0.0;  // fraction of the loss that is power-caused
  double outage_probability = 0.0;
};

std::vector<FragileSite> top_k_fragile(const SharedInputs& inputs,
                                       const EnsembleReport& report,
                                       std::uint32_t k);

}  // namespace fa::ensemble
