// Ensemble driver: fans members across fa::exec and folds their outcomes
// through a streaming aggregator.
//
// Determinism: the parallel phase only ever writes member-indexed slots
// (per-member stats plus a sparse list of per-site contributions); the
// fold that produces every aggregate runs serially in member order
// afterwards. Floating-point summation order is therefore a function of
// the member count alone — thread count and exec_grain are pure
// throughput knobs and the report is byte-identical under both.
#include "ensemble/ensemble.hpp"

#include <algorithm>
#include <cmath>

#include "exec/exec.hpp"
#include "fault/injector.hpp"
#include "geo/prepared.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace fa::ensemble {

namespace {

// One member's contribution to one site, kept sparse: most members
// knock out a handful of sites, so member-indexed delta lists stay tiny
// while letting the serial fold replay contributions in member order.
struct SiteDelta {
  std::uint32_t site = 0;
  double uh = 0.0;
  double power_uh = 0.0;
};

std::uint64_t member_seed(std::uint64_t ensemble_seed, std::uint32_t member) {
  std::uint64_t s = ensemble_seed ^ (0x9E3779B97F4A7C15ULL * (member + 1ULL));
  return synth::splitmix64(s);
}

// Population inside the fire perimeter, by testing the centers of the
// population-raster cells covering the perimeter's bbox.
double population_in_perimeter(const SharedInputs& in,
                               const firesim::FirePerimeter& fire,
                               const geo::PreparedMultiPolygon& prepared) {
  const raster::Raster<float>& pop = in.population->grid();
  const raster::GridGeometry& geom = pop.geom();
  const geo::AlbersConus& proj = in.population->projection();
  const geo::BBox& bb = fire.perimeter.bbox();  // lon/lat
  if (!bb.valid()) return 0.0;
  // The Albers image of a lon/lat box is curved; corners + edge
  // midpoints bound it well at fire scale.
  const double lons[3] = {bb.min_x, 0.5 * (bb.min_x + bb.max_x), bb.max_x};
  const double lats[3] = {bb.min_y, 0.5 * (bb.min_y + bb.max_y), bb.max_y};
  geo::BBox world;
  for (const double lon : lons) {
    for (const double lat : lats) {
      world.expand(proj.forward({lon, lat}));
    }
  }
  int c0 = geom.col_of(world.min_x) - 1, c1 = geom.col_of(world.max_x) + 1;
  int r0 = geom.row_of(world.min_y) - 1, r1 = geom.row_of(world.max_y) + 1;
  c0 = std::max(c0, 0);
  r0 = std::max(r0, 0);
  c1 = std::min(c1, geom.cols - 1);
  r1 = std::min(r1, geom.rows - 1);
  if (c0 > c1 || r0 > r1) return 0.0;

  std::vector<double> xs, ys;
  std::vector<float> persons;
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      const float p = pop.at(c, r);
      if (p <= 0.0f) continue;
      const geo::LonLat center = proj.inverse(geom.cell_center(c, r));
      xs.push_back(center.lon);
      ys.push_back(center.lat);
      persons.push_back(p);
    }
  }
  if (xs.empty()) return 0.0;
  std::vector<std::uint8_t> inside(xs.size(), 0);
  prepared.contains_batch(xs, ys, inside);
  double total = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (inside[i] != 0) total += persons[i];
  }
  return total;
}

// Runs one member season; per-site contributions come back as a sparse
// delta list. `battery_overlay` is the resolved per-site hours vector
// (nullptr = stock batteries).
MemberStats run_member(const SharedInputs& in, const EnsembleConfig& cfg,
                       const std::vector<double>* battery_overlay,
                       const HardeningPlan* plan, std::uint32_t m,
                       std::vector<SiteDelta>& deltas) {
  MemberStats stats;
  const std::uint64_t seed = member_seed(cfg.seed, m);
  synth::Rng rng(seed);

  // Member wind profile: the baseline PSPS window perturbed by seeded
  // multipliers (every member sees a different event intensity).
  const std::vector<double>& base = cfg.outage.wind_severity;
  firesim::OutageSimConfig ocfg = cfg.outage;  // copy-on-write overlay
  ocfg.wind_severity.resize(static_cast<std::size_t>(cfg.window_days));
  for (int d = 0; d < cfg.window_days; ++d) {
    const double b = base.empty()
                         ? 0.5
                         : base[static_cast<std::size_t>(d) % base.size()];
    ocfg.wind_severity[static_cast<std::size_t>(d)] =
        std::clamp(b * rng.uniform(0.55, 1.45), 0.02, 1.0);
  }
  ocfg.site_battery_hours = battery_overlay;

  // Member fire set: Poisson count of bounded-Pareto-sized fires grown
  // from region-restricted hazard-weighted ignitions. Each spread uses a
  // fork of the prototype simulator (shared tables, member-owned RNG).
  const std::uint32_t n_fires = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(rng.poisson(cfg.mean_fires), cfg.max_fires));
  std::vector<firesim::FirePerimeter> fires;
  fires.reserve(n_fires);
  for (std::uint32_t f = 0; f < n_fires; ++f) {
    const double acres =
        rng.pareto(cfg.min_fire_acres, cfg.max_fire_acres, cfg.fire_size_alpha);
    const geo::LonLat ignition = sample_region_ignition(in, rng);
    firesim::FireSimulator sim =
        in.fire_proto->fork(seed ^ (0xF19E0000ULL + f));
    firesim::FirePerimeter fire =
        sim.spread_fire(ignition, acres, 2025, f, firesim::FireSimConfig{});
    if (fire.acres <= 0.0 || fire.perimeter.empty()) continue;
    // Window-relative burn interval (spread_fire stamps day-of-year).
    fire.start_day = rng.range(0, std::max(0, cfg.window_days - 2));
    fire.end_day = std::min(cfg.window_days - 1,
                            fire.start_day + rng.range(1, cfg.window_days));
    fires.push_back(std::move(fire));
  }
  stats.fires = static_cast<std::uint32_t>(fires.size());

  // Feeder hardening overlay: member-local copy only when a plan asks.
  const firesim::FeederPlan* feeder_plan = &in.feeder_plan;
  firesim::FeederPlan hardened_plan;
  if (plan != nullptr && !plan->feeder_hardened.empty()) {
    hardened_plan = in.feeder_plan;
    const std::size_t n =
        std::min(hardened_plan.hardened.size(), plan->feeder_hardened.size());
    for (std::size_t f = 0; f < n; ++f) {
      hardened_plan.hardened[f] |= plan->feeder_hardened[f];
    }
    feeder_plan = &hardened_plan;
  }

  firesim::OutageSimulator outage_sim(*in.whp, seed ^ 0x007A6E5ULL);
  std::vector<std::vector<firesim::OutageCause>> per_site;
  outage_sim.simulate(in.sites, fires, ocfg, feeder_plan, &per_site);

  // Fire containment per site (for the fire+outage overlap family) and
  // population exposure per fire.
  std::vector<geo::PreparedMultiPolygon> prepared;
  prepared.reserve(fires.size());
  std::vector<std::vector<std::uint8_t>> in_fire(fires.size());
  for (std::size_t f = 0; f < fires.size(); ++f) {
    prepared.emplace_back(fires[f].perimeter);
    in_fire[f].assign(in.sites.size(), 0);
    prepared[f].contains_batch(in.site_x, in.site_y, in_fire[f]);
    const double exposed = population_in_perimeter(in, fires[f], prepared[f]);
    const int active_days = fires[f].end_day - fires[f].start_day + 1;
    stats.pop_exposure += exposed * active_days;
  }

  std::vector<std::uint8_t> site_hit(in.sites.size(), 0);
  std::vector<double> site_uh(in.sites.size(), 0.0);
  std::vector<double> site_power_uh(in.sites.size(), 0.0);
  for (std::size_t day = 0; day < per_site.size(); ++day) {
    const int d = static_cast<int>(day);
    for (std::size_t i = 0; i < in.sites.size(); ++i) {
      const firesim::OutageCause cause = per_site[day][i];
      if (cause == firesim::OutageCause::kNone) continue;
      const double uh = in.site_users[i] * 24.0;
      stats.user_hours += uh;
      switch (cause) {
        case firesim::OutageCause::kDamage: stats.damage_user_hours += uh; break;
        case firesim::OutageCause::kPower:
          stats.power_user_hours += uh;
          site_power_uh[i] += uh;
          break;
        case firesim::OutageCause::kTransport:
          stats.transport_user_hours += uh;
          break;
        case firesim::OutageCause::kNone: break;
      }
      site_uh[i] += uh;
      site_hit[i] = 1;
      ++stats.outage_site_days;
      for (std::size_t f = 0; f < fires.size(); ++f) {
        if (d >= fires[f].start_day && d <= fires[f].end_day &&
            in_fire[f][i] != 0) {
          stats.overlap_user_hours += uh;
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < in.sites.size(); ++i) {
    if (site_hit[i] != 0) {
      deltas.push_back({static_cast<std::uint32_t>(i), site_uh[i],
                        site_power_uh[i]});
    }
  }
  return stats;
}

std::vector<ExceedancePoint> exceedance_curve(
    const std::vector<MemberStats>& member_stats, std::uint32_t effective,
    std::uint32_t points) {
  std::vector<ExceedancePoint> curve;
  if (effective == 0 || points == 0) return curve;
  double max_total = 0.0;
  for (const MemberStats& s : member_stats) {
    if (s.quarantined == 0) max_total = std::max(max_total, s.user_hours);
  }
  curve.reserve(points);
  for (std::uint32_t j = 0; j < points; ++j) {
    ExceedancePoint p;
    p.user_hours =
        points == 1 ? 0.0 : max_total * j / static_cast<double>(points - 1);
    std::uint32_t hits = 0;
    for (const MemberStats& s : member_stats) {
      if (s.quarantined == 0 && s.user_hours >= p.user_hours) ++hits;
    }
    p.probability = static_cast<double>(hits) / effective;
    curve.push_back(p);
  }
  return curve;
}

}  // namespace

EnsembleReport run_ensemble(const SharedInputs& inputs,
                            const EnsembleConfig& config,
                            const HardeningPlan* plan) {
  const obs::Span span(obs::metrics::kEnsembleRunNs);
  obs::count(obs::metrics::kEnsembleRuns);
  const std::size_t n_sites = inputs.sites.size();

  // Resolve the battery overlay once per run: entries <= 0 mean "stock".
  std::vector<double> battery;
  const std::vector<double>* battery_overlay = nullptr;
  if (plan != nullptr && !plan->site_battery_hours.empty()) {
    battery.assign(n_sites, config.outage.battery_hours);
    const std::size_t n = std::min(n_sites, plan->site_battery_hours.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (plan->site_battery_hours[i] > 0.0) {
        battery[i] = plan->site_battery_hours[i];
      }
    }
    battery_overlay = &battery;
  }

  EnsembleReport report;
  report.members = config.members;
  report.sites = static_cast<std::uint32_t>(n_sites);
  report.member_stats.assign(config.members, MemberStats{});

  const fault::Injector& injector = fault::Injector::global();
  obs::Registry& registry = obs::Registry::global();

  // Parallel phase: every write lands in a member-indexed slot, so the
  // execution schedule cannot influence the numbers.
  std::vector<std::vector<SiteDelta>> deltas(config.members);
  exec::parallel_for(
      config.members,
      [&](std::size_t m) {
        const std::uint32_t member = static_cast<std::uint32_t>(m);
        if (injector.fires(kMemberFaultSite, member)) {
          report.member_stats[m].quarantined = 1;
          return;
        }
        const bool timed = obs::enabled();
        const std::uint64_t t0 = timed ? registry.now_ns() : 0;
        report.member_stats[m] =
            run_member(inputs, config, battery_overlay, plan, member,
                       deltas[m]);
        if (timed) {
          registry.histogram(obs::metrics::kEnsembleMemberNs)
              .record(registry.now_ns() - t0);
        }
      },
      exec::ExecOptions{.grain = config.exec_grain});

  // Serial fold in member order: the one and only summation order.
  std::vector<double> site_uh(n_sites, 0.0);
  std::vector<double> site_power_uh(n_sites, 0.0);
  std::vector<double> site_outage_members(n_sites, 0.0);
  double uh = 0.0, power = 0.0, pop = 0.0, overlap = 0.0;
  for (std::uint32_t m = 0; m < config.members; ++m) {
    const MemberStats& stats = report.member_stats[m];
    if (stats.quarantined != 0) {
      ++report.quarantined;
      continue;
    }
    for (const SiteDelta& d : deltas[m]) {
      site_uh[d.site] += d.uh;
      site_power_uh[d.site] += d.power_uh;
      site_outage_members[d.site] += 1.0;
    }
    uh += stats.user_hours;
    power += stats.power_user_hours;
    pop += stats.pop_exposure;
    overlap += stats.overlap_user_hours;
    report.fires += stats.fires;
    report.outage_site_days += stats.outage_site_days;
  }

  obs::count(obs::metrics::kEnsembleMembers,
             config.members - report.quarantined);
  obs::count(obs::metrics::kEnsembleQuarantined, report.quarantined);
  obs::count(obs::metrics::kEnsembleFires, report.fires);
  obs::count(obs::metrics::kEnsembleOutageSiteDays, report.outage_site_days);

  const std::uint32_t effective = report.effective_members();
  const double denom = effective == 0 ? 1.0 : static_cast<double>(effective);
  report.expected_user_hours = uh / denom;
  report.expected_power_user_hours = power / denom;
  report.expected_pop_exposure = pop / denom;
  report.expected_overlap_user_hours = overlap / denom;

  report.site_expected_user_hours.resize(n_sites);
  report.site_expected_power_user_hours.resize(n_sites);
  report.site_outage_probability.resize(n_sites);
  for (std::size_t i = 0; i < n_sites; ++i) {
    report.site_expected_user_hours[i] = site_uh[i] / denom;
    report.site_expected_power_user_hours[i] = site_power_uh[i] / denom;
    report.site_outage_probability[i] = site_outage_members[i] / denom;
  }

  report.exceedance = exceedance_curve(report.member_stats, effective,
                                       config.exceedance_points);

  report.fragile_order.resize(n_sites);
  for (std::uint32_t i = 0; i < n_sites; ++i) report.fragile_order[i] = i;
  std::sort(report.fragile_order.begin(), report.fragile_order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const double ua = report.site_expected_user_hours[a];
              const double ub = report.site_expected_user_hours[b];
              return ua != ub ? ua > ub : a < b;
            });
  return report;
}

std::vector<FragileSite> top_k_fragile(const SharedInputs& inputs,
                                       const EnsembleReport& report,
                                       std::uint32_t k) {
  std::vector<FragileSite> rows;
  const std::uint32_t n = std::min<std::uint32_t>(
      k, static_cast<std::uint32_t>(report.fragile_order.size()));
  rows.reserve(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    const std::uint32_t i = report.fragile_order[r];
    FragileSite row;
    row.site = i;
    row.position = inputs.sites[i].position;
    row.users = inputs.site_users[i];
    row.expected_user_hours = report.site_expected_user_hours[i];
    row.power_share =
        report.site_expected_user_hours[i] > 0.0
            ? report.site_expected_power_user_hours[i] /
                  report.site_expected_user_hours[i]
            : 0.0;
    row.outage_probability = report.site_outage_probability[i];
    rows.push_back(row);
  }
  return rows;
}

}  // namespace fa::ensemble
