#include "ensemble/ensemble.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "powergrid/psps.hpp"

namespace fa::ensemble {

namespace {

// Relative ignition likelihood per WHP class (mirrors the firesim
// season sampler: starts concentrate where fuels are).
double ignition_weight(synth::WhpClass cls) {
  switch (cls) {
    case synth::WhpClass::kNonBurnable: return 0.0;
    case synth::WhpClass::kVeryLow: return 0.4;
    case synth::WhpClass::kLow: return 1.2;
    case synth::WhpClass::kModerate: return 4.0;
    case synth::WhpClass::kHigh: return 9.0;
    case synth::WhpClass::kVeryHigh: return 16.0;
  }
  return 0.0;
}

}  // namespace

int SharedInputs::region_state_of(const EnsembleConfig& config) {
  const int state = synth::UsAtlas::get().state_index(config.region);
  if (state < 0) {
    throw std::invalid_argument("ensemble: unknown region '" + config.region +
                                "'");
  }
  return state;
}

SharedInputs SharedInputs::build(const core::World& world,
                                 const EnsembleConfig& config) {
  const int state = region_state_of(config);
  std::vector<cellnet::Transceiver> region;
  for (const cellnet::Transceiver& t : world.corpus().transceivers()) {
    if (t.state == state) region.push_back(t);
  }
  return build(world.whp_ptr(), world.config(), std::move(region), config);
}

SharedInputs SharedInputs::build(std::shared_ptr<const synth::WhpModel> whp,
                                 const synth::ScenarioConfig& scenario,
                                 std::vector<cellnet::Transceiver> region,
                                 const EnsembleConfig& config) {
  const obs::Span span(obs::metrics::kEnsembleInputsNs);
  SharedInputs in;
  in.whp = std::move(whp);
  in.region_state = region_state_of(config);
  const synth::UsAtlas& atlas = synth::UsAtlas::get();

  // Region corpus -> inferred sites (same clustering as the case study).
  const cellnet::CellCorpus region_corpus{std::move(region)};
  in.sites = region_corpus.infer_sites(120.0);

  // The physical substrate is a property of the world, not of the
  // ensemble draw: grid topology and ignition tables key off the
  // scenario seed so every ensemble (any config.seed) sees the same
  // infrastructure.
  const std::uint64_t world_seed = scenario.seed;
  in.grid = powergrid::GridModel::build(in.sites, *in.whp, atlas,
                                        world_seed ^ 0xE45E3B1EULL);
  in.feeder_plan = powergrid::to_feeder_plan(in.grid);
  in.population = std::make_unique<synth::PopulationSurface>(
      synth::PopulationSurface::build(atlas, scenario));
  in.fire_proto = std::make_unique<firesim::FireSimulator>(
      *in.whp, atlas, world_seed ^ 0xF14EF04CULL);

  // Users served per site: the population cell's persons split evenly
  // among the sites sharing it.
  const raster::Raster<float>& pop = in.population->grid();
  const geo::AlbersConus& proj = in.population->projection();
  std::unordered_map<std::uint64_t, std::uint32_t> sites_in_cell;
  std::vector<std::uint64_t> cell_of(in.sites.size(), ~0ULL);
  for (std::size_t i = 0; i < in.sites.size(); ++i) {
    const geo::Vec2 xy = proj.forward(in.sites[i].position);
    const int c = pop.geom().col_of(xy.x);
    const int r = pop.geom().row_of(xy.y);
    if (!pop.geom().in_bounds(c, r)) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
        static_cast<std::uint32_t>(c);
    cell_of[i] = key;
    ++sites_in_cell[key];
  }
  in.site_users.assign(in.sites.size(), 0.0);
  in.site_x.resize(in.sites.size());
  in.site_y.resize(in.sites.size());
  for (std::size_t i = 0; i < in.sites.size(); ++i) {
    const geo::Vec2 p = in.sites[i].position.as_vec();
    in.site_x[i] = p.x;
    in.site_y[i] = p.y;
    if (cell_of[i] == ~0ULL) continue;
    const double persons = in.population->population_at(in.sites[i].position);
    in.site_users[i] = persons / sites_in_cell[cell_of[i]];
    in.region_users += in.site_users[i];
  }

  // Region-restricted ignition CDF over burnable WHP cells. The WHP
  // state grid is cell-aligned with the class grid, so membership is one
  // lookup per cell.
  const raster::ClassRaster& grid = in.whp->grid();
  const raster::Raster<std::int16_t>& states = in.whp->state_grid();
  double acc = 0.0;
  for (std::uint32_t i = 0; i < grid.data().size(); ++i) {
    if (states.data()[i] != in.region_state) continue;
    const double w =
        ignition_weight(static_cast<synth::WhpClass>(grid.data()[i]));
    if (w <= 0.0) continue;
    acc += w;
    in.ignition_cdf.push_back(acc);
    in.ignition_cells.push_back(i);
  }
  if (in.ignition_cdf.empty()) {
    throw std::invalid_argument("ensemble: region '" + config.region +
                                "' has no burnable cells");
  }
  return in;
}

geo::LonLat sample_region_ignition(const SharedInputs& inputs,
                                   synth::Rng& rng) {
  const double target = rng.uniform() * inputs.ignition_cdf.back();
  const auto it = std::lower_bound(inputs.ignition_cdf.begin(),
                                   inputs.ignition_cdf.end(), target);
  const std::size_t k = static_cast<std::size_t>(
      std::distance(inputs.ignition_cdf.begin(), it));
  const std::uint32_t cell = inputs.ignition_cells[k];
  const raster::GridGeometry& geom = inputs.whp->grid().geom();
  const int c = static_cast<int>(cell % static_cast<std::uint32_t>(geom.cols));
  const int r = static_cast<int>(cell / static_cast<std::uint32_t>(geom.cols));
  const geo::Vec2 xy{geom.origin_x + (c + rng.uniform()) * geom.cell_w,
                     geom.origin_y + (r + rng.uniform()) * geom.cell_h};
  return inputs.whp->projection().inverse(xy);
}

}  // namespace fa::ensemble
