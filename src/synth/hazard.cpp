#include "synth/hazard.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "exec/exec.hpp"
#include "fault/injector.hpp"
#include "obs/obs.hpp"
#include "geo/geodesy.hpp"
#include "raster/morphology.hpp"
#include "raster/rasterize.hpp"
#include "synth/noise.hpp"
#include "synth/roads.hpp"

namespace fa::synth {

std::string_view whp_class_name(WhpClass c) {
  switch (c) {
    case WhpClass::kNonBurnable: return "Non-burnable";
    case WhpClass::kVeryLow: return "Very Low";
    case WhpClass::kLow: return "Low";
    case WhpClass::kModerate: return "Moderate";
    case WhpClass::kHigh: return "High";
    case WhpClass::kVeryHigh: return "Very High";
  }
  return "?";
}

namespace {

// Urban-core radius for a metro of `pop` persons, in metres. LA (13.3M)
// gets ~19 km, a 200k metro ~5 km.
double urban_radius_m(double pop) {
  return (3.0 + 4.4 * std::sqrt(pop / 1e6)) * 1000.0;
}

}  // namespace

WhpModel generate_whp(const UsAtlas& atlas, const ScenarioConfig& config) {
  fault::Injector::global().fail_point("synth.whp", config.seed);
  const obs::Span span("synth.whp");
  WhpModel model;

  // Albers-space bounds of the CONUS from the state outlines.
  geo::BBox albers_box;
  for (int s = 0; s < atlas.num_states(); ++s) {
    for (const geo::Vec2& v : atlas.state_boundary(s).outer().points()) {
      albers_box.expand(model.proj_.forward(geo::LonLat::from_vec(v)));
    }
  }
  const raster::GridGeometry geom = raster::GridGeometry::covering(
      albers_box.inflated(config.whp_cell_m), config.whp_cell_m,
      config.whp_cell_m);

  model.grid_ = raster::ClassRaster(
      geom, static_cast<std::uint8_t>(WhpClass::kNonBurnable));
  raster::Raster<std::int16_t> states(geom, -1);
  raster::MaskRaster urban(geom, 0);
  raster::MaskRaster roads(geom, 0);

  // --- Urban cores -------------------------------------------------------
  for (const CityInfo& city : atlas.cities()) {
    const geo::Vec2 center = model.proj_.forward(city.position);
    const double r = urban_radius_m(city.metro_population);
    const geo::Polygon disc{geo::make_circle(center, r, 24)};
    raster::rasterize_polygon(urban, disc, 1);
  }

  // --- Road corridors from the shared network ------------------------------
  for (const RoadSegment& segment : RoadNetwork::get().segments()) {
    const std::vector<geo::Vec2> line{model.proj_.forward(segment.a),
                                      model.proj_.forward(segment.b)};
    raster::rasterize_polyline(roads, line, config.whp_cell_m * 0.6,
                               1);
  }

  // --- Hazard classification ---------------------------------------------
  // score = fbm^1.35 + 0.55*(propensity - 0.5), suppressed near urban
  // cores; classified by fixed cuts. Constants are calibrated so that per
  // state: area(M) > area(H) > area(VH) and the paper's high-risk states
  // carry the most at-risk area.
  const ValueNoise noise(config.seed ^ 0x9D2C5680ULL);
  const double wavelength_m = 42000.0;  // hazard blob scale
  const raster::FloatRaster urban_dist = raster::distance_transform(urban);

  // Row-parallel: every cell's score is a pure function of its own
  // coordinates (value noise, not sequential RNG), so rows classify
  // independently and the surface is identical at any thread count.
  exec::parallel_for(static_cast<std::size_t>(geom.rows), [&](std::size_t row) {
    const int r = static_cast<int>(row);
    for (int c = 0; c < geom.cols; ++c) {
      const geo::Vec2 center = geom.cell_center(c, r);
      const geo::LonLat ll = model.proj_.inverse(center);
      const int state = atlas.state_of(ll);
      if (state < 0) continue;  // offshore / outside CONUS
      states.at(c, r) = static_cast<std::int16_t>(state);

      if (urban.at(c, r) != 0) {
        // Urban cores hold no wildfire fuel.
        model.grid_.at(c, r) =
            static_cast<std::uint8_t>(WhpClass::kNonBurnable);
        continue;
      }

      const double p =
          atlas.states()[static_cast<std::size_t>(state)].fire_propensity;
      const double n =
          noise.fbm(center.x / wavelength_m, center.y / wavelength_m, 4);
      double score = std::pow(n, 1.35) + 0.55 * (p - 0.5);

      // Taper toward urban edges: vegetation (fuel) builds with distance
      // from the developed core, the WUI gradient of Section 3.7.
      const double d_urban = urban_dist.at(c, r);
      score *= std::clamp(0.38 + d_urban / 9000.0, 0.38, 1.0);

      WhpClass cls;
      if (score < 0.28) cls = WhpClass::kVeryLow;
      else if (score < 0.44) cls = WhpClass::kLow;
      else if (score < 0.60) cls = WhpClass::kModerate;
      else if (score < 0.74) cls = WhpClass::kHigh;
      else cls = WhpClass::kVeryHigh;

      // Managed road corridors carry little fuel regardless of terrain.
      if (roads.at(c, r) != 0) {
        cls = std::min(cls, WhpClass::kLow);
      }
      model.grid_.at(c, r) = static_cast<std::uint8_t>(cls);
    }
  }, {.grain = 4});
  model.states_ =
      std::make_shared<const raster::Raster<std::int16_t>>(std::move(states));
  model.urban_ = std::make_shared<const raster::MaskRaster>(std::move(urban));
  model.roads_ = std::make_shared<const raster::MaskRaster>(std::move(roads));
  return model;
}

}  // namespace fa::synth
