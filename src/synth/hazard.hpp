// Synthetic Wildfire Hazard Potential (WHP) surface.
//
// Mirrors the USFS product the paper overlays (Section 2.2.2): a CONUS-
// wide Albers raster whose cells carry one of five hazard classes plus
// non-burnable. The synthetic surface is built from
//   * per-state fire-propensity priors (west + southeast high),
//   * a multi-octave value-noise field for spatial autocorrelation,
//   * urban-core and road-corridor masks stamped to non-burnable/very-low
//     (the exact artifact behind the paper's Section 3.4 finding that
//     roadside cell infrastructure evades WHP-based risk flags).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "geo/projection.hpp"
#include "raster/raster.hpp"
#include "synth/scenario.hpp"
#include "synth/usatlas.hpp"

namespace fa::store {
struct Access;  // snapshot codec (store/codec.cpp)
}
namespace fa::delta {
struct Applier;  // patches hazard cells in a copied surface (delta/apply.cpp)
}

namespace fa::synth {

enum class WhpClass : std::uint8_t {
  kNonBurnable = 0,  // water, urban core, outside CONUS
  kVeryLow = 1,
  kLow = 2,
  kModerate = 3,
  kHigh = 4,
  kVeryHigh = 5,
};

inline constexpr int kNumWhpClasses = 6;

std::string_view whp_class_name(WhpClass c);

// True for the classes the paper treats as "at risk" (Section 3.3).
constexpr bool whp_at_risk(WhpClass c) {
  return c == WhpClass::kModerate || c == WhpClass::kHigh ||
         c == WhpClass::kVeryHigh;
}

// A copy is cheap where it can be: live-feed edits only ever write the
// class grid, so a copy-on-write successor owns a fresh grid and shares
// the state, urban and road layers with its base by refcount.
class WhpModel {
 public:
  const raster::ClassRaster& grid() const { return grid_; }
  const raster::Raster<std::int16_t>& state_grid() const { return *states_; }
  const raster::MaskRaster& urban_mask() const { return *urban_; }
  const raster::MaskRaster& road_mask() const { return *roads_; }
  const geo::AlbersConus& projection() const { return proj_; }

  WhpClass class_at(geo::LonLat p) const {
    return static_cast<WhpClass>(grid_.sample(proj_.forward(p), 0));
  }
  // Batch form: out[i] = class_at(pts[i]) — the same projection and
  // sample per element, hoisted out of per-point callbacks so consumers
  // can hand whole spans to the site-risk tally.
  void class_at_batch(std::span<const geo::LonLat> pts,
                      std::span<WhpClass> out) const {
    for (std::size_t i = 0; i < pts.size(); ++i) out[i] = class_at(pts[i]);
  }
  bool is_urban(geo::LonLat p) const {
    return urban_->sample(proj_.forward(p), 0) != 0;
  }
  bool is_road(geo::LonLat p) const {
    return roads_->sample(proj_.forward(p), 0) != 0;
  }
  // State index at a point as baked into the raster (-1 offshore).
  int state_at(geo::LonLat p) const {
    return states_->sample(proj_.forward(p), -1);
  }

 private:
  friend WhpModel generate_whp(const UsAtlas&, const ScenarioConfig&);
  friend struct fa::store::Access;  // snapshot restore sets the rasters
  friend struct fa::delta::Applier;  // cell patches on a private copy
  raster::ClassRaster grid_;
  std::shared_ptr<const raster::Raster<std::int16_t>> states_ =
      std::make_shared<const raster::Raster<std::int16_t>>();
  std::shared_ptr<const raster::MaskRaster> urban_ =
      std::make_shared<const raster::MaskRaster>();
  std::shared_ptr<const raster::MaskRaster> roads_ =
      std::make_shared<const raster::MaskRaster>();
  geo::AlbersConus proj_;
};

WhpModel generate_whp(const UsAtlas& atlas, const ScenarioConfig& config);

}  // namespace fa::synth
