// The one piece of code allowed behind the private walls of the classes
// it rehydrates. Restoring a world is assignment of the exact arrays a
// build would have produced — no re-derivation — so the friend surface
// is "read the private SoA members, write them back". Used by the
// global section codecs (store/codec.cpp), the sharded codec and
// materialize (fa::shard), and the tests' canonical world dump.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/world.hpp"
#include "index/grid_index.hpp"
#include "synth/counties.hpp"
#include "synth/hazard.hpp"
#include "synth/usatlas.hpp"

namespace fa::store {

struct Access {
  // --- readers ----------------------------------------------------------
  static const std::vector<std::uint8_t>& txr_class(const core::World& w) {
    return w.txr_class_;
  }
  static const std::vector<std::int32_t>& txr_county(const core::World& w) {
    return w.txr_county_;
  }
  static const std::vector<std::uint8_t>& txr_provider(const core::World& w) {
    return w.txr_provider_;
  }
  static const std::vector<std::uint32_t>& binned(const index::GridIndex& g) {
    return g.binned_;
  }
  static const std::vector<double>& binned_x(const index::GridIndex& g) {
    return g.binned_x_;
  }
  static const std::vector<double>& binned_y(const index::GridIndex& g) {
    return g.binned_y_;
  }
  static const std::vector<std::uint32_t>& cell_start(
      const index::GridIndex& g) {
    return g.cell_start_;
  }
  static int cols(const index::GridIndex& g) { return g.cols_; }
  static int rows(const index::GridIndex& g) { return g.rows_; }
  static double inv_cw(const index::GridIndex& g) { return g.inv_cw_; }
  static double inv_ch(const index::GridIndex& g) { return g.inv_ch_; }

  // --- writers ----------------------------------------------------------
  static synth::WhpModel make_whp(raster::ClassRaster grid,
                                  raster::Raster<std::int16_t> states,
                                  raster::MaskRaster urban,
                                  raster::MaskRaster roads) {
    synth::WhpModel m;  // proj_ is parameter-free: default construction
    m.grid_ = std::move(grid);
    m.states_ =
        std::make_shared<const raster::Raster<std::int16_t>>(std::move(states));
    m.urban_ = std::make_shared<const raster::MaskRaster>(std::move(urban));
    m.roads_ = std::make_shared<const raster::MaskRaster>(std::move(roads));
    return m;
  }

  static synth::CountyMap make_counties(std::vector<synth::County> counties) {
    synth::CountyMap map;
    map.atlas_ = &synth::UsAtlas::get();
    map.by_state_.assign(
        static_cast<std::size_t>(map.atlas_->num_states()), {});
    for (std::size_t i = 0; i < counties.size(); ++i) {
      // build() appends in counties_ order too, so this reproduces
      // by_state_ exactly.
      map.by_state_[static_cast<std::size_t>(counties[i].state)].push_back(
          static_cast<int>(i));
    }
    map.counties_ = std::move(counties);
    return map;
  }

  // A world over the hazard surface and county map of an existing one
  // (sharded materialize, delta apply).
  static core::World make_world_shared(
      synth::ScenarioConfig config,
      std::shared_ptr<const synth::WhpModel> whp, cellnet::CellCorpus corpus,
      std::shared_ptr<const synth::CountyMap> counties,
      std::size_t ingest_dropped, std::size_t ingest_repaired,
      std::vector<std::uint8_t> txr_class, std::vector<std::int32_t> txr_county,
      std::vector<std::uint8_t> txr_provider, index::GridIndex txr_index) {
    core::World w;
    w.config_ = config;
    w.atlas_ = &synth::UsAtlas::get();
    w.whp_ = std::move(whp);
    w.corpus_ = std::move(corpus);
    w.counties_ = std::move(counties);
    w.ingest_dropped_ = ingest_dropped;
    w.ingest_repaired_ = ingest_repaired;
    w.txr_class_ = std::move(txr_class);
    w.txr_county_ = std::move(txr_county);
    w.txr_provider_ = std::move(txr_provider);
    w.txr_index_ = std::move(txr_index);
    return w;
  }
};

}  // namespace fa::store
