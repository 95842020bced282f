// A canonical dump of a core::World's query-visible arrays, in id
// order: the byte oracle of the shard and delta suites. Two worlds that
// dump equal hold the same transceivers, the same cached overlay
// columns, the same WHP surface, counties and grid index, and the same
// provider-risk aggregate, so they answer every query alike.
//
// The dump is plain concatenation in a fixed order — no frame, no
// section table, no checksums — and it reads the World directly, never
// through a shard cut, so a sharded view's materialize() is judged
// against an independent layout of the same state.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "raster/raster.hpp"
#include "store/access.hpp"

namespace fa::core::testing {

class WorldDump {
 public:
  template <class T>
  void put(T v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    out_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
  void str(const std::string& s) {
    put<std::uint64_t>(s.size());
    out_.append(s);
  }
  template <class T>
  void grid(const raster::Raster<T>& r) {
    const raster::GridGeometry& g = r.geom();
    put<double>(g.origin_x);
    put<double>(g.origin_y);
    put<double>(g.cell_w);
    put<double>(g.cell_h);
    put<std::int32_t>(g.cols);
    put<std::int32_t>(g.rows);
    vec(r.data());
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

// `risk` is the aggregate served beside `world` (a view's stored one,
// or run_provider_risk of a built world).
inline std::string dump_world(const core::World& world,
                              const core::ProviderRiskResult& risk) {
  using store::Access;
  WorldDump d;
  const synth::ScenarioConfig& cfg = world.config();
  const auto& txr = world.corpus().transceivers();
  d.put<std::uint64_t>(cfg.seed);
  d.put<double>(cfg.corpus_scale);
  d.put<double>(cfg.whp_cell_m);
  d.put<std::int32_t>(cfg.counties_per_state);
  d.put<std::uint64_t>(world.ingest_dropped());
  d.put<std::uint64_t>(world.ingest_repaired());
  d.put<std::uint64_t>(txr.size());

  // The ten per-transceiver columns, one after another.
  for (const auto& t : txr) d.put<double>(t.position.lon);
  for (const auto& t : txr) d.put<double>(t.position.lat);
  for (const auto& t : txr) {
    d.put<std::uint8_t>(static_cast<std::uint8_t>(t.radio));
  }
  for (const auto& t : txr) d.put<std::uint16_t>(t.mcc);
  for (const auto& t : txr) d.put<std::uint16_t>(t.mnc);
  for (const auto& t : txr) d.put<std::uint32_t>(t.cell_id);
  for (const auto& t : txr) d.put<std::int16_t>(t.state);
  d.vec(Access::txr_class(world));
  d.vec(Access::txr_county(world));
  d.vec(Access::txr_provider(world));

  const synth::WhpModel& whp = world.whp();
  d.grid(whp.grid());
  d.grid(whp.state_grid());
  d.grid(whp.urban_mask());
  d.grid(whp.road_mask());

  const auto& counties = world.counties().counties();
  d.put<std::uint64_t>(counties.size());
  for (const synth::County& c : counties) {
    d.put<std::int32_t>(c.state);
    d.put<std::uint32_t>(c.is_major ? 1u : 0u);
    d.put<double>(c.anchor.lon);
    d.put<double>(c.anchor.lat);
    d.put<double>(c.population);
    d.str(c.name);
  }

  const auto& idx = world.txr_index();
  d.put<double>(idx.bounds().min_x);
  d.put<double>(idx.bounds().min_y);
  d.put<double>(idx.bounds().max_x);
  d.put<double>(idx.bounds().max_y);
  d.put<std::int32_t>(Access::cols(idx));
  d.put<std::int32_t>(Access::rows(idx));
  d.put<double>(Access::inv_cw(idx));
  d.put<double>(Access::inv_ch(idx));
  d.put<std::uint64_t>(idx.size());
  d.vec(Access::binned(idx));
  d.vec(Access::binned_x(idx));
  d.vec(Access::binned_y(idx));
  d.vec(Access::cell_start(idx));

  for (const auto& row : risk.rows) {
    d.put<std::uint64_t>(row.fleet);
    d.put<std::uint64_t>(row.moderate);
    d.put<std::uint64_t>(row.high);
    d.put<std::uint64_t>(row.very_high);
  }
  d.put<std::uint64_t>(risk.regional_brands_at_risk);
  return d.take();
}

}  // namespace fa::core::testing
