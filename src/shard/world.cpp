#include "shard/world.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "cellnet/providers.hpp"
#include "cellnet/types.hpp"
#include "exec/exec.hpp"
#include "geo/lonlat.hpp"
#include "index/grid_index.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "store/access.hpp"
#include "synth/hazard.hpp"

namespace fa::shard {

namespace {

using fault::ErrCode;
using fault::Status;

Status mat_fail(ErrCode code, std::uint64_t offset, std::string message) {
  return Status::error(code, offset, "shard.materialize", std::move(message));
}

// Builds one shard's columns for `member_ids` (ascending global ids)
// against a world's per-transceiver arrays, via a shard-local GridIndex
// over `bounds`.
Shard build_shard(const core::World& world,
                  std::span<const std::uint32_t> member_ids,
                  const geo::BBox& bounds) {
  const auto& corpus = world.corpus().transceivers();
  const auto& cls = store::Access::txr_class(world);
  const auto& county = store::Access::txr_county(world);
  const auto& provider = store::Access::txr_provider(world);
  const index::GridIndex& global = world.txr_index();

  const std::size_t n = member_ids.size();
  std::vector<geo::Vec2> points(n);
  for (std::size_t k = 0; k < n; ++k) {
    points[k] = global.point(member_ids[k]);
  }

  int cols = 0;
  int rows = 0;
  local_grid_dims(n, bounds, cols, rows);
  // Local counting-sort index over the member points; its binned SoA is
  // the shard's column order. Stable: binned ids ascend within every
  // cell, and member_ids is ascending, so the bin-order global ids are a
  // pure function of (members, bounds, dims).
  index::GridIndex local(std::move(points), bounds, cols, rows);

  auto columns = std::make_shared<ShardColumns>();
  ShardColumns& c = *columns;
  const auto& binned = store::Access::binned(local);
  c.ids.resize(n);
  c.cls.resize(n);
  c.provider.resize(n);
  c.radio.resize(n);
  c.mcc.resize(n);
  c.mnc.resize(n);
  c.cell_id.resize(n);
  c.state.resize(n);
  c.county.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t gid = member_ids[binned[k]];
    c.ids[k] = gid;
    c.cls[k] = cls[gid];
    c.provider[k] = provider[gid];
    c.county[k] = county[gid];
    const cellnet::Transceiver& t = corpus[gid];
    c.radio[k] = static_cast<std::uint8_t>(t.radio);
    c.mcc[k] = t.mcc;
    c.mnc[k] = t.mnc;
    c.cell_id[k] = t.cell_id;
    c.state[k] = t.state;
  }
  c.xs = store::Access::binned_x(local);
  c.ys = store::Access::binned_y(local);
  c.cell_start = store::Access::cell_start(local);
  return view_columns(std::move(columns), bounds, cols, rows);
}

}  // namespace

Shard view_columns(std::shared_ptr<const ShardColumns> columns,
                   const geo::BBox& bounds, int cols, int rows) {
  const ShardColumns& c = *columns;
  Shard s;
  s.bounds = bounds;
  s.cols = cols;
  s.rows = rows;
  // The GridIndex constructor's expressions (and the codec's on open).
  s.inv_cw = static_cast<double>(cols) / std::max(bounds.width(), 1e-12);
  s.inv_ch = static_cast<double>(rows) / std::max(bounds.height(), 1e-12);
  s.ids = c.ids;
  s.xs = c.xs;
  s.ys = c.ys;
  s.cell_start = c.cell_start;
  s.cls = c.cls;
  s.provider = c.provider;
  s.radio = c.radio;
  s.mcc = c.mcc;
  s.mnc = c.mnc;
  s.cell_id = c.cell_id;
  s.state = c.state;
  s.county = c.county;
  s.payload = std::move(columns);
  return s;
}

ShardedWorld ShardedWorld::from_world(const core::World& world,
                                      const core::ProviderRiskResult& risk,
                                      const LayoutOptions& options) {
  const index::GridIndex& global = world.txr_index();
  const std::size_t n = global.size();
  std::vector<geo::Vec2> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i] = global.point(static_cast<std::uint32_t>(i));
  }
  return from_world(world, risk,
                    ShardLayout::build(global.bounds(), points, options));
}

ShardedWorld ShardedWorld::from_world(const core::World& world,
                                      const core::ProviderRiskResult& risk,
                                      ShardLayout layout) {
  obs::Span span(obs::metrics::kShardBuildNs);
  obs::count(obs::metrics::kShardBuilds);

  ShardedWorld sw;
  sw.meta_.config = world.config();
  sw.meta_.ingest_dropped = world.ingest_dropped();
  sw.meta_.ingest_repaired = world.ingest_repaired();
  sw.meta_.transceivers = world.corpus().size();
  sw.whp_ = world.whp_ptr();
  sw.counties_ = world.counties_ptr();
  sw.risk_ = risk;
  sw.layout_ = std::move(layout);
  sw.gcols_ = store::Access::cols(world.txr_index());
  sw.grows_ = store::Access::rows(world.txr_index());

  // Route every point once; iteration in id order keeps each shard's
  // member list ascending without a sort.
  const index::GridIndex& global = world.txr_index();
  const std::size_t shard_count = sw.layout_.shard_count();
  std::vector<std::vector<std::uint32_t>> members(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    members[s].reserve(sw.layout_.extent(s).n_points);
  }
  const std::size_t n = global.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t id = static_cast<std::uint32_t>(i);
    members[sw.layout_.shard_of(global.point(id))].push_back(id);
  }

  // Shard builds are independent (each writes only its own slot), so the
  // result does not depend on the worker count.
  sw.shards_.resize(shard_count);
  exec::parallel_for(
      shard_count,
      [&](std::size_t s) {
        sw.shards_[s] =
            build_shard(world, members[s], sw.layout_.extent(s).bounds);
      },
      exec::ExecOptions{.grain = 1});
  return sw;
}

fault::Result<std::vector<geo::LonLat>> ShardedWorld::positions_by_id()
    const {
  if (quarantined_ > 0) {
    return mat_fail(ErrCode::kIoFailure, quarantined_,
                    std::to_string(quarantined_) + " shard(s) quarantined");
  }
  const std::uint64_t total = meta_.transceivers;
  std::vector<geo::LonLat> out(total);
  std::vector<std::uint8_t> seen(total, 0);
  std::uint64_t held = 0;
  for (const Shard& sh : shards_) {
    held += sh.n();
    for (std::size_t k = 0; k < sh.n(); ++k) {
      const std::uint32_t id = sh.ids[k];
      if (id >= total || seen[id]) {
        return mat_fail(ErrCode::kSchema, id,
                        "shard ids are not a permutation of the corpus");
      }
      seen[id] = 1;
      out[id] = {sh.xs[k], sh.ys[k]};
    }
  }
  if (held != total) {
    return mat_fail(ErrCode::kSchema, held,
                    "shard columns hold " + std::to_string(held) +
                        " points, meta says " + std::to_string(total));
  }
  return out;
}

fault::Result<core::World> ShardedWorld::materialize() const {
  obs::Span span(obs::metrics::kShardMaterializeNs);
  obs::count(obs::metrics::kShardMaterializes);

  if (quarantined_ > 0) {
    return mat_fail(ErrCode::kIoFailure, quarantined_,
                    "cannot materialize: " + std::to_string(quarantined_) +
                        " shard(s) quarantined");
  }
  const std::uint64_t total = meta_.transceivers;
  std::uint64_t held = 0;
  for (const Shard& s : shards_) held += s.n();
  if (held != total) {
    return mat_fail(ErrCode::kSchema, held,
                    "shard columns hold " + std::to_string(held) +
                        " points, meta says " + std::to_string(total));
  }

  // Scatter back to id order, proving along the way that shard ids form
  // a permutation of [0, total) and that every stored value is in domain
  // — the zero-copy open skipped per-record validation on purpose, so
  // this is where a tampered mmap gets caught.
  std::vector<cellnet::Transceiver> txr(total);
  std::vector<geo::Vec2> positions(total);
  std::vector<std::uint8_t> cls(total);
  std::vector<std::int32_t> county(total);
  std::vector<std::uint8_t> provider(total);
  std::vector<std::uint8_t> seen(total, 0);
  const std::int32_t county_count =
      static_cast<std::int32_t>(counties_->counties().size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    for (std::size_t k = 0; k < sh.n(); ++k) {
      const std::uint32_t gid = sh.ids[k];
      if (gid >= total) {
        return mat_fail(ErrCode::kOutOfRange, gid,
                        "shard " + std::to_string(s) +
                            " references transceiver id out of range");
      }
      if (seen[gid]) {
        return mat_fail(ErrCode::kSchema, gid,
                        "transceiver id appears in more than one bin");
      }
      seen[gid] = 1;
      const geo::LonLat pos{sh.xs[k], sh.ys[k]};
      if (!geo::is_valid(pos)) {
        return mat_fail(ErrCode::kOutOfRange, gid,
                        "transceiver position outside lon/lat domain");
      }
      if (sh.cls[k] >= synth::kNumWhpClasses ||
          sh.radio[k] >= cellnet::kNumRadioTypes ||
          sh.provider[k] >= cellnet::kNumProviders ||
          sh.county[k] < -1 || sh.county[k] >= county_count) {
        return mat_fail(ErrCode::kOutOfRange, gid,
                        "transceiver attribute out of domain");
      }
      cellnet::Transceiver& t = txr[gid];
      t.id = gid;
      t.position = pos;
      t.radio = static_cast<cellnet::RadioType>(sh.radio[k]);
      t.mcc = sh.mcc[k];
      t.mnc = sh.mnc[k];
      t.cell_id = sh.cell_id[k];
      t.state = sh.state[k];
      positions[gid] = {sh.xs[k], sh.ys[k]};
      cls[gid] = sh.cls[k];
      county[gid] = sh.county[k];
      provider[gid] = sh.provider[k];
    }
  }
  // held == total and no duplicates ⇒ every id seen: a full permutation.

  // Rebuild the monolithic index over the same domain and dims the
  // original build used — same clamped binning, same counting sort, so
  // the result round-trips byte-identical through the monolithic codec.
  index::GridIndex idx(std::move(positions), layout_.domain(), gcols_,
                       grows_);

  core::World world = store::Access::make_world_shared(
      meta_.config, whp_, cellnet::CellCorpus(std::move(txr)), counties_,
      static_cast<std::size_t>(meta_.ingest_dropped),
      static_cast<std::size_t>(meta_.ingest_repaired), std::move(cls),
      std::move(county), std::move(provider), std::move(idx));

  // Semantic cross-check: the stored provider-risk aggregate must match
  // a recount over the reassembled columns.
  const core::ProviderRiskResult check = core::run_provider_risk(world);
  if (check.regional_brands_at_risk != risk_.regional_brands_at_risk) {
    return mat_fail(ErrCode::kSchema, 0,
                    "provider risk cross-check failed (regional brands)");
  }
  for (std::size_t p = 0; p < check.rows.size(); ++p) {
    const core::ProviderRiskRow& a = check.rows[p];
    const core::ProviderRiskRow& b = risk_.rows[p];
    if (a.fleet != b.fleet || a.moderate != b.moderate || a.high != b.high ||
        a.very_high != b.very_high) {
      return mat_fail(ErrCode::kSchema, p,
                      "provider risk cross-check failed (row mismatch)");
    }
  }
  return world;
}

}  // namespace fa::shard
