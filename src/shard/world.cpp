#include "shard/world.hpp"

#include <algorithm>
#include <bit>
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

// A page viewing every column of `columns`.
Page view_page(std::shared_ptr<const ShardColumns> columns) {
  const ShardColumns& c = *columns;
  Page p;
  p.cell_start = c.cell_start;
  p.ids = c.ids;
  p.xs = c.xs;
  p.ys = c.ys;
  p.cls = c.cls;
  p.provider = c.provider;
  p.radio = c.radio;
  p.mcc = c.mcc;
  p.mnc = c.mnc;
  p.cell_id = c.cell_id;
  p.state = c.state;
  p.county = c.county;
  p.payload = std::move(columns);
  return p;
}

}  // namespace

Shard shard_grid(const geo::BBox& bounds, int cols, int rows) {
  Shard s;
  s.bounds = bounds;
  s.cols = cols;
  s.rows = rows;
  // The GridIndex constructor's expressions.
  s.inv_cw = static_cast<double>(cols) / std::max(bounds.width(), 1e-12);
  s.inv_ch = static_cast<double>(rows) / std::max(bounds.height(), 1e-12);
  return s;
}

Shard page_shard(const Page& whole, const geo::BBox& bounds, int cols,
                 int rows) {
  Shard s = shard_grid(bounds, cols, rows);
  s.points = whole.n();
  const std::size_t cells = s.cells();
  auto pages = std::make_shared<PageTable>();
  pages->reserve((cells + kPageCells - 1) / kPageCells);
  for (std::size_t first = 0; first < cells; first += kPageCells) {
    const std::size_t count = std::min<std::size_t>(kPageCells, cells - first);
    Page& page = pages->emplace_back(whole);
    page.cell_start = whole.cell_start.subspan(first, count + 1);
  }
  s.pages = std::move(pages);
  return s;
}

Shard view_columns(std::shared_ptr<const ShardColumns> columns,
                   const geo::BBox& bounds, int cols, int rows) {
  return page_shard(view_page(std::move(columns)), bounds, cols, rows);
}

// -- LiveIds ------------------------------------------------------------

void LiveIds::Chunk::reindex() {
  std::uint16_t live = 0;
  for (std::size_t w = 0; w < kChunkWords; ++w) {
    rank[w] = live;
    live = static_cast<std::uint16_t>(live + std::popcount(words[w]));
  }
}

LiveIds LiveIds::all(std::size_t n) {
  LiveIds out;
  const std::size_t per_chunk = std::size_t{1} << kChunkShift;
  for (std::size_t first = 0; first < n; first += per_chunk) {
    auto c = std::make_shared<Chunk>();
    const std::size_t bits = std::min(per_chunk, n - first);
    std::fill_n(c->words.begin(), bits / 64, ~std::uint64_t{0});
    if (bits % 64 != 0) {
      c->words[bits / 64] = (std::uint64_t{1} << (bits % 64)) - 1;
    }
    c->reindex();
    out.before_.push_back(first);
    out.chunks_.push_back(std::move(c));
  }
  out.end_ = n;
  out.count_ = n;
  return out;
}

bool LiveIds::contains(std::uint32_t id) const {
  if (id >= end_) return false;
  const Chunk& c = *chunks_[id >> kChunkShift];
  const std::size_t bit = id & ((1u << kChunkShift) - 1);
  return (c.words[bit >> 6] >> (bit & 63)) & 1u;
}

std::uint32_t LiveIds::rank(std::uint32_t id) const {
  if (id >= end_) return static_cast<std::uint32_t>(count_);
  const std::size_t chunk = id >> kChunkShift;
  const Chunk& c = *chunks_[chunk];
  const std::size_t bit = id & ((1u << kChunkShift) - 1);
  const std::uint64_t below = c.words[bit >> 6] &
                              ((std::uint64_t{1} << (bit & 63)) - 1);
  return static_cast<std::uint32_t>(before_[chunk] + c.rank[bit >> 6] +
                                    std::popcount(below));
}

std::uint32_t LiveIds::select(std::uint32_t dense) const {
  // The last chunk (word) whose earlier-live count is <= dense holds it:
  // the ones after it start past dense, and it is non-empty past dense.
  const std::size_t chunk =
      static_cast<std::size_t>(
          std::upper_bound(before_.begin(), before_.end(), dense) -
          before_.begin()) -
      1;
  const Chunk& c = *chunks_[chunk];
  const auto within = static_cast<std::uint32_t>(dense - before_[chunk]);
  const std::size_t w =
      static_cast<std::size_t>(
          std::upper_bound(c.rank.begin(), c.rank.end(), within) -
          c.rank.begin()) -
      1;
  std::uint64_t word = c.words[w];
  for (std::uint32_t skip = within - c.rank[w]; skip > 0; --skip) {
    word &= word - 1;
  }
  return static_cast<std::uint32_t>((chunk << kChunkShift) + w * 64 +
                                    static_cast<std::size_t>(
                                        std::countr_zero(word)));
}

LiveIds LiveIds::edited(std::span<const std::uint32_t> retired,
                        std::size_t added) const {
  LiveIds out = *this;
  std::vector<Chunk*> owned(chunks_.size(), nullptr);
  const auto writable = [&](std::size_t chunk) -> Chunk& {
    if (chunk == out.chunks_.size()) {
      auto fresh = std::make_shared<Chunk>();
      owned.push_back(fresh.get());
      out.chunks_.push_back(std::move(fresh));
    }
    if (owned[chunk] == nullptr) {
      auto copy = std::make_shared<Chunk>(*out.chunks_[chunk]);
      owned[chunk] = copy.get();
      out.chunks_[chunk] = std::move(copy);
    }
    return *owned[chunk];
  };
  const std::size_t mask = (std::size_t{1} << kChunkShift) - 1;
  for (const std::uint32_t id : retired) {
    Chunk& c = writable(id >> kChunkShift);
    c.words[(id & mask) >> 6] &= ~(std::uint64_t{1} << (id & 63));
  }
  for (std::uint64_t id = end_; id < end_ + added; ++id) {
    Chunk& c = writable(static_cast<std::size_t>(id >> kChunkShift));
    c.words[(id & mask) >> 6] |= std::uint64_t{1} << (id & 63);
  }
  for (Chunk* c : owned) {
    if (c != nullptr) c->reindex();
  }
  out.end_ = end_ + added;
  out.count_ = count_ - retired.size() + added;
  out.before_.resize(out.chunks_.size());
  std::uint64_t live = 0;
  for (std::size_t chunk = 0; chunk < out.chunks_.size(); ++chunk) {
    out.before_[chunk] = live;
    const Chunk& c = *out.chunks_[chunk];
    live += c.rank.back() + static_cast<std::uint64_t>(
                                std::popcount(c.words.back()));
  }
  return out;
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

template <class Visit>
Status ShardedWorld::scatter_dense(Visit&& visit) const {
  if (quarantined_ > 0) {
    return mat_fail(ErrCode::kIoFailure, quarantined_,
                    std::to_string(quarantined_) + " shard(s) quarantined");
  }
  const std::uint64_t total = meta_.transceivers;
  std::uint64_t held = 0;
  for (const Shard& sh : shards_) held += sh.n();
  if (held != total) {
    return mat_fail(ErrCode::kSchema, held,
                    "shard columns hold " + std::to_string(held) +
                        " points, meta says " + std::to_string(total));
  }
  const std::uint64_t end = stable_end();
  std::vector<std::uint8_t> seen(total, 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    for (std::size_t p = 0; p < sh.page_count(); ++p) {
      const Page& pg = sh.page(p);
      for (std::uint32_t k = pg.begin(); k < pg.end(); ++k) {
        const std::uint32_t stable = pg.ids[k];
        if (stable >= end || (live_ && !live_->contains(stable))) {
          return mat_fail(ErrCode::kOutOfRange, stable,
                          "shard " + std::to_string(s) +
                              " references transceiver id out of range");
        }
        const std::uint32_t dense = dense_id(stable);
        if (seen[dense]) {
          return mat_fail(ErrCode::kSchema, dense,
                          "transceiver id appears in more than one bin");
        }
        seen[dense] = 1;
        if (Status st = visit(dense, pg, k); !st.ok()) return st;
      }
    }
  }
  // held == total and no duplicates => every live id seen exactly once.
  return Status{};
}

fault::Result<std::vector<geo::LonLat>> ShardedWorld::positions_by_id()
    const {
  std::vector<geo::LonLat> out(meta_.transceivers);
  const Status status = scatter_dense(
      [&out](std::uint32_t dense, const Page& pg, std::uint32_t k) {
        out[dense] = {pg.xs[k], pg.ys[k]};
        return Status{};
      });
  if (!status.ok()) return status;
  return out;
}

fault::Result<core::World> ShardedWorld::materialize() const {
  obs::Span span(obs::metrics::kShardMaterializeNs);
  obs::count(obs::metrics::kShardMaterializes);

  // Scatter back to dense-id order, proving along the way that the id
  // columns hold every live id once and that every stored value is in
  // domain — the zero-copy open skipped per-record validation on
  // purpose, so this is where a tampered mmap gets caught.
  const std::uint64_t total = meta_.transceivers;
  std::vector<cellnet::Transceiver> txr(total);
  std::vector<geo::Vec2> positions(total);
  std::vector<std::uint8_t> cls(total);
  std::vector<std::int32_t> county(total);
  std::vector<std::uint8_t> provider(total);
  const std::int32_t county_count =
      static_cast<std::int32_t>(counties_->counties().size());
  const Status status = scatter_dense(
      [&](std::uint32_t gid, const Page& pg, std::uint32_t k) {
        const geo::LonLat pos{pg.xs[k], pg.ys[k]};
        if (!geo::is_valid(pos)) {
          return mat_fail(ErrCode::kOutOfRange, gid,
                          "transceiver position outside lon/lat domain");
        }
        if (pg.cls[k] >= synth::kNumWhpClasses ||
            pg.radio[k] >= cellnet::kNumRadioTypes ||
            pg.provider[k] >= cellnet::kNumProviders ||
            pg.county[k] < -1 || pg.county[k] >= county_count) {
          return mat_fail(ErrCode::kOutOfRange, gid,
                          "transceiver attribute out of domain");
        }
        cellnet::Transceiver& t = txr[gid];
        t.id = gid;
        t.position = pos;
        t.radio = static_cast<cellnet::RadioType>(pg.radio[k]);
        t.mcc = pg.mcc[k];
        t.mnc = pg.mnc[k];
        t.cell_id = pg.cell_id[k];
        t.state = pg.state[k];
        positions[gid] = {pg.xs[k], pg.ys[k]};
        cls[gid] = pg.cls[k];
        county[gid] = pg.county[k];
        provider[gid] = pg.provider[k];
        return Status{};
      });
  if (!status.ok()) return status;

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
