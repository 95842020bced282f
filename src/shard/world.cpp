#include "shard/world.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <tuple>
#include <string>
#include <utility>

#include "cellnet/providers.hpp"
#include "cellnet/types.hpp"
#include "exec/exec.hpp"
#include "geo/lonlat.hpp"
#include "index/grid_index.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "shard/apply.hpp"
#include "store/access.hpp"
#include "synth/cells.hpp"
#include "synth/counties.hpp"
#include "synth/hazard.hpp"

namespace fa::shard {

namespace {

using fault::ErrCode;
using fault::Status;

Status mat_fail(ErrCode code, std::uint64_t offset, std::string message) {
  return Status::error(code, offset, "shard.materialize", std::move(message));
}

// A page viewing entries [first, first + n) of every column of
// `columns`, with `cell_start` (offsets relative to `first`).
Page view_range(std::shared_ptr<const ShardColumns> columns, std::size_t first,
                std::size_t n, std::span<const std::uint32_t> cell_start) {
  const ShardColumns& c = *columns;
  Page p;
  p.cell_start = cell_start;
  p.ids = std::span(c.ids).subspan(first, n);
  p.xs = std::span(c.xs).subspan(first, n);
  p.ys = std::span(c.ys).subspan(first, n);
  p.cls = std::span(c.cls).subspan(first, n);
  p.provider = std::span(c.provider).subspan(first, n);
  p.radio = std::span(c.radio).subspan(first, n);
  p.mcc = std::span(c.mcc).subspan(first, n);
  p.mnc = std::span(c.mnc).subspan(first, n);
  p.cell_id = std::span(c.cell_id).subspan(first, n);
  p.state = std::span(c.state).subspan(first, n);
  p.county = std::span(c.county).subspan(first, n);
  p.payload = std::move(columns);
  return p;
}

// The stable counting-sort order of `key` (each key < buckets): order[k]
// is the index of the k-th entry. `starts` receives the buckets' prefix
// sums (buckets + 1).
std::vector<std::uint32_t> counting_order(const std::vector<std::uint32_t>& key,
                                          std::size_t buckets,
                                          std::vector<std::uint32_t>& starts) {
  starts.assign(buckets + 1, 0);
  for (const std::uint32_t k : key) ++starts[k + 1];
  for (std::size_t b = 0; b < buckets; ++b) starts[b + 1] += starts[b];
  std::vector<std::uint32_t> order(key.size());
  std::vector<std::uint32_t> next(starts.begin(), starts.end() - 1);
  for (std::size_t i = 0; i < key.size(); ++i) {
    order[next[key[i]]++] = static_cast<std::uint32_t>(i);
  }
  return order;
}

// Permutes entries [first, first + order.size()) of the columns: entry
// first + order[k] moves to first + k, out of place through a copy of
// the range of every column passed.
template <class... Column>
void permute(std::size_t first, const std::vector<std::uint32_t>& order,
             Column&... columns) {
  const auto at = [first](auto& column) { return column.begin() + first; };
  const std::tuple copies{
      std::vector(at(columns), at(columns) + order.size())...};
  std::apply(
      [&](const auto&... copy) {
        (std::transform(order.begin(), order.end(), at(columns),
                        [&copy](std::uint32_t k) { return copy[k]; }),
         ...);
      },
      copies);
}

// Cuts staged columns (all but ids and cell_start filled, in id order)
// into `layout`'s shards, in (shard, local cell, id) order — the order a
// shard-local GridIndex over each shard's ascending ids bins them in: a
// stable sort by shard, column by column, then each shard's run sorted
// by local cell, the shards in parallel. cell_start holds each shard's
// prefix sums back to back; every shard's pages view the one block.
// Each shard's sort copies its whole run on an exec worker on purpose:
// the first delta applies after a build allocate page blocks on those
// workers, and in malloc arenas no build used they fault in fresh pages
// (~30% slower first ticks at paper scale with per-column scratch).
std::vector<Shard> cut_shards(std::shared_ptr<ShardColumns> staged,
                              const ShardLayout& layout) {
  ShardColumns& c = *staged;
  const std::size_t n = c.xs.size();
  const std::size_t shard_count = layout.shard_count();
  std::vector<std::uint32_t> first;
  {
    std::vector<std::uint32_t> shard_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      shard_of[i] = layout.shard_of({c.xs[i], c.ys[i]});
    }
    c.ids = counting_order(shard_of, shard_count, first);
  }
  const auto by_shard = [&c](auto&... column) {
    (permute(0, c.ids, column), ...);
  };
  by_shard(c.xs, c.ys, c.cls, c.provider, c.radio, c.mcc, c.mnc, c.cell_id,
           c.state, c.county);

  // Sized by membership: a fixed layout's counts may be stale.
  std::vector<Shard> shards(shard_count);
  std::vector<std::size_t> cell_base(shard_count + 1, 0);
  for (std::size_t s = 0; s < shard_count; ++s) {
    int cols = 0;
    int rows = 0;
    local_grid_dims(first[s + 1] - first[s], layout.extent(s).bounds, cols,
                    rows);
    shards[s] = shard_grid(layout.extent(s).bounds, cols, rows);
    cell_base[s + 1] = cell_base[s] + shards[s].cells() + 1;
  }
  c.cell_start.resize(cell_base.back());
  exec::parallel_for(
      shard_count,
      [&](std::size_t s) {
        const Shard& g = shards[s];
        std::vector<std::uint32_t> cell(first[s + 1] - first[s]);
        for (std::size_t k = 0; k < cell.size(); ++k) {
          const std::size_t i = first[s] + k;
          cell[k] = static_cast<std::uint32_t>(
              static_cast<std::size_t>(g.row_of(c.ys[i])) * g.cols +
              static_cast<std::size_t>(g.col_of(c.xs[i])));
        }
        std::vector<std::uint32_t> starts;
        const std::vector<std::uint32_t> order =
            counting_order(cell, g.cells(), starts);
        permute(first[s], order, c.ids, c.xs, c.ys, c.cls, c.provider,
                c.radio, c.mcc, c.mnc, c.cell_id, c.state, c.county);
        std::copy(starts.begin(), starts.end(),
                  c.cell_start.begin() + cell_base[s]);
      },
      exec::ExecOptions{.grain = 1});

  for (std::size_t s = 0; s < shard_count; ++s) {
    const Shard& g = shards[s];
    const Page whole = view_range(
        staged, first[s], first[s + 1] - first[s],
        std::span<const std::uint32_t>(c.cell_start)
            .subspan(cell_base[s], g.cells() + 1));
    shards[s] = page_shard(whole, g.bounds, g.cols, g.rows);
  }
  return shards;
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
  const std::size_t n = columns->ids.size();
  const std::span<const std::uint32_t> cell_start = columns->cell_start;
  return page_shard(view_range(std::move(columns), 0, n, cell_start), bounds,
                    cols, rows);
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
  const index::GridIndex& idx = world.txr_index();
  return from_world(world, risk,
                    ShardLayout::build(idx.bounds(), idx.binned_xs(),
                                       idx.binned_ys(), options));
}

ShardedWorld ShardedWorld::from_world(const core::World& world,
                                      const core::ProviderRiskResult& risk,
                                      ShardLayout layout) {
  obs::Span span(obs::metrics::kShardBuildNs);
  obs::count(obs::metrics::kShardBuilds);
  // The world's arrays, staged in id order for cut_shards.
  const auto& corpus = world.corpus().transceivers();
  const index::GridIndex& idx = world.txr_index();
  auto staged = std::make_shared<ShardColumns>();
  ShardColumns& c = *staged;
  const std::size_t n = corpus.size();
  const auto resize = [n](auto&... column) { (column.resize(n), ...); };
  resize(c.xs, c.ys, c.radio, c.mcc, c.mnc, c.cell_id, c.state);
  c.cls = store::Access::txr_class(world);
  c.provider = store::Access::txr_provider(world);
  c.county = store::Access::txr_county(world);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec2 p = idx.point(static_cast<std::uint32_t>(i));
    const cellnet::Transceiver& t = corpus[i];
    c.xs[i] = p.x;
    c.ys[i] = p.y;
    c.radio[i] = static_cast<std::uint8_t>(t.radio);
    c.mcc[i] = t.mcc;
    c.mnc[i] = t.mnc;
    c.cell_id[i] = t.cell_id;
    c.state[i] = t.state;
  }

  ShardedWorld sw;
  sw.meta_ = store::MetaFields{world.config(), world.ingest_dropped(),
                               world.ingest_repaired(), n};
  sw.whp_ = world.whp_ptr();
  sw.counties_ = world.counties_ptr();
  sw.risk_ = risk;
  sw.layout_ = std::move(layout);
  sw.gcols_ = store::Access::cols(idx);
  sw.grows_ = store::Access::rows(idx);
  sw.shards_ = cut_shards(std::move(staged), sw.layout_);
  return sw;
}

fault::Result<ShardedWorld> ShardedWorld::build(
    const synth::ScenarioConfig& config,
    const core::World::BuildOptions& options, const LayoutOptions& layout) {
  obs::Span span(obs::metrics::kShardBuildNs);
  obs::count(obs::metrics::kShardBuilds);
  const synth::UsAtlas& atlas = synth::UsAtlas::get();
  ShardedWorld sw;
  auto staged = std::make_shared<ShardColumns>();
  ShardColumns& c = *staged;
  try {
    // World::build's stages in its order (the first armed synth fault
    // wins alike), the corpus streamed into id-ordered columns.
    sw.whp_ = std::make_shared<const synth::WhpModel>(
        synth::generate_whp(atlas, config));
    const auto reserve = [n = config.corpus_size()](auto&... column) {
      (column.reserve(n), ...);
    };
    reserve(c.xs, c.ys, c.radio, c.mcc, c.mnc, c.cell_id, c.state);
    core::Ingest ingest(options, /*corrupt=*/true);
    synth::generate_corpus(
        atlas, config, [&](const cellnet::Transceiver& record) {
          cellnet::Transceiver t = record;
          if (!ingest.admit(t)) return;
          c.xs.push_back(t.position.lon);
          c.ys.push_back(t.position.lat);
          c.radio.push_back(static_cast<std::uint8_t>(t.radio));
          c.mcc.push_back(t.mcc);
          c.mnc.push_back(t.mnc);
          c.cell_id.push_back(t.cell_id);
          c.state.push_back(t.state);
        });
    sw.counties_ = std::make_shared<const synth::CountyMap>(
        synth::CountyMap::build(atlas, config));
    if (fault::Status st = ingest.finish(); !st.ok()) return st;

    // World::build's classification, over the staged columns. Every
    // write is indexed by entry, so the result is thread-count free.
    const std::size_t n = c.xs.size();
    c.cls.resize(n);
    c.county.resize(n);
    c.provider.resize(n);
    const cellnet::ProviderRegistry providers;
    const synth::WhpModel& whp = *sw.whp_;
    const synth::CountyMap& counties = *sw.counties_;
    exec::parallel_for(
        n,
        [&](std::size_t i) {
          const geo::LonLat pos{c.xs[i], c.ys[i]};
          c.cls[i] = static_cast<std::uint8_t>(whp.class_at(pos));
          c.county[i] = counties.county_of(pos);
          c.provider[i] =
              static_cast<std::uint8_t>(providers.resolve(c.mcc[i], c.mnc[i]));
        },
        {.grain = 256});
    sw.meta_ =
        store::MetaFields{config, ingest.dropped(), ingest.repaired(), n};
    sw.risk_ = provider_risk_of(c);
    sw.layout_ = ShardLayout::build(core::World::index_domain(atlas), c.xs,
                                    c.ys, layout);
    sw.gcols_ = core::World::kIndexCols;
    sw.grows_ = core::World::kIndexRows;
    sw.shards_ = cut_shards(std::move(staged), sw.layout_);
  } catch (const fault::IoError& e) {
    // A synth-layer or exec-seam fault, as World::build reports it.
    return e.status();
  }
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
