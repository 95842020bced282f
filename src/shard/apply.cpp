#include "shard/apply.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cellnet/providers.hpp"
#include "cellnet/types.hpp"
#include "exec/exec.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "synth/hazard.hpp"

namespace fa::shard {

namespace {

using delta::StagedBatch;
using fault::ErrCode;
using fault::Status;

Status apply_fail(ErrCode code, std::uint64_t offset, std::string message) {
  return Status::error(code, offset, std::string(delta::kApplySite),
                       std::move(message));
}

const cellnet::ProviderRegistry& registry() {
  static const cellnet::ProviderRegistry built_in;
  return built_in;
}

// At-risk regional transceivers per (MCC << 16 | MNC): the distinct-
// brand count behind ProviderRiskResult::regional_brands_at_risk.
using BrandTally = std::map<std::uint32_t, std::uint32_t>;

std::uint32_t brand_key(std::uint16_t mcc, std::uint16_t mnc) {
  return (static_cast<std::uint32_t>(mcc) << 16) | mnc;
}

bool regional_at_risk(std::uint8_t provider, std::uint8_t cls) {
  return provider == static_cast<std::uint8_t>(cellnet::Provider::kRegional) &&
         synth::whp_at_risk(static_cast<synth::WhpClass>(cls));
}

std::size_t distinct_brands(const BrandTally& tally) {
  std::unordered_set<std::string_view> brands;
  for (const auto& [key, count] : tally) {
    brands.insert(registry().brand(static_cast<std::uint16_t>(key >> 16),
                                   static_cast<std::uint16_t>(key)));
  }
  return brands.size();
}

// A transceiver arriving in a shard: an add, or a mover at its
// destination.
struct Incoming {
  std::uint32_t cell = 0;  // local cell (merge path)
  std::uint32_t id = 0;    // stable id
  double x = 0.0;
  double y = 0.0;
  std::uint8_t cls = 0;
  std::uint8_t provider = 0;
  std::uint8_t radio = 0;
  std::uint16_t mcc = 0;
  std::uint16_t mnc = 0;
  std::uint32_t cell_id = 0;
  std::int16_t state = 0;
  std::int32_t county = -1;
};

// An entry of a base shard: its page and its offset in that page.
struct Slot {
  std::uint32_t page = 0;
  std::uint32_t k = 0;
  auto operator<=>(const Slot&) const = default;
};

// One shard's part of a batch, in base slots.
struct ShardEdit {
  std::vector<Slot> leaving;  // retired or moved away, ascending
  // Survivors whose class the hazard edits changed, ascending.
  std::vector<std::pair<Slot, std::uint8_t>> reclassed;
  std::vector<Incoming> incoming;  // adds and movers routed here
  std::vector<geo::BBox> regions;  // dirty regions reaching the shard
  std::size_t recomputed = 0;      // surviving region members re-classified

  bool rewrite() const {
    return !leaving.empty() || !reclassed.empty() || !incoming.empty();
  }
};

// One page's part of a batch, in offsets of the base page.
struct PageEdit {
  std::vector<std::uint32_t> leaving;  // ascending
  std::vector<std::pair<std::uint32_t, std::uint8_t>> reclassed;
  std::vector<Incoming> incoming;  // by (cell, stable id)
};

// Column bytes per entry, and what a rewrite of `n` entries over
// `cells` cells writes.
constexpr std::size_t kEntryBytes =
    sizeof(std::uint32_t) + 2 * sizeof(double) + 3 * sizeof(std::uint8_t) +
    2 * sizeof(std::uint16_t) + sizeof(std::uint32_t) + sizeof(std::int16_t) +
    sizeof(std::int32_t);
std::size_t written_bytes(std::size_t n, std::size_t cells) {
  return n * kEntryBytes + (cells + 1) * sizeof(std::uint32_t);
}

// Writable column arrays of one output, entries addressed by position.
struct ColumnOut {
  std::uint32_t* ids = nullptr;
  double* xs = nullptr;
  double* ys = nullptr;
  std::uint8_t* cls = nullptr;
  std::uint8_t* provider = nullptr;
  std::uint8_t* radio = nullptr;
  std::uint16_t* mcc = nullptr;
  std::uint16_t* mnc = nullptr;
  std::uint32_t* cell_id = nullptr;
  std::int16_t* state = nullptr;
  std::int32_t* county = nullptr;

  // Sizes every column of `c` to n entries and points at them.
  static ColumnOut over(ShardColumns& c, std::size_t n) {
    c.for_each_column([n](auto& column) { column.resize(n); });
    return {c.ids.data(),     c.xs.data(),  c.ys.data(),
            c.cls.data(),     c.provider.data(), c.radio.data(),
            c.mcc.data(),     c.mnc.data(), c.cell_id.data(),
            c.state.data(),   c.county.data()};
  }

  // Entries [from, from + count) of page `b` to [at, at + count).
  void copy(std::size_t at, const Page& b, std::size_t from,
            std::size_t count) const {
    std::copy_n(b.ids.begin() + from, count, ids + at);
    std::copy_n(b.xs.begin() + from, count, xs + at);
    std::copy_n(b.ys.begin() + from, count, ys + at);
    std::copy_n(b.cls.begin() + from, count, cls + at);
    std::copy_n(b.provider.begin() + from, count, provider + at);
    std::copy_n(b.radio.begin() + from, count, radio + at);
    std::copy_n(b.mcc.begin() + from, count, mcc + at);
    std::copy_n(b.mnc.begin() + from, count, mnc + at);
    std::copy_n(b.cell_id.begin() + from, count, cell_id + at);
    std::copy_n(b.state.begin() + from, count, state + at);
    std::copy_n(b.county.begin() + from, count, county + at);
  }

  void put(std::size_t at, const Incoming& in) const {
    ids[at] = in.id;
    xs[at] = in.x;
    ys[at] = in.y;
    cls[at] = in.cls;
    provider[at] = in.provider;
    radio[at] = in.radio;
    mcc[at] = in.mcc;
    mnc[at] = in.mnc;
    cell_id[at] = in.cell_id;
    state[at] = in.state;
    county[at] = in.county;
  }
};

// One rewritten page's cell offsets and columns in a single allocation,
// so a query reading a page's columns stays within one block.
class PageBlock {
 public:
  PageBlock(std::size_t cells, std::size_t n) : cells_(cells), n_(n) {
    std::size_t size = 0;
    const auto place = [&size](std::size_t count, std::size_t width) {
      const std::size_t at = size;
      size += (count * width + 7) / 8 * 8;  // keep every column 8-aligned
      return at;
    };
    const std::size_t at_starts = place(cells + 1, sizeof(std::uint32_t));
    const std::size_t at_ids = place(n, sizeof(std::uint32_t));
    const std::size_t at_xs = place(n, sizeof(double));
    const std::size_t at_ys = place(n, sizeof(double));
    const std::size_t at_cls = place(n, 1);
    const std::size_t at_provider = place(n, 1);
    const std::size_t at_radio = place(n, 1);
    const std::size_t at_mcc = place(n, sizeof(std::uint16_t));
    const std::size_t at_mnc = place(n, sizeof(std::uint16_t));
    const std::size_t at_cell_id = place(n, sizeof(std::uint32_t));
    const std::size_t at_state = place(n, sizeof(std::int16_t));
    const std::size_t at_county = place(n, sizeof(std::int32_t));
    bytes_ = std::shared_ptr<std::byte[]>(
        new std::byte[std::max<std::size_t>(size, 8)]);
    std::byte* base = bytes_.get();
    cell_start = reinterpret_cast<std::uint32_t*>(base + at_starts);
    out = {reinterpret_cast<std::uint32_t*>(base + at_ids),
           reinterpret_cast<double*>(base + at_xs),
           reinterpret_cast<double*>(base + at_ys),
           reinterpret_cast<std::uint8_t*>(base + at_cls),
           reinterpret_cast<std::uint8_t*>(base + at_provider),
           reinterpret_cast<std::uint8_t*>(base + at_radio),
           reinterpret_cast<std::uint16_t*>(base + at_mcc),
           reinterpret_cast<std::uint16_t*>(base + at_mnc),
           reinterpret_cast<std::uint32_t*>(base + at_cell_id),
           reinterpret_cast<std::int16_t*>(base + at_state),
           reinterpret_cast<std::int32_t*>(base + at_county)};
  }

  // The page viewing the block (keeps it alive).
  Page page() const {
    Page p;
    p.cell_start = {cell_start, cells_ + 1};
    p.ids = {out.ids, n_};
    p.xs = {out.xs, n_};
    p.ys = {out.ys, n_};
    p.cls = {out.cls, n_};
    p.provider = {out.provider, n_};
    p.radio = {out.radio, n_};
    p.mcc = {out.mcc, n_};
    p.mnc = {out.mnc, n_};
    p.cell_id = {out.cell_id, n_};
    p.state = {out.state, n_};
    p.county = {out.county, n_};
    p.payload = bytes_;
    return p;
  }

  std::uint32_t* cell_start = nullptr;
  ColumnOut out;

 private:
  std::size_t cells_;
  std::size_t n_;
  std::shared_ptr<std::byte[]> bytes_;
};

// Rewrites one page of a shard whose local grid dims hold: survivor
// runs copy in bin order, each incoming entry lands in front of the
// first entry of its cell with a larger stable id (so a cell's ids stay
// ascending — the order a fresh counting sort over dense ids gives,
// rank being monotone), and reclassed survivors take their new class as
// their run lands. `first_cell` is the page's first local cell. Returns
// nothing when the edit contradicts the page (a slot outside it).
std::optional<Page> merge_page(const Page& b, std::size_t first_cell,
                               const PageEdit& edit) {
  const std::size_t cells = b.cell_start.size() - 1;
  const std::vector<Incoming>& incoming = edit.incoming;
  const std::vector<std::uint32_t>& leaving = edit.leaving;
  const std::size_t nb = b.end();
  if (!leaving.empty() &&
      (leaving.front() < b.begin() || leaving.back() >= nb)) {
    return std::nullopt;
  }
  std::vector<std::uint32_t> before(incoming.size());
  for (std::size_t i = 0; i < incoming.size(); ++i) {
    const std::size_t j = incoming[i].cell - first_cell;
    std::uint32_t k = b.cell_start[j];
    const std::uint32_t end = b.cell_start[j + 1];
    while (k < end && b.ids[k] < incoming[i].id) ++k;
    before[i] = k;
  }

  const std::size_t n = b.n() - leaving.size() + incoming.size();
  PageBlock block(cells, n);
  block.cell_start[0] = 0;
  for (std::size_t j = 0, li = 0, ii = 0; j < cells; ++j) {
    const std::uint32_t end = b.cell_start[j + 1];
    std::uint32_t removed = 0;
    std::uint32_t added = 0;
    for (; li < leaving.size() && leaving[li] < end; ++li) ++removed;
    for (; ii < incoming.size() && incoming[ii].cell - first_cell == j;
         ++ii) {
      ++added;
    }
    block.cell_start[j + 1] =
        block.cell_start[j] + (end - b.cell_start[j]) + added - removed;
  }

  // The block holds exactly n entries: every run and arrival is checked
  // against it, so an edit that contradicts the page fails instead of
  // writing past the block.
  const ColumnOut& out = block.out;
  const auto& reclassed = edit.reclassed;
  std::size_t at = 0;
  std::size_t k = b.begin(), li = 0, ii = 0, ri = 0;
  for (;;) {
    const std::size_t stop =
        std::min<std::size_t>(li < leaving.size() ? leaving[li] : nb,
                              ii < incoming.size() ? before[ii] : nb);
    if (stop < k || at + (stop - k) > n) return std::nullopt;
    out.copy(at, b, k, stop - k);
    for (; ri < reclassed.size() && reclassed[ri].first < stop; ++ri) {
      if (reclassed[ri].first < k) return std::nullopt;
      out.cls[at + reclassed[ri].first - k] = reclassed[ri].second;
    }
    at += stop - k;
    k = stop;
    if (ii < incoming.size() && before[ii] == k) {
      if (at == n) return std::nullopt;
      out.put(at++, incoming[ii++]);
    } else if (li < leaving.size() && leaving[li] == k) {
      ++li;
      ++k;
    } else {
      break;
    }
  }
  if (at != n || block.cell_start[cells] != n) return std::nullopt;
  return block.page();
}

// Rewrites a touched shard whose local grid dims changed: every member
// re-bins under the new dims, ordered by (cell, stable id) exactly as a
// fresh counting sort over ascending dense ids orders them — a counting
// sort by cell, then each cell's run sorted by id.
std::shared_ptr<ShardColumns> rebin_shard(const Shard& b,
                                          const ShardEdit& edit,
                                          std::size_t n_new, int cols,
                                          int rows) {
  const Shard grid = shard_grid(b.bounds, cols, rows);
  const auto cell_of = [&grid](double x, double y) {
    return static_cast<std::uint32_t>(
        static_cast<std::size_t>(grid.row_of(y)) * grid.cols +
        static_cast<std::size_t>(grid.col_of(x)));
  };
  struct Member {
    std::uint32_t id;
    Slot src;         // base slot; page kIncoming marks edit.incoming[k]
    std::int16_t cls;  // reclassed survivor's new class, or -1
  };
  constexpr std::uint32_t kIncoming = UINT32_MAX;
  std::vector<Member> unsorted;
  std::vector<std::uint32_t> cells_of;
  unsorted.reserve(n_new);
  cells_of.reserve(n_new);
  std::size_t li = 0;
  std::size_t ri = 0;
  for (std::uint32_t p = 0; p < b.page_count(); ++p) {
    const Page& pg = b.page(p);
    for (std::uint32_t k = pg.begin(); k < pg.end(); ++k) {
      const Slot slot{p, k};
      if (li < edit.leaving.size() && edit.leaving[li] == slot) {
        ++li;
        continue;
      }
      std::int16_t cls = -1;
      if (ri < edit.reclassed.size() && edit.reclassed[ri].first == slot) {
        cls = edit.reclassed[ri++].second;
      }
      unsorted.push_back({pg.ids[k], slot, cls});
      cells_of.push_back(cell_of(pg.xs[k], pg.ys[k]));
    }
  }
  for (std::uint32_t i = 0; i < edit.incoming.size(); ++i) {
    const Incoming& in = edit.incoming[i];
    unsorted.push_back({in.id, {kIncoming, i}, -1});
    cells_of.push_back(cell_of(in.x, in.y));
  }

  auto columns = std::make_shared<ShardColumns>();
  ShardColumns& c = *columns;
  const std::size_t cells = grid.cells();
  c.cell_start.assign(cells + 1, 0);
  for (const std::uint32_t cell : cells_of) ++c.cell_start[cell + 1];
  for (std::size_t cell = 0; cell < cells; ++cell) {
    c.cell_start[cell + 1] += c.cell_start[cell];
  }
  std::vector<Member> members(unsorted.size());
  {
    std::vector<std::uint32_t> next(c.cell_start.begin(),
                                    c.cell_start.end() - 1);
    for (std::size_t i = 0; i < unsorted.size(); ++i) {
      members[next[cells_of[i]]++] = unsorted[i];
    }
  }
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const auto first = members.begin() + c.cell_start[cell];
    const auto last = members.begin() + c.cell_start[cell + 1];
    if (last - first > 1) {
      std::sort(first, last, [](const Member& x, const Member& y) {
        return x.id < y.id;
      });
    }
  }

  const ColumnOut out = ColumnOut::over(c, members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Member& m = members[i];
    if (m.src.page == kIncoming) {
      out.put(i, edit.incoming[m.src.k]);
      continue;
    }
    out.copy(i, b.page(m.src.page), m.src.k, 1);
    if (m.cls >= 0) out.cls[i] = static_cast<std::uint8_t>(m.cls);
  }
  return columns;
}

// Rewrites every id of `shards` dense, one fresh column set per shard:
// the successor of a compaction is a lineage root again.
std::vector<Shard> compact(const std::vector<Shard>& shards,
                           const LiveIds& live, std::size_t& bytes) {
  std::vector<Shard> out(shards.size());
  exec::parallel_for(
      shards.size(),
      [&](std::size_t s) {
        const Shard& sh = shards[s];
        auto columns = std::make_shared<ShardColumns>();
        ShardColumns& c = *columns;
        const ColumnOut dst = ColumnOut::over(c, sh.n());
        c.cell_start.reserve(sh.cells() + 1);
        c.cell_start.push_back(0);
        std::size_t at = 0;
        for (std::size_t p = 0; p < sh.page_count(); ++p) {
          const Page& pg = sh.page(p);
          dst.copy(at, pg, pg.begin(), pg.n());
          for (std::size_t k = at; k < at + pg.n(); ++k) {
            c.ids[k] = live.rank(c.ids[k]);
          }
          const std::uint32_t base =
              static_cast<std::uint32_t>(at) - pg.begin();
          for (std::size_t j = 1; j < pg.cell_start.size(); ++j) {
            c.cell_start.push_back(base + pg.cell_start[j]);
          }
          at += pg.n();
        }
        out[s] = view_columns(std::move(columns), sh.bounds, sh.cols,
                              sh.rows);
      },
      exec::ExecOptions{.grain = 1});
  for (const Shard& sh : out) bytes += written_bytes(sh.n(), sh.cells());
  return out;
}

}  // namespace

// Stable id -> the page holding it, packed as (shard << kPageBits) |
// page, copy-on-write in fixed chunks: a batch copies the chunks its
// targets and arrivals fall in, and shares the rest.
class LocationIndex {
 public:
  static constexpr std::uint32_t kNowhere = UINT32_MAX;
  // local_grid_dims (and the codec) cap a local grid at 4096 x 4096.
  static constexpr unsigned kPageBits = static_cast<unsigned>(
      std::bit_width((4096u * 4096u + kPageCells - 1) / kPageCells - 1));
  // Shard ids that pack without reaching kNowhere.
  static constexpr std::size_t kMaxShards =
      (std::size_t{1} << (32 - kPageBits)) - 1;

  static std::uint32_t pack(std::size_t shard, std::size_t page) {
    return static_cast<std::uint32_t>((shard << kPageBits) | page);
  }
  static std::uint32_t shard_of(std::uint32_t at) { return at >> kPageBits; }
  static std::uint32_t page_of(std::uint32_t at) {
    return at & ((1u << kPageBits) - 1);
  }

  std::uint32_t at(std::uint32_t id) const {
    const std::size_t chunk = id >> kChunkShift;
    return chunk < chunks_.size() ? (*chunks_[chunk])[id & kChunkMask]
                                  : kNowhere;
  }

  // Index of [0, n) with every entry kNowhere, its chunks writable
  // through set_relaxed() until the index is shared.
  static LocationIndex unset(std::size_t n) {
    LocationIndex out;
    out.chunks_.reserve((n >> kChunkShift) + 1);
    for (std::size_t first = 0; first < n; first += kChunkSize) {
      out.chunks_.push_back(fresh_chunk());
    }
    return out;
  }
  // Concurrent writers of distinct ids are race-free; one id written
  // twice (a corrupt container) stays a defined, atomic race.
  void set_relaxed(std::uint32_t id, std::uint32_t at) {
    auto& chunk = const_cast<Chunk&>(*chunks_[id >> kChunkShift]);
    std::atomic_ref<std::uint32_t>(chunk[id & kChunkMask])
        .store(at, std::memory_order_relaxed);
  }
  std::size_t held() const {
    std::size_t n = 0;
    for (const auto& chunk : chunks_) {
      n += static_cast<std::size_t>(
          std::count_if(chunk->begin(), chunk->end(),
                        [](std::uint32_t at) { return at != kNowhere; }));
    }
    return n;
  }

 private:
  static constexpr unsigned kChunkShift = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  using Chunk = std::array<std::uint32_t, kChunkSize>;

  static std::shared_ptr<const Chunk> fresh_chunk() {
    auto chunk = std::make_shared<Chunk>();
    chunk->fill(kNowhere);
    return chunk;
  }

  friend class LocationEditor;
  std::vector<std::shared_ptr<const Chunk>> chunks_;
};

// A copy-on-write successor of a LocationIndex under construction.
class LocationEditor {
 public:
  explicit LocationEditor(const LocationIndex& base)
      : out_(base), owned_(base.chunks_.size(), nullptr) {}

  void set(std::uint32_t id, std::uint32_t at) {
    const std::size_t chunk = id >> LocationIndex::kChunkShift;
    while (chunk >= out_.chunks_.size()) {
      out_.chunks_.push_back(LocationIndex::fresh_chunk());
      owned_.push_back(nullptr);
    }
    if (owned_[chunk] == nullptr) {
      auto copy = std::make_shared<LocationIndex::Chunk>(*out_.chunks_[chunk]);
      owned_[chunk] = copy.get();
      out_.chunks_[chunk] = std::move(copy);
    }
    (*owned_[chunk])[id & LocationIndex::kChunkMask] = at;
  }
  LocationIndex finish() && { return std::move(out_); }

 private:
  LocationIndex out_;
  std::vector<LocationIndex::Chunk*> owned_;
};

// Stable id -> page, and the regional-brand tally, for one view of a
// lineage (see world.hpp). Immutable once published; a successor copies
// the chunks and tally entries its batch changes.
struct Lineage {
  LocationIndex where;
  BrandTally brands;
};

// Friend of ShardedWorld: reads the lineage state of a base and
// assembles the successor view.
struct Applier {
  static const LiveIds* live(const ShardedWorld& w) { return w.live_.get(); }
  static const std::shared_ptr<const Lineage>& lineage(
      const ShardedWorld& w) {
    return w.lineage_;
  }

  static ShardedWorld successor(const ShardedWorld& base,
                                std::shared_ptr<const synth::WhpModel> whp,
                                core::ProviderRiskResult risk,
                                std::uint64_t transceivers,
                                std::vector<Shard> shards,
                                std::shared_ptr<const LiveIds> live,
                                std::shared_ptr<const Lineage> lineage) {
    ShardedWorld sw;
    // From-parts contract: a view of final state S carries zero ingest
    // counters however S was reached, as World::from_parts gives.
    sw.meta_ = store::MetaFields{base.config(), 0, 0, transceivers};
    sw.whp_ = std::move(whp);
    sw.counties_ = base.counties_;
    sw.risk_ = std::move(risk);
    sw.layout_ = base.layout_;
    sw.gcols_ = base.gcols_;
    sw.grows_ = base.grows_;
    sw.shards_ = std::move(shards);
    sw.quarantined_ = 0;
    sw.live_ = std::move(live);
    sw.lineage_ = std::move(lineage);
    return sw;
  }
};

namespace {

// The lineage of a root view, in one pass over its id columns: every
// id's page and the regional-brand tally. Fails — with the error codes
// the per-apply id scan this replaces used — when an id is out of range
// or held twice.
fault::Result<Lineage> build_lineage(const ShardedWorld& root) {
  const obs::Span span(obs::metrics::kShardLineageBuildNs);
  const std::size_t shard_count = root.shard_count();
  if (shard_count > LocationIndex::kMaxShards) {
    return apply_fail(ErrCode::kOutOfRange, shard_count,
                      "too many shards for the lineage index");
  }
  const std::uint64_t n = root.total_points();
  Lineage lineage{LocationIndex::unset(n), {}};
  std::vector<std::uint8_t> out_of_range(shard_count, 0);
  std::vector<BrandTally> brands(shard_count);
  exec::parallel_for(
      shard_count,
      [&](std::size_t s) {
        const Shard& sh = root.shard(s);
        for (std::size_t p = 0; p < sh.page_count(); ++p) {
          const Page& pg = sh.page(p);
          const std::uint32_t at = LocationIndex::pack(s, p);
          for (std::uint32_t k = pg.begin(); k < pg.end(); ++k) {
            const std::uint32_t id = pg.ids[k];
            if (id >= n) {
              out_of_range[s] = 1;
              return;
            }
            lineage.where.set_relaxed(id, at);
            if (regional_at_risk(pg.provider[k], pg.cls[k])) {
              ++brands[s][brand_key(pg.mcc[k], pg.mnc[k])];
            }
          }
        }
      },
      exec::ExecOptions{.grain = 1});
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (out_of_range[s]) {
      return apply_fail(ErrCode::kOutOfRange, s,
                        "shard " + std::to_string(s) +
                            " references transceiver id out of range");
    }
  }
  // The shards hold n entries (checked by the caller), all in range: n
  // distinct ids, unless one is held twice.
  if (lineage.where.held() != n) {
    std::vector<std::uint8_t> seen(n, 0);
    for (const Shard& sh : root.shards()) {
      for (std::size_t p = 0; p < sh.page_count(); ++p) {
        const Page& pg = sh.page(p);
        for (std::uint32_t k = pg.begin(); k < pg.end(); ++k) {
          if (seen[pg.ids[k]]) {
            return apply_fail(ErrCode::kSchema, pg.ids[k],
                              "transceiver id appears in more than one slot");
          }
          seen[pg.ids[k]] = 1;
        }
      }
    }
  }
  for (const BrandTally& shard_brands : brands) {
    for (const auto& [key, count] : shard_brands) {
      lineage.brands[key] += count;
    }
  }
  return lineage;
}

}  // namespace

core::ProviderRiskResult provider_risk_of(const ShardColumns& columns) {
  delta::RiskTally tally;
  for (int p = 0; p < cellnet::kNumProviders; ++p) {
    tally.risk.rows[static_cast<std::size_t>(p)].provider =
        static_cast<cellnet::Provider>(p);
  }
  BrandTally brands;
  for (std::size_t k = 0; k < columns.cls.size(); ++k) {
    tally.add(static_cast<cellnet::Provider>(columns.provider[k]),
              static_cast<synth::WhpClass>(columns.cls[k]), +1);
    if (regional_at_risk(columns.provider[k], columns.cls[k])) {
      ++brands[brand_key(columns.mcc[k], columns.mnc[k])];
    }
  }
  tally.risk.regional_brands_at_risk = distinct_brands(brands);
  return tally.risk;
}

fault::Result<Successor> apply_delta(
    const ShardedWorld& base, std::span<const delta::FeedEvent> events,
    const delta::ApplyOptions& options) {
  const obs::Span span(obs::metrics::kDeltaApplyNs);
  if (base.quarantined_count() > 0) {
    return apply_fail(ErrCode::kIoFailure, base.quarantined_count(),
                      "cannot apply a delta to a degraded sharded view: " +
                          std::to_string(base.quarantined_count()) +
                          " shard(s) quarantined");
  }
  const std::size_t n = base.total_points();
  const std::size_t shard_count = base.shard_count();
  {
    std::size_t held = 0;
    for (const Shard& sh : base.shards()) held += sh.n();
    if (held != n) {
      return apply_fail(ErrCode::kSchema, held,
                        "shard columns hold " + std::to_string(held) +
                            " points, meta says " + std::to_string(n));
    }
  }

  Successor out;
  delta::ApplyStats& stats = out.stats;
  auto staged = delta::Applier::stage(events, n, options, stats);
  if (!staged.ok()) return staged.status();
  const StagedBatch& batch = staged.value();
  const delta::WhpPatch patch =
      delta::Applier::patch_whp(base.whp_ptr(), batch.whp_edits, stats);

  std::shared_ptr<const Lineage> lineage = Applier::lineage(base);
  if (!lineage) {
    auto built = build_lineage(base);
    if (!built.ok()) return built.status();
    lineage = std::make_shared<const Lineage>(std::move(built).take());
  }
  const LocationIndex& where = lineage->where;
  const LiveIds* live = Applier::live(base);
  const auto stable_of = [live](std::uint32_t dense) {
    return live != nullptr ? live->select(dense) : dense;
  };
  const std::uint64_t stable_end = base.stable_end();

  // Every retire/move target is found in the page the index names.
  struct Located {
    std::uint32_t shard;
    Slot slot;
  };
  const auto locate = [&](std::uint32_t id) -> std::optional<Located> {
    const std::uint32_t at = where.at(id);
    if (at == LocationIndex::kNowhere) return std::nullopt;
    const std::uint32_t s = LocationIndex::shard_of(at);
    const std::uint32_t p = LocationIndex::page_of(at);
    if (s >= shard_count || p >= base.shard(s).page_count()) {
      return std::nullopt;
    }
    const Page& pg = base.shard(s).page(p);
    for (std::uint32_t k = pg.begin(); k < pg.end(); ++k) {
      if (pg.ids[k] == id) return Located{s, {p, k}};
    }
    return std::nullopt;
  };
  const auto held_nowhere = [] {
    return apply_fail(ErrCode::kSchema, 0,
                      "a retire/move target is held by no shard");
  };

  const synth::WhpModel& whp = *patch.whp;
  const synth::CountyMap& counties = base.counties();
  const ShardLayout& layout = base.layout();
  delta::RiskTally tally{base.provider_risk()};
  BrandTally brands = lineage->brands;
  // One transceiver joins (+1) or leaves (-1) the aggregate: its
  // provider-risk row, and its brand's tally when it is an at-risk
  // regional.
  const auto count = [&](std::uint8_t provider, std::uint8_t cls,
                         std::uint16_t mcc, std::uint16_t mnc, int sign) {
    tally.add(static_cast<cellnet::Provider>(provider),
              static_cast<synth::WhpClass>(cls), sign);
    if (!regional_at_risk(provider, cls)) return;
    const auto it = brands.try_emplace(brand_key(mcc, mnc), 0).first;
    it->second = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(it->second) + sign);
    if (it->second == 0) brands.erase(it);
  };
  const auto in_domain = [](const Page& pg, std::uint32_t k) {
    return pg.provider[k] < cellnet::kNumProviders &&
           pg.cls[k] < synth::kNumWhpClasses;
  };
  const auto attribute_fail = [&base](std::uint32_t id) {
    return apply_fail(ErrCode::kOutOfRange, base.dense_id(id),
                      "transceiver attribute out of domain");
  };

  // Departures and arrivals, O(batch).
  std::vector<ShardEdit> edits(shard_count);
  std::vector<std::uint32_t> retired;  // stable ids, ascending
  retired.reserve(batch.retired.size());
  for (const std::uint32_t dense : batch.retired) {
    const std::uint32_t id = stable_of(dense);
    const std::optional<Located> at = locate(id);
    if (!at) return held_nowhere();
    const Page& pg = base.shard(at->shard).page(at->slot.page);
    const std::uint32_t k = at->slot.k;
    if (!in_domain(pg, k)) return attribute_fail(id);
    count(pg.provider[k], pg.cls[k], pg.mcc[k], pg.mnc[k], -1);
    edits[at->shard].leaving.push_back(at->slot);
    retired.push_back(id);
  }
  for (const StagedBatch::Move& m : batch.moves) {
    const std::uint32_t id = stable_of(m.target);
    const std::optional<Located> at = locate(id);
    if (!at) return held_nowhere();
    const Page& pg = base.shard(at->shard).page(at->slot.page);
    const std::uint32_t k = at->slot.k;
    if (!in_domain(pg, k)) return attribute_fail(id);
    Incoming in;
    in.id = id;
    in.x = m.to.lon;
    in.y = m.to.lat;
    in.cls = static_cast<std::uint8_t>(whp.class_at(m.to));
    in.provider = pg.provider[k];
    in.radio = pg.radio[k];
    in.mcc = pg.mcc[k];
    in.mnc = pg.mnc[k];
    in.cell_id = pg.cell_id[k];
    in.state = pg.state[k];
    in.county = counties.county_of(m.to);
    if (in.cls != pg.cls[k]) {
      count(in.provider, pg.cls[k], in.mcc, in.mnc, -1);
      count(in.provider, in.cls, in.mcc, in.mnc, +1);
    }
    edits[at->shard].leaving.push_back(at->slot);
    edits[layout.shard_of(m.to.as_vec())].incoming.push_back(in);
    ++stats.dirty_transceivers;
  }
  // Adds take the next stable ids: their dense ids are n_kept + i, after
  // every survivor.
  for (std::size_t i = 0; i < batch.adds.size(); ++i) {
    const cellnet::Transceiver& t = batch.adds[i]->txr;
    const cellnet::Provider p = registry().resolve(t.mcc, t.mnc);
    Incoming in;
    in.id = static_cast<std::uint32_t>(stable_end + i);
    in.x = t.position.lon;
    in.y = t.position.lat;
    in.cls = static_cast<std::uint8_t>(whp.class_at(t.position));
    in.provider = static_cast<std::uint8_t>(p);
    in.radio = static_cast<std::uint8_t>(t.radio);
    in.mcc = t.mcc;
    in.mnc = t.mnc;
    in.cell_id = t.cell_id;
    in.state = t.state;
    in.county = counties.county_of(t.position);
    count(in.provider, in.cls, in.mcc, in.mnc, +1);
    edits[layout.shard_of(t.position.as_vec())].incoming.push_back(in);
    ++stats.dirty_transceivers;
  }
  for (ShardEdit& edit : edits) {
    std::sort(edit.leaving.begin(), edit.leaving.end());
  }

  // Hazard-dirty survivors: the members of a dirty region, found the way
  // the planner answers a bbox query (the routed shards, their local
  // spans, exact containment), re-classified under the patched surface.
  // Movers were re-classified at their destination above.
  if (!patch.dirty_regions.empty()) {
    for (const geo::BBox& region : patch.dirty_regions) {
      for (const std::uint32_t s : layout.shards_overlapping(region)) {
        edits[s].regions.push_back(region);
      }
    }
    exec::parallel_for(
        shard_count,
        [&](std::size_t s) {
          ShardEdit& edit = edits[s];
          if (edit.regions.empty()) return;
          const Shard& sh = base.shard(s);
          std::vector<Slot> members;
          for (const geo::BBox& region : edit.regions) {
            sh.query_pages(region, [&](std::size_t p, std::uint32_t b,
                                       std::uint32_t e) {
              const Page& pg = sh.page(p);
              for (std::uint32_t k = b; k < e; ++k) {
                if (region.contains(geo::Vec2{pg.xs[k], pg.ys[k]})) {
                  members.push_back({static_cast<std::uint32_t>(p), k});
                }
              }
            });
          }
          std::sort(members.begin(), members.end());
          members.erase(std::unique(members.begin(), members.end()),
                        members.end());
          for (const Slot& slot : members) {
            if (std::binary_search(edit.leaving.begin(), edit.leaving.end(),
                                   slot)) {
              continue;
            }
            ++edit.recomputed;
            const Page& pg = sh.page(slot.page);
            const auto cls = static_cast<std::uint8_t>(whp.class_at(
                geo::LonLat{pg.xs[slot.k], pg.ys[slot.k]}));
            if (cls != pg.cls[slot.k]) edit.reclassed.push_back({slot, cls});
          }
        },
        exec::ExecOptions{.grain = 1});
    for (std::size_t s = 0; s < shard_count; ++s) {
      const Shard& sh = base.shard(s);
      stats.dirty_transceivers += edits[s].recomputed;
      for (const auto& [slot, cls] : edits[s].reclassed) {
        const Page& pg = sh.page(slot.page);
        const std::uint32_t k = slot.k;
        if (!in_domain(pg, k)) return attribute_fail(pg.ids[k]);
        count(pg.provider[k], pg.cls[k], pg.mcc[k], pg.mnc[k], -1);
        count(pg.provider[k], cls, pg.mcc[k], pg.mnc[k], +1);
      }
    }
  }
  obs::count(obs::metrics::kDeltaApplyDirtyTxr, stats.dirty_transceivers);

  // The rewrites: one per touched page of a shard whose local grid
  // holds, one per shard that re-bins.
  constexpr std::uint32_t kWholeShard = UINT32_MAX;
  struct Rewrite {
    std::uint32_t shard = 0;
    std::uint32_t page = kWholeShard;
    PageEdit edit;  // page rewrites
    int cols = 0;   // re-bins
    int rows = 0;
    std::size_t expect = 0;  // entries the rewrite must produce
    std::optional<Page> rewritten;                // a page rewrite's result
    std::shared_ptr<const ShardColumns> columns;  // a re-bin's result
  };
  std::vector<Rewrite> rewrites;
  std::vector<std::size_t> n_new(shard_count, 0);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const Shard& b = base.shard(s);
    ShardEdit& edit = edits[s];
    n_new[s] = b.n() - edit.leaving.size() + edit.incoming.size();
    if (!edit.rewrite()) continue;
    int cols = 0;
    int rows = 0;
    local_grid_dims(n_new[s], b.bounds, cols, rows);
    if (cols != b.cols || rows != b.rows) {
      Rewrite r;
      r.shard = static_cast<std::uint32_t>(s);
      r.cols = cols;
      r.rows = rows;
      r.expect = n_new[s];
      rewrites.push_back(std::move(r));
      continue;
    }
    for (Incoming& in : edit.incoming) {
      in.cell = static_cast<std::uint32_t>(
          static_cast<std::size_t>(b.row_of(in.y)) * b.cols +
          static_cast<std::size_t>(b.col_of(in.x)));
    }
    std::sort(edit.incoming.begin(), edit.incoming.end(),
              [](const Incoming& a, const Incoming& c) {
                return a.cell != c.cell ? a.cell < c.cell : a.id < c.id;
              });
    std::map<std::uint32_t, PageEdit> pages;
    for (const Slot& slot : edit.leaving) {
      pages[slot.page].leaving.push_back(slot.k);
    }
    for (const auto& [slot, cls] : edit.reclassed) {
      pages[slot.page].reclassed.push_back({slot.k, cls});
    }
    for (const Incoming& in : edit.incoming) {
      pages[in.cell / kPageCells].incoming.push_back(in);
    }
    for (auto& [p, page_edit] : pages) {
      Rewrite r;
      r.shard = static_cast<std::uint32_t>(s);
      r.page = p;
      r.expect = b.page(p).n() - page_edit.leaving.size() +
                 page_edit.incoming.size();
      r.edit = std::move(page_edit);
      rewrites.push_back(std::move(r));
    }
  }
  exec::parallel_for(
      rewrites.size(),
      [&](std::size_t i) {
        Rewrite& r = rewrites[i];
        const Shard& b = base.shard(r.shard);
        if (r.page == kWholeShard) {
          r.columns =
              rebin_shard(b, edits[r.shard], r.expect, r.cols, r.rows);
        } else {
          r.rewritten =
              merge_page(b.page(r.page),
                         static_cast<std::size_t>(r.page) * kPageCells, r.edit);
        }
      },
      exec::ExecOptions{.grain = 1});

  // Successor shards: the base's page table where untouched, a copy with
  // the rewritten pages swapped in, or a re-binned shard.
  ShardApplyStats& shard_stats = out.shards;
  std::vector<Shard> shards(base.shards());
  std::vector<std::shared_ptr<PageTable>> tables(shard_count);
  std::vector<std::uint8_t> rebinned(shard_count, 0);
  for (Rewrite& r : rewrites) {
    const bool consistent =
        r.page == kWholeShard
            ? r.columns->ids.size() == r.expect &&
                  r.columns->cell_start.back() == r.expect
            : r.rewritten.has_value();
    if (!consistent) {
      return apply_fail(ErrCode::kSchema, r.shard,
                        "shard " + std::to_string(r.shard) +
                            " columns disagree with its cell index");
    }
    Shard& sh = shards[r.shard];
    if (r.page == kWholeShard) {
      sh = view_columns(std::move(r.columns), sh.bounds, r.cols, r.rows);
      shard_stats.bytes_copied += written_bytes(sh.n(), sh.cells());
      shard_stats.pages_rewritten += sh.page_count();
      rebinned[r.shard] = 1;
      continue;
    }
    if (!tables[r.shard]) {
      tables[r.shard] = std::make_shared<PageTable>(*sh.pages);
      sh.pages = tables[r.shard];
      sh.points = n_new[r.shard];
    }
    shard_stats.bytes_copied +=
        written_bytes(r.expect, r.rewritten->cell_start.size() - 1);
    (*tables[r.shard])[r.page] = std::move(*r.rewritten);
    ++shard_stats.pages_rewritten;
  }
  std::size_t pages_total = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    pages_total += shards[s].page_count();
    shard_stats.rebuilt += edits[s].rewrite();
  }
  shard_stats.shared = shard_count - shard_stats.rebuilt;
  shard_stats.pages_shared = pages_total - shard_stats.pages_rewritten;

  // The successor's live set, lineage index and brand count.
  std::shared_ptr<const LiveIds> next_live;
  if (live != nullptr || !retired.empty()) {
    next_live = std::make_shared<const LiveIds>(
        (live != nullptr ? *live : LiveIds::all(n))
            .edited(retired, batch.adds.size()));
  }
  LocationEditor index(where);
  for (const std::uint32_t id : retired) {
    index.set(id, LocationIndex::kNowhere);
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (rebinned[s]) {
      const Shard& sh = shards[s];
      for (std::size_t p = 0; p < sh.page_count(); ++p) {
        const Page& pg = sh.page(p);
        for (std::uint32_t k = pg.begin(); k < pg.end(); ++k) {
          index.set(pg.ids[k], LocationIndex::pack(s, p));
        }
      }
      continue;
    }
    for (const Incoming& in : edits[s].incoming) {
      index.set(in.id, LocationIndex::pack(s, in.cell / kPageCells));
    }
  }
  if (tally.regional_at_risk_changed) {
    tally.risk.regional_brands_at_risk = distinct_brands(brands);
  }
  std::shared_ptr<const Lineage> next_lineage = std::make_shared<const Lineage>(
      Lineage{std::move(index).finish(), std::move(brands)});

  // Compaction: tombstones past 1/8 of the live ids rewrite every id
  // dense, and the successor starts a new lineage.
  if (next_live && (next_live->end() - next_live->count()) * 8 >
                       next_live->count()) {
    shards = compact(shards, *next_live, shard_stats.bytes_copied);
    next_live.reset();
    next_lineage.reset();
    shard_stats.compacted = true;
    shard_stats.rebuilt = shard_count;
    shard_stats.shared = 0;
    shard_stats.pages_rewritten = 0;
    for (const Shard& sh : shards) {
      shard_stats.pages_rewritten += sh.page_count();
    }
    shard_stats.pages_shared = 0;
    obs::count(obs::metrics::kShardIdsCompactions);
  }
  obs::count(obs::metrics::kShardDeltaRebuilt, shard_stats.rebuilt);
  obs::count(obs::metrics::kShardDeltaShared, shard_stats.shared);
  obs::count(obs::metrics::kShardDeltaPagesRewritten,
             shard_stats.pages_rewritten);
  obs::count(obs::metrics::kShardDeltaPagesShared, shard_stats.pages_shared);

  out.world = Applier::successor(
      base, patch.whp, tally.risk, n - batch.retired.size() + batch.adds.size(),
      std::move(shards), std::move(next_live), std::move(next_lineage));
  return out;
}

}  // namespace fa::shard
