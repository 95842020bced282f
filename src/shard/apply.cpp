#include "shard/apply.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
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

// The monolithic index's clamped binning: index::GridIndex over the
// layout domain at the view's global dims. delta::Applier's
// hazard-dirty candidates are the points this grid bins into the cells
// a dirty region spans.
struct GlobalGrid {
  explicit GlobalGrid(const ShardedWorld& w)
      : domain(w.layout().domain()),
        cols(std::max(1, w.global_cols())),
        rows(std::max(1, w.global_rows())),
        inv_cw(static_cast<double>(cols) / std::max(domain.width(), 1e-12)),
        inv_ch(static_cast<double>(rows) /
               std::max(domain.height(), 1e-12)) {}

  int col_of(double x) const {
    return std::clamp(static_cast<int>((x - domain.min_x) * inv_cw), 0,
                      cols - 1);
  }
  int row_of(double y) const {
    return std::clamp(static_cast<int>((y - domain.min_y) * inv_ch), 0,
                      rows - 1);
  }

  geo::BBox domain;
  int cols;
  int rows;
  double inv_cw;
  double inv_ch;
};

// One hazard-dirty region as GridIndex::query_candidates visits it: a
// clamped global cell range, plus a lon/lat box holding every position
// binned into that range (a cell of slack per side, and far past the
// domain on a clamped edge) for the shard-local span query. The local
// and global binnings are both monotone clamped floors, so the local
// spans over `reach` cover every candidate; holds() is the exact test.
struct DirtyRange {
  int c0 = 0, c1 = 0, r0 = 0, r1 = 0;
  geo::BBox reach;

  bool holds(const GlobalGrid& g, double x, double y) const {
    const int c = g.col_of(x);
    const int r = g.row_of(y);
    return c >= c0 && c <= c1 && r >= r0 && r <= r1;
  }
};

std::optional<DirtyRange> dirty_range(const GlobalGrid& g,
                                      const geo::BBox& region) {
  // GridIndex::visit's early-outs.
  if (!region.valid() || !region.intersects(g.domain)) return std::nullopt;
  DirtyRange d;
  d.c0 = g.col_of(region.min_x);
  d.c1 = g.col_of(region.max_x);
  d.r0 = g.row_of(region.min_y);
  d.r1 = g.row_of(region.max_y);
  constexpr double kBeyond = 1000.0;  // degrees past any lon/lat position
  const double cw = 1.0 / g.inv_cw;
  const double ch = 1.0 / g.inv_ch;
  d.reach = {d.c0 == 0 ? g.domain.min_x - kBeyond
                       : g.domain.min_x + (d.c0 - 1) * cw,
             d.r0 == 0 ? g.domain.min_y - kBeyond
                       : g.domain.min_y + (d.r0 - 1) * ch,
             d.c1 == g.cols - 1 ? g.domain.max_x + kBeyond
                                : g.domain.min_x + (d.c1 + 2) * cw,
             d.r1 == g.rows - 1 ? g.domain.max_y + kBeyond
                                : g.domain.min_y + (d.r1 + 2) * ch};
  return d;
}

// A transceiver arriving in a shard: an add, or a mover at its
// destination.
struct Incoming {
  std::uint32_t cell = 0;  // local cell (merge path)
  std::uint32_t id = 0;    // successor id
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

// One shard's part of a batch, in base column positions.
struct ShardEdit {
  std::vector<std::uint32_t> leaving;  // retired or moved away, ascending
  // Survivors whose class the hazard edits changed: (position, class),
  // ascending.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> reclassed;
  std::vector<Incoming> incoming;   // adds and movers routed here
  std::vector<DirtyRange> ranges;   // dirty regions reaching the shard
  std::size_t recomputed = 0;       // surviving candidates re-classified
  bool remap = false;               // holds an id above a retired one

  bool rewrite() const {
    return !leaving.empty() || !reclassed.empty() || !incoming.empty();
  }
};

// StagedBatch::new_id over whole columns. Ids fall in 4096-id blocks; a
// block holding no retired id shifts every id by the retired count below
// it (one table load), and only the few blocks a live tick retires from
// take the binary search.
class IdRemap {
 public:
  IdRemap(const StagedBatch& batch, std::size_t n) : batch_(batch) {
    if (batch.retired.empty()) return;
    const std::size_t blocks = (n >> kShift) + 1;
    below_.assign(blocks, 0);
    mixed_.assign(blocks, 0);
    for (const std::uint32_t r : batch.retired) {
      mixed_[r >> kShift] = 1;
      if ((r >> kShift) + 1 < blocks) ++below_[(r >> kShift) + 1];
    }
    for (std::size_t b = 1; b < blocks; ++b) below_[b] += below_[b - 1];
  }

  std::uint32_t operator()(std::uint32_t old_id) const {
    if (below_.empty()) return old_id;
    const std::uint32_t block = old_id >> kShift;
    return mixed_[block] != 0 ? batch_.new_id(old_id)
                              : old_id - below_[block];
  }

  void append(std::vector<std::uint32_t>& out,
              std::span<const std::uint32_t> in) const {
    const std::size_t at = out.size();
    out.insert(out.end(), in.begin(), in.end());
    if (below_.empty()) return;
    for (auto it = out.begin() + static_cast<std::ptrdiff_t>(at);
         it != out.end(); ++it) {
      *it = (*this)(*it);
    }
  }

 private:
  static constexpr unsigned kShift = 12;
  const StagedBatch& batch_;
  std::vector<std::uint32_t> below_;  // retired ids in earlier blocks
  std::vector<std::uint8_t> mixed_;   // block holds a retired id
};

template <class T>
void append_range(std::vector<T>& out, std::span<const T> in,
                  std::size_t from, std::size_t to) {
  out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(from),
             in.begin() + static_cast<std::ptrdiff_t>(to));
}

// Appends successor entries, in bin order, to one shard's columns.
class ColumnWriter {
 public:
  ColumnWriter(ShardColumns& c, const IdRemap& remap, std::size_t n)
      : c_(c), remap_(remap) {
    c.ids.reserve(n);
    c.xs.reserve(n);
    c.ys.reserve(n);
    c.cls.reserve(n);
    c.provider.reserve(n);
    c.radio.reserve(n);
    c.mcc.reserve(n);
    c.mnc.reserve(n);
    c.cell_id.reserve(n);
    c.state.reserve(n);
    c.county.reserve(n);
  }

  // Base entries [from, to), ids remapped.
  void run(const Shard& b, std::size_t from, std::size_t to) {
    remap_.append(c_.ids, b.ids.subspan(from, to - from));
    append_range(c_.xs, b.xs, from, to);
    append_range(c_.ys, b.ys, from, to);
    append_range(c_.cls, b.cls, from, to);
    append_range(c_.provider, b.provider, from, to);
    append_range(c_.radio, b.radio, from, to);
    append_range(c_.mcc, b.mcc, from, to);
    append_range(c_.mnc, b.mnc, from, to);
    append_range(c_.cell_id, b.cell_id, from, to);
    append_range(c_.state, b.state, from, to);
    append_range(c_.county, b.county, from, to);
  }

  void push(const Incoming& in) {
    c_.ids.push_back(in.id);
    c_.xs.push_back(in.x);
    c_.ys.push_back(in.y);
    c_.cls.push_back(in.cls);
    c_.provider.push_back(in.provider);
    c_.radio.push_back(in.radio);
    c_.mcc.push_back(in.mcc);
    c_.mnc.push_back(in.mnc);
    c_.cell_id.push_back(in.cell_id);
    c_.state.push_back(in.state);
    c_.county.push_back(in.county);
  }

  std::vector<std::uint8_t>& cls() { return c_.cls; }

 private:
  ShardColumns& c_;
  const IdRemap& remap_;
};

// Rewrites a touched shard whose local grid dims hold: survivor runs
// copy in bin order, each incoming entry lands in front of the first
// entry of its cell with a larger successor id (the remap is monotone,
// so a cell's ids stay ascending — the order a fresh counting sort
// gives), and reclassed survivors take their new class as their run
// lands. Sorts `edit.incoming` by (cell, id).
std::shared_ptr<ShardColumns> merge_shard(const Shard& b, ShardEdit& edit,
                                          const IdRemap& remap,
                                          std::size_t n_new) {
  const std::size_t cells = static_cast<std::size_t>(b.cols) * b.rows;
  std::vector<Incoming>& incoming = edit.incoming;
  for (Incoming& in : incoming) {
    in.cell = static_cast<std::uint32_t>(
        static_cast<std::size_t>(b.row_of(in.y)) * b.cols +
        static_cast<std::size_t>(b.col_of(in.x)));
  }
  std::sort(incoming.begin(), incoming.end(),
            [](const Incoming& a, const Incoming& c) {
              return a.cell != c.cell ? a.cell < c.cell : a.id < c.id;
            });
  std::vector<std::uint32_t> before(incoming.size());
  for (std::size_t i = 0; i < incoming.size(); ++i) {
    std::uint32_t k = b.cell_start[incoming[i].cell];
    const std::uint32_t end = b.cell_start[incoming[i].cell + 1];
    while (k < end && remap(b.ids[k]) < incoming[i].id) ++k;
    before[i] = k;
  }

  auto columns = std::make_shared<ShardColumns>();
  ShardColumns& c = *columns;
  const std::vector<std::uint32_t>& leaving = edit.leaving;
  c.cell_start.resize(cells + 1);
  c.cell_start[0] = 0;
  for (std::size_t cell = 0, li = 0, ii = 0; cell < cells; ++cell) {
    const std::uint32_t end = b.cell_start[cell + 1];
    std::uint32_t removed = 0;
    std::uint32_t added = 0;
    for (; li < leaving.size() && leaving[li] < end; ++li) ++removed;
    for (; ii < incoming.size() && incoming[ii].cell == cell; ++ii) ++added;
    c.cell_start[cell + 1] = c.cell_start[cell] +
                             (end - b.cell_start[cell]) + added - removed;
  }

  ColumnWriter w(c, remap, n_new);
  const auto& reclassed = edit.reclassed;
  const std::size_t nb = b.n();
  std::size_t k = 0, li = 0, ii = 0, ri = 0;
  for (;;) {
    const std::size_t stop =
        std::min<std::size_t>(li < leaving.size() ? leaving[li] : nb,
                              ii < incoming.size() ? before[ii] : nb);
    const std::size_t out = c.ids.size();
    w.run(b, k, stop);
    for (; ri < reclassed.size() && reclassed[ri].first < stop; ++ri) {
      w.cls()[out + reclassed[ri].first - k] = reclassed[ri].second;
    }
    k = stop;
    if (ii < incoming.size() && before[ii] == k) {
      w.push(incoming[ii++]);
    } else if (li < leaving.size() && leaving[li] == k) {
      ++li;
      ++k;
    } else {
      break;
    }
  }
  return columns;
}

// Rewrites a touched shard whose local grid dims changed: every member
// re-bins under the new dims, ordered by (cell, successor id) exactly
// as a fresh counting sort over ascending ids orders them.
std::shared_ptr<ShardColumns> rebin_shard(const Shard& b,
                                          const ShardEdit& edit,
                                          const IdRemap& remap,
                                          std::size_t n_new, int cols,
                                          int rows) {
  // The successor's binning (bounds and dims only; no columns).
  const Shard grid = view_columns(std::make_shared<const ShardColumns>(),
                                  b.bounds, cols, rows);
  const auto cell_of = [&grid](double x, double y) {
    return static_cast<std::uint32_t>(
        static_cast<std::size_t>(grid.row_of(y)) * grid.cols +
        static_cast<std::size_t>(grid.col_of(x)));
  };
  struct Member {
    std::uint32_t cell;
    std::uint32_t id;
    std::uint32_t src;  // base position, or nb + incoming index
  };
  const std::size_t nb = b.n();
  std::vector<Member> members;
  members.reserve(n_new);
  for (std::size_t k = 0, li = 0; k < nb; ++k) {
    if (li < edit.leaving.size() && edit.leaving[li] == k) {
      ++li;
      continue;
    }
    members.push_back({cell_of(b.xs[k], b.ys[k]), remap(b.ids[k]),
                       static_cast<std::uint32_t>(k)});
  }
  for (std::size_t i = 0; i < edit.incoming.size(); ++i) {
    const Incoming& in = edit.incoming[i];
    members.push_back(
        {cell_of(in.x, in.y), in.id, static_cast<std::uint32_t>(nb + i)});
  }
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& c) {
              return a.cell != c.cell ? a.cell < c.cell : a.id < c.id;
            });

  auto columns = std::make_shared<ShardColumns>();
  ShardColumns& c = *columns;
  const std::size_t cells = static_cast<std::size_t>(cols) * rows;
  c.cell_start.assign(cells + 1, 0);
  for (const Member& m : members) ++c.cell_start[m.cell + 1];
  for (std::size_t cell = 0; cell < cells; ++cell) {
    c.cell_start[cell + 1] += c.cell_start[cell];
  }
  ColumnWriter w(c, remap, n_new);
  for (const Member& m : members) {
    if (m.src >= nb) {
      w.push(edit.incoming[m.src - nb]);
      continue;
    }
    w.run(b, m.src, m.src + 1);
    const auto re = std::lower_bound(
        edit.reclassed.begin(), edit.reclassed.end(), m.src,
        [](const std::pair<std::uint32_t, std::uint8_t>& r, std::uint32_t k) {
          return r.first < k;
        });
    if (re != edit.reclassed.end() && re->first == m.src) {
      w.cls().back() = re->second;
    }
  }
  return columns;
}

// A shard whose only change is the id remap: every column but `ids`
// stays the base's storage.
Shard with_remapped_ids(const Shard& b, const IdRemap& remap) {
  auto ids = std::make_shared<std::vector<std::uint32_t>>();
  ids->reserve(b.n());
  remap.append(*ids, b.ids);
  Shard s = b;
  s.ids = *ids;
  s.ids_payload = std::move(ids);
  return s;
}

// Distinct brands among at-risk regional transceivers, off shard
// columns. Identifier pairs dedupe per shard first, so the brand lookup
// runs once per distinct (mcc, mnc), not once per transceiver.
std::size_t regional_brands_at_risk(const std::vector<Shard>& shards) {
  std::vector<std::unordered_set<std::uint32_t>> pairs(shards.size());
  exec::parallel_for(
      shards.size(),
      [&](std::size_t s) {
        const Shard& sh = shards[s];
        for (std::size_t k = 0; k < sh.n(); ++k) {
          if (sh.provider[k] !=
                  static_cast<std::uint8_t>(cellnet::Provider::kRegional) ||
              !synth::whp_at_risk(static_cast<synth::WhpClass>(sh.cls[k]))) {
            continue;
          }
          pairs[s].insert((static_cast<std::uint32_t>(sh.mcc[k]) << 16) |
                          sh.mnc[k]);
        }
      },
      exec::ExecOptions{.grain = 1});
  std::unordered_set<std::string_view> brands;
  for (const std::unordered_set<std::uint32_t>& shard_pairs : pairs) {
    for (const std::uint32_t key : shard_pairs) {
      brands.insert(registry().brand(static_cast<std::uint16_t>(key >> 16),
                                     static_cast<std::uint16_t>(key)));
    }
  }
  return brands.size();
}

}  // namespace

// Friend of ShardedWorld: assembles the successor view.
struct Applier {
  static ShardedWorld successor(const ShardedWorld& base,
                                std::shared_ptr<const synth::WhpModel> whp,
                                core::ProviderRiskResult risk,
                                std::uint64_t transceivers,
                                std::vector<Shard> shards) {
    ShardedWorld sw;
    // From-parts contract: a view of final state S carries zero ingest
    // counters however S was reached (delta::Applier does the same).
    sw.meta_ = store::MetaFields{base.config(), 0, 0, transceivers};
    sw.whp_ = std::move(whp);
    sw.counties_ = base.counties_;
    sw.risk_ = std::move(risk);
    sw.layout_ = base.layout_;
    sw.gcols_ = base.gcols_;
    sw.grows_ = base.grows_;
    sw.shards_ = std::move(shards);
    sw.quarantined_ = 0;
    return sw;
  }
};

fault::Result<ShardApplyResult> apply_delta(
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

  ShardApplyResult out;
  delta::ApplyStats& stats = out.stats;
  auto staged = delta::Applier::stage(events, n, options, stats);
  if (!staged.ok()) return staged.status();
  const StagedBatch& batch = staged.value();
  const delta::WhpPatch patch =
      delta::Applier::patch_whp(base.whp_ptr(), batch.whp_edits, stats);
  const IdRemap remap(batch, n);
  std::vector<ShardEdit> edits(shard_count);

  // Locate every retire/move target in one scan of the id columns (the
  // view has no id -> shard index), noting which shards hold an id the
  // retires renumber.
  struct Location {
    std::uint32_t shard;
    std::uint32_t k;
  };
  struct Found {
    std::uint32_t id;
    std::uint32_t k;
  };
  std::unordered_map<std::uint32_t, Location> where;
  const std::size_t targets = batch.retired.size() + batch.moves.size();
  if (targets > 0) {
    std::vector<std::uint64_t> wanted((n + 63) / 64, 0);
    for (const std::uint32_t id : batch.retired) {
      wanted[id >> 6] |= 1ull << (id & 63);
    }
    for (const StagedBatch::Move& m : batch.moves) {
      wanted[m.target >> 6] |= 1ull << (m.target & 63);
    }
    const std::uint32_t first_retired =
        batch.retired.empty() ? UINT32_MAX : batch.retired.front();
    std::vector<std::vector<Found>> found(shard_count);
    std::vector<std::uint8_t> out_of_range(shard_count, 0);
    exec::parallel_for(
        shard_count,
        [&](std::size_t s) {
          const std::span<const std::uint32_t> ids = base.shard(s).ids;
          bool renumbered = false;
          for (std::size_t k = 0; k < ids.size(); ++k) {
            const std::uint32_t id = ids[k];
            if (id >= n) {
              out_of_range[s] = 1;
              return;
            }
            renumbered |= id > first_retired;
            if ((wanted[id >> 6] >> (id & 63)) & 1u) {
              found[s].push_back({id, static_cast<std::uint32_t>(k)});
            }
          }
          edits[s].remap = renumbered;
        },
        exec::ExecOptions{.grain = 1});
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (out_of_range[s]) {
        return apply_fail(ErrCode::kOutOfRange, s,
                          "shard " + std::to_string(s) +
                              " references transceiver id out of range");
      }
      for (const Found& f : found[s]) {
        const Location at{static_cast<std::uint32_t>(s), f.k};
        if (!where.emplace(f.id, at).second) {
          return apply_fail(ErrCode::kSchema, f.id,
                            "transceiver id appears in more than one slot");
        }
      }
    }
    if (where.size() != targets) {
      return apply_fail(ErrCode::kSchema, 0,
                        "a retire/move target is held by no shard");
    }
  }

  const synth::WhpModel& whp = *patch.whp;
  const synth::CountyMap& counties = base.counties();
  const ShardLayout& layout = base.layout();
  delta::RiskTally tally{base.provider_risk()};
  const auto in_domain = [](std::uint8_t provider, std::uint8_t cls) {
    return provider < cellnet::kNumProviders && cls < synth::kNumWhpClasses;
  };
  const auto reclass = [&tally](std::uint8_t provider, std::uint8_t from,
                                std::uint8_t to) {
    const auto p = static_cast<cellnet::Provider>(provider);
    tally.add(p, static_cast<synth::WhpClass>(from), -1);
    tally.add(p, static_cast<synth::WhpClass>(to), +1);
  };
  const auto attribute_fail = [](std::uint32_t id) {
    return apply_fail(ErrCode::kOutOfRange, id,
                      "transceiver attribute out of domain");
  };

  // Departures and arrivals, O(batch).
  for (const std::uint32_t id : batch.retired) {
    const Location at = where.at(id);
    const Shard& sh = base.shard(at.shard);
    if (!in_domain(sh.provider[at.k], sh.cls[at.k])) return attribute_fail(id);
    tally.add(static_cast<cellnet::Provider>(sh.provider[at.k]),
              static_cast<synth::WhpClass>(sh.cls[at.k]), -1);
    edits[at.shard].leaving.push_back(at.k);
  }
  for (const StagedBatch::Move& m : batch.moves) {
    const Location at = where.at(m.target);
    const Shard& sh = base.shard(at.shard);
    if (!in_domain(sh.provider[at.k], sh.cls[at.k])) {
      return attribute_fail(m.target);
    }
    Incoming in;
    in.id = remap(m.target);
    in.x = m.to.lon;
    in.y = m.to.lat;
    in.cls = static_cast<std::uint8_t>(whp.class_at(m.to));
    in.provider = sh.provider[at.k];
    in.radio = sh.radio[at.k];
    in.mcc = sh.mcc[at.k];
    in.mnc = sh.mnc[at.k];
    in.cell_id = sh.cell_id[at.k];
    in.state = sh.state[at.k];
    in.county = counties.county_of(m.to);
    if (in.cls != sh.cls[at.k]) reclass(in.provider, sh.cls[at.k], in.cls);
    edits[at.shard].leaving.push_back(at.k);
    edits[layout.shard_of(m.to.as_vec())].incoming.push_back(in);
    ++stats.dirty_transceivers;
  }
  const std::size_t n_kept = n - batch.retired.size();
  for (std::size_t i = 0; i < batch.adds.size(); ++i) {
    const cellnet::Transceiver& t = batch.adds[i]->txr;
    const cellnet::Provider p = registry().resolve(t.mcc, t.mnc);
    Incoming in;
    in.id = static_cast<std::uint32_t>(n_kept + i);
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
    tally.add(p, static_cast<synth::WhpClass>(in.cls), +1);
    edits[layout.shard_of(t.position.as_vec())].incoming.push_back(in);
    ++stats.dirty_transceivers;
  }
  for (ShardEdit& edit : edits) {
    std::sort(edit.leaving.begin(), edit.leaving.end());
  }

  // Hazard-dirty survivors: delta::Applier's candidates, found through
  // each reached shard's local grid, re-classified under the patched
  // surface. Movers were re-classified at their destination above.
  if (!patch.dirty_regions.empty()) {
    const GlobalGrid grid(base);
    for (const geo::BBox& region : patch.dirty_regions) {
      const std::optional<DirtyRange> range = dirty_range(grid, region);
      if (!range) continue;
      for (const std::uint32_t s : layout.shards_overlapping(range->reach)) {
        edits[s].ranges.push_back(*range);
      }
    }
    exec::parallel_for(
        shard_count,
        [&](std::size_t s) {
          ShardEdit& edit = edits[s];
          if (edit.ranges.empty()) return;
          const Shard& sh = base.shard(s);
          std::vector<std::uint32_t> candidates;
          for (const DirtyRange& range : edit.ranges) {
            sh.query_spans(range.reach, [&](std::uint32_t b, std::uint32_t e) {
              for (std::uint32_t k = b; k < e; ++k) {
                if (range.holds(grid, sh.xs[k], sh.ys[k])) {
                  candidates.push_back(k);
                }
              }
            });
          }
          std::sort(candidates.begin(), candidates.end());
          candidates.erase(std::unique(candidates.begin(), candidates.end()),
                           candidates.end());
          for (const std::uint32_t k : candidates) {
            if (std::binary_search(edit.leaving.begin(), edit.leaving.end(),
                                   k)) {
              continue;
            }
            ++edit.recomputed;
            const auto cls = static_cast<std::uint8_t>(
                whp.class_at(geo::LonLat{sh.xs[k], sh.ys[k]}));
            if (cls != sh.cls[k]) edit.reclassed.push_back({k, cls});
          }
        },
        exec::ExecOptions{.grain = 1});
    for (std::size_t s = 0; s < shard_count; ++s) {
      const Shard& sh = base.shard(s);
      stats.dirty_transceivers += edits[s].recomputed;
      for (const auto& [k, cls] : edits[s].reclassed) {
        if (!in_domain(sh.provider[k], sh.cls[k])) {
          return attribute_fail(sh.ids[k]);
        }
        reclass(sh.provider[k], sh.cls[k], cls);
      }
    }
  }
  obs::count(obs::metrics::kDeltaApplyDirtyTxr, stats.dirty_transceivers);

  // Successor shards: shared, ids-only, merged, or re-binned.
  std::vector<Shard> shards(shard_count);
  std::vector<std::uint8_t> inconsistent(shard_count, 0);
  exec::parallel_for(
      shard_count,
      [&](std::size_t s) {
        const Shard& b = base.shard(s);
        ShardEdit& edit = edits[s];
        if (!edit.rewrite()) {
          shards[s] = edit.remap ? with_remapped_ids(b, remap) : b;
          return;
        }
        const std::size_t n_new =
            b.n() - edit.leaving.size() + edit.incoming.size();
        int cols = 0;
        int rows = 0;
        local_grid_dims(n_new, b.bounds, cols, rows);
        std::shared_ptr<ShardColumns> columns =
            cols == b.cols && rows == b.rows
                ? merge_shard(b, edit, remap, n_new)
                : rebin_shard(b, edit, remap, n_new, cols, rows);
        if (columns->ids.size() != n_new ||
            columns->cell_start.back() != n_new) {
          inconsistent[s] = 1;
          return;
        }
        shards[s] = view_columns(std::move(columns), b.bounds, cols, rows);
      },
      exec::ExecOptions{.grain = 1});
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (inconsistent[s]) {
      return apply_fail(ErrCode::kSchema, s,
                        "shard " + std::to_string(s) +
                            " columns disagree with its cell index");
    }
  }
  for (const ShardEdit& edit : edits) out.shards.rebuilt += edit.rewrite();
  out.shards.shared = shard_count - out.shards.rebuilt;
  obs::count(obs::metrics::kShardDeltaRebuilt, out.shards.rebuilt);
  obs::count(obs::metrics::kShardDeltaShared, out.shards.shared);

  if (tally.regional_at_risk_changed) {
    tally.risk.regional_brands_at_risk = regional_brands_at_risk(shards);
  }
  out.world = Applier::successor(base, patch.whp, tally.risk,
                                 n_kept + batch.adds.size(),
                                 std::move(shards));
  return out;
}

}  // namespace fa::shard
