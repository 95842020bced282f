// fa::shard — a geo-sharded view of the analysis world.
//
// A ShardedWorld holds the same content as a core::World, rearranged
// for continental-scale serving: the global layers every query touches
// (WHP surface, county map, provider-risk aggregate, scenario meta)
// stay whole, while the per-transceiver columns are partitioned by a
// ShardLayout into shards. Each shard carries its columns in *local bin
// order* — a shard-local GridIndex's counting-sorted layout — so a
// shard query is a sequential sweep over contiguous spans: no gather
// through a global id permutation, no per-record decode.
//
// Pages. A shard's local cells are cut, in bin order, into pages of
// kPageCells consecutive cells; a page holds the column entries of its
// cells and is the unit of copy-on-write. The pages are views: a fresh
// build (build, from_world) points every page of every shard into one
// owned ShardColumns block, a re-binned or compacted shard into one of
// its own, an opened FASHRD01 container points them straight into the
// mmap (so open stays O(sections + pages)), and a delta apply gives each
// page it rewrites one block of its own holding all of its columns. A
// successor view shares every page an apply did not touch — and the
// whole page table of a shard it did not touch — with its base by
// refcount.
//
// Stable ids. The id columns hold *stable* ids: a retire leaves a
// tombstone instead of renumbering the survivors, and an add takes the
// next unused stable id. The dense id a response or an encoded image
// carries is the stable id's rank among the live ones (dense_id()),
// which keeps survivors in base order and appends adds — the order a
// from-scratch fold of the batch gives — so ranking by stable id and by
// dense id agree. A root view (built, or opened from a container) has no
// tombstones and no live set: its stable ids are the dense ids. Ids
// become dense only where they leave fa::shard: the planner's top-K
// ids, encode_sharded, materialize and positions_by_id.
//
// Determinism contract (pinned by tests/shard/equivalence_test.cpp):
// for any query, scanning shards_overlapping() in ascending shard id
// yields responses byte-identical to a brute-force scan of the whole
// corpus, under any layout — the shards partition the point set, every
// query applies its exact containment filters per point, and the
// aggregates are order-independent sums or totally-ordered rankings.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "fault/status.hpp"
#include "synth/scenario.hpp"
#include "shard/layout.hpp"
#include "store/codec.hpp"

namespace fa::shard {

// Local cells per page. Large enough that page tables stay a sliver of
// the columns and a query row rarely splits; small enough that a
// paper-scale tick rewrites ~13 MB of pages instead of ~170 MB of whole
// shards. 64 and 128 measured the same apply time (DESIGN.md, "Pages and
// stable ids").
inline constexpr std::uint32_t kPageCells = 256;

// Owned in-memory column storage in local bin order: one shard's (a
// re-binned or compacted shard), or every shard's back to back (a fresh
// build, whose cell_start then holds each shard's prefix sums in turn).
struct ShardColumns {
  std::vector<std::uint32_t> ids;
  std::vector<double> xs, ys;
  std::vector<std::uint32_t> cell_start;
  std::vector<std::uint8_t> cls, provider, radio;
  std::vector<std::uint16_t> mcc, mnc;
  std::vector<std::uint32_t> cell_id;
  std::vector<std::int16_t> state;
  std::vector<std::int32_t> county;

  // fn(column) for every per-entry column (all but cell_start).
  template <class Fn>
  void for_each_column(Fn&& fn) {
    fn(ids), fn(xs), fn(ys), fn(cls), fn(provider), fn(radio);
    fn(mcc), fn(mnc), fn(cell_id), fn(state), fn(county);
  }
};

// The entries of up to kPageCells consecutive local cells. cell_start
// holds one offset per cell plus one, and the entries of the page's
// j-th cell are [cell_start[j], cell_start[j+1]) of the column spans —
// offsets index the spans directly, whether they view a whole shard's
// storage or the page's own. Entry k is stable id ids[k] at (xs[k],
// ys[k]) with hazard class cls[k], etc. — evaluation reads columns
// positionally and only ever *copies* ids into responses, so a corrupt
// id can mislabel an answer but never index out of bounds.
struct Page {
  // The spans every query reads come first, within two cache lines.
  std::span<const std::uint32_t> cell_start;
  std::span<const double> xs, ys;
  std::span<const std::uint8_t> cls, provider;
  std::span<const std::uint32_t> ids;
  std::span<const std::uint8_t> radio;
  std::span<const std::uint16_t> mcc, mnc;
  std::span<const std::uint32_t> cell_id;
  std::span<const std::int16_t> state;
  std::span<const std::int32_t> county;
  // Keeps the spans' storage alive: a ShardColumns, a rewritten page's
  // block, or the shared MappedFile of an opened container.
  std::shared_ptr<const void> payload;

  std::uint32_t begin() const { return cell_start.front(); }
  std::uint32_t end() const { return cell_start.back(); }
  std::size_t n() const { return end() - begin(); }
};

// Pages by value: a query reaches a page's spans in one hop from the
// table, and a rewrite copies a touched shard's table (a few hundred
// small views) rather than its columns.
using PageTable = std::vector<Page>;

// One shard: local-grid geometry plus its page table.
struct Shard {
  geo::BBox bounds;  // union of member tile boxes (layout extent)
  int cols = 0;
  int rows = 0;
  double inv_cw = 0.0;
  double inv_ch = 0.0;
  // Structurally or checksum-damaged at open: no pages, and the planner
  // answers queries that touch this shard degraded.
  bool quarantined = false;
  std::size_t points = 0;  // entries over all pages
  // Page p covers local cells [p * kPageCells, (p + 1) * kPageCells),
  // the last page fewer. Shared whole by a successor that leaves the
  // shard untouched.
  std::shared_ptr<const PageTable> pages;

  std::size_t n() const { return points; }
  std::size_t cells() const {
    return static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows);
  }
  std::size_t page_count() const { return pages ? pages->size() : 0; }
  const Page& page(std::size_t p) const { return (*pages)[p]; }

  // Clamped local binning — the same expressions index::GridIndex uses,
  // over the same bounds/dims, so local cell ranges cover exactly the
  // points a local GridIndex would visit.
  int col_of(double x) const {
    const int c = static_cast<int>((x - bounds.min_x) * inv_cw);
    return c < 0 ? 0 : (c >= cols ? cols - 1 : c);
  }
  int row_of(double y) const {
    const int r = static_cast<int>((y - bounds.min_y) * inv_ch);
    return r < 0 ? 0 : (r >= rows ? rows - 1 : r);
  }

  // fn(page, begin, end) per row-contiguous candidate span, mirroring
  // GridIndex::query_spans — a row span that crosses a page boundary
  // splits there, and [begin, end) indexes the page's column spans.
  // There is no bounds-intersect early-out: the planner already routed
  // this shard by exact clamped-tile arithmetic, and skipping here on a
  // floating-point bbox comparison could drop an edge-clamped point a
  // whole-corpus scan would count.
  template <class Fn>
  void query_spans(const geo::BBox& query, Fn&& fn) const {
    query_pages(query, [&](std::size_t p, std::uint32_t begin,
                           std::uint32_t end) { fn(page(p), begin, end); });
  }

  // query_spans, handing the visitor the page's index instead.
  template <class Fn>
  void query_pages(const geo::BBox& query, Fn&& fn) const {
    if (points == 0 || !query.valid()) return;
    const std::size_t c0 = static_cast<std::size_t>(col_of(query.min_x));
    const std::size_t c1 = static_cast<std::size_t>(col_of(query.max_x));
    const int r0 = row_of(query.min_y);
    const int r1 = row_of(query.max_y);
    for (int r = r0; r <= r1; ++r) {
      const std::size_t row = static_cast<std::size_t>(r) * cols;
      const std::size_t last = row + c1;
      for (std::size_t cell = row + c0; cell <= last;) {
        const std::size_t p = cell / kPageCells;
        const std::size_t first = p * kPageCells;
        const std::size_t stop =
            std::min<std::size_t>(last, first + kPageCells - 1);
        const std::span<const std::uint32_t> starts = page(p).cell_start;
        const std::uint32_t begin = starts[cell - first];
        const std::uint32_t end = starts[stop + 1 - first];
        if (begin < end) fn(p, begin, end);
        cell = stop + 1;
      }
    }
  }
};

// The live stable ids of a view that has tombstones: a bitmap over
// [0, end()) with a rank directory, copy-on-write in fixed chunks so a
// successor copies only the chunks its retires and adds touch.
class LiveIds {
 public:
  // Every id in [0, n) live.
  static LiveIds all(std::size_t n);

  std::uint64_t end() const { return end_; }  // next unused stable id
  std::uint64_t count() const { return count_; }
  bool contains(std::uint32_t id) const;
  // Live ids below `id` — a live id's dense id.
  std::uint32_t rank(std::uint32_t id) const;
  // The live id of rank `dense` (dense < count()).
  std::uint32_t select(std::uint32_t dense) const;
  // A successor: `retired` (live ids) cleared, then `added` fresh ids
  // taken from end().
  LiveIds edited(std::span<const std::uint32_t> retired,
                 std::size_t added) const;

 private:
  static constexpr unsigned kChunkShift = 16;
  static constexpr std::size_t kChunkWords =
      (std::size_t{1} << kChunkShift) / 64;
  struct Chunk {
    std::array<std::uint64_t, kChunkWords> words{};
    // Live bits in the earlier words of the chunk.
    std::array<std::uint16_t, kChunkWords> rank{};
    void reindex();
  };

  std::vector<std::shared_ptr<const Chunk>> chunks_;
  std::vector<std::uint64_t> before_;  // live ids in earlier chunks
  std::uint64_t end_ = 0;
  std::uint64_t count_ = 0;
};

struct Lineage;  // shard/apply.cpp: stable id -> page index, brand tally

class ShardedWorld {
 public:
  ShardedWorld() = default;

  // Builds the view for `config` without a core::World: the corpus
  // streams through core::Ingest into id-ordered columns, classified in
  // parallel with World::build's expressions, then partitioned by shard
  // and sorted by local cell within each shard, column by column. At
  // peak it holds the WHP surface, the county map, the columns, the
  // partition order and one column's copy.
  // Encodes byte-identical to from_world(World::build(config, options),
  // ...) and fails with World::build's Status.
  static fault::Result<ShardedWorld> build(
      const synth::ScenarioConfig& config,
      const core::World::BuildOptions& options, const LayoutOptions& layout);

  // Partitions a built world through the same column cut. The three-arg
  // form derives a balanced layout from the world's point distribution;
  // the fixed-layout form is the delta path's reference derivation (the
  // layout of a lineage never changes, only shard membership does).
  // FASNAP01 migration and the delta suites' oracle.
  static ShardedWorld from_world(const core::World& world,
                                 const core::ProviderRiskResult& risk,
                                 const LayoutOptions& options = {});
  static ShardedWorld from_world(const core::World& world,
                                 const core::ProviderRiskResult& risk,
                                 ShardLayout layout);

  const ShardLayout& layout() const { return layout_; }
  const std::vector<Shard>& shards() const { return shards_; }
  const Shard& shard(std::size_t s) const { return shards_[s]; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t quarantined_count() const { return quarantined_; }

  const geo::BBox& domain() const { return layout_.domain(); }
  std::uint64_t total_points() const { return meta_.transceivers; }
  const synth::ScenarioConfig& config() const { return meta_.config; }
  std::uint64_t ingest_dropped() const { return meta_.ingest_dropped; }
  std::uint64_t ingest_repaired() const { return meta_.ingest_repaired; }
  const store::MetaFields& meta() const { return meta_; }
  // Global index grid dims, carried so materialize() can rebuild the
  // monolithic GridIndex bit-for-bit (over domain(), the index domain).
  int global_cols() const { return gcols_; }
  int global_rows() const { return grows_; }

  const synth::WhpModel& whp() const { return *whp_; }
  const synth::CountyMap& counties() const { return *counties_; }
  const std::shared_ptr<const synth::WhpModel>& whp_ptr() const {
    return whp_;
  }
  const std::shared_ptr<const synth::CountyMap>& counties_ptr() const {
    return counties_;
  }
  const core::ProviderRiskResult& provider_risk() const { return risk_; }

  // Dense id of a live stable id: its rank among the live ids (the
  // identity for a view with no tombstones).
  std::uint32_t dense_id(std::uint32_t stable) const {
    return live_ ? live_->rank(stable) : stable;
  }
  // One past the largest stable id the view has handed out.
  std::uint64_t stable_end() const {
    return live_ ? live_->end() : meta_.transceivers;
  }
  std::uint64_t tombstones() const { return stable_end() - total_points(); }

  // Reassembles the monolithic core::World: scatter every shard's
  // columns back to dense-id order (validating that the live stable ids
  // are each held exactly once and every value is in domain — the open
  // path skipped per-record validation on purpose), rebuild the global
  // GridIndex, and cross-check the stored provider-risk aggregate. The
  // result encodes byte-identical to the world the view was built from.
  // Errors when any shard is quarantined or the columns are corrupt.
  fault::Result<core::World> materialize() const;

  // Every transceiver's position, indexed by dense id — what a live-feed
  // generator mirrors — scattered straight from the shard columns, with
  // no world materialized. Errors when a shard is quarantined or the id
  // columns do not hold each live id exactly once.
  fault::Result<std::vector<geo::LonLat>> positions_by_id() const;

 private:
  friend struct Codec;    // shard/codec.cpp
  friend struct Applier;  // shard/apply.cpp

  // Calls visit(dense_id, page, k) for every entry, checking along the
  // way that the id columns hold each live stable id exactly once; the
  // first failure (or visit's first error Status) ends the walk. Serial,
  // in shard and bin order.
  template <class Visit>
  fault::Status scatter_dense(Visit&& visit) const;

  store::MetaFields meta_;
  std::shared_ptr<const synth::WhpModel> whp_;
  std::shared_ptr<const synth::CountyMap> counties_;
  core::ProviderRiskResult risk_;
  ShardLayout layout_;
  int gcols_ = 0;
  int grows_ = 0;
  std::vector<Shard> shards_;
  std::size_t quarantined_ = 0;
  // Null at a root (no tombstones: stable ids are dense ids).
  std::shared_ptr<const LiveIds> live_;
  // Built by the first delta apply over a lineage root, patched by every
  // later one; null at a root.
  std::shared_ptr<const Lineage> lineage_;
};

// A shard with no pages yet: bounds, dims and the binning
// index::GridIndex derives for that grid.
Shard shard_grid(const geo::BBox& bounds, int cols, int rows);

// A shard paging `whole` — one shard's complete column spans in local
// bin order over a cols x rows grid on `bounds`, with cell_start the
// shard's cols*rows+1 prefix sums — with the binning index::GridIndex
// derives for that grid. Every page views `whole`'s spans and keeps
// `whole.payload` alive.
Shard page_shard(const Page& whole, const geo::BBox& bounds, int cols,
                 int rows);

// page_shard over one shard's owned columns (a re-binned or compacted
// shard).
Shard view_columns(std::shared_ptr<const ShardColumns> columns,
                   const geo::BBox& bounds, int cols, int rows);

}  // namespace fa::shard
