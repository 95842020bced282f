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
// The spans are views. An in-memory build (from_world, delta apply)
// points them into owned column vectors; an opened FASHRD01 container
// points them straight into the mmap, which is what makes shard open
// O(sections) instead of O(bytes). Every shard keeps its storage alive
// through `payload`, so a successor view after a delta apply can mix
// rewritten shards (fresh vectors) with untouched ones (the base's
// payload, by refcount) without copying either.
//
// Determinism contract (pinned by tests/shard/equivalence_test.cpp):
// for any query, scattering over shards_overlapping() and merging in
// ascending shard id yields responses byte-identical to the monolithic
// path — the shards partition the point set, every query applies its
// exact containment filters per point, and the merged aggregates are
// order-independent sums or totally-ordered rankings.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "fault/status.hpp"
#include "shard/layout.hpp"
#include "store/codec.hpp"

namespace fa::shard {

// Owned in-memory column storage for one shard (the from-world builder
// and the delta rebuilder produce these; an opened container does not).
struct ShardColumns {
  std::vector<std::uint32_t> ids;
  std::vector<double> xs, ys;
  std::vector<std::uint32_t> cell_start;
  std::vector<std::uint8_t> cls, provider, radio;
  std::vector<std::uint16_t> mcc, mnc;
  std::vector<std::uint32_t> cell_id;
  std::vector<std::int16_t> state;
  std::vector<std::int32_t> county;
};

// One shard: local-grid geometry plus column views in local bin order.
// Entry k is transceiver ids[k] at (xs[k], ys[k]) with hazard class
// cls[k], etc. — evaluation reads columns positionally and only ever
// *copies* ids into responses, so a corrupt id can mislabel an answer
// but never index out of bounds.
struct Shard {
  geo::BBox bounds;  // union of member tile boxes (layout extent)
  int cols = 0;
  int rows = 0;
  double inv_cw = 0.0;
  double inv_ch = 0.0;
  // Structurally or checksum-damaged at open: columns are empty and the
  // planner answers queries that touch this shard degraded.
  bool quarantined = false;

  std::span<const std::uint32_t> ids;
  std::span<const double> xs, ys;
  std::span<const std::uint32_t> cell_start;  // cols*rows+1 prefix sums
  std::span<const std::uint8_t> cls, provider, radio;
  std::span<const std::uint16_t> mcc, mnc;
  std::span<const std::uint32_t> cell_id;
  std::span<const std::int16_t> state;
  std::span<const std::int32_t> county;

  // Keeps the spans' storage alive: a ShardColumns for in-memory
  // shards, the shared MappedFile for opened containers. A shard whose
  // only change in a delta apply was the id remap keeps its base's
  // `payload` and views its rewritten ids through `ids_payload` (null
  // when `ids` lives in `payload` too).
  std::shared_ptr<const void> payload;
  std::shared_ptr<const void> ids_payload;

  std::size_t n() const { return ids.size(); }

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

  // fn(begin, end) per row-contiguous candidate span, mirroring
  // GridIndex::query_spans — except with no bounds-intersect early-out:
  // the planner already routed this shard by exact clamped-tile
  // arithmetic, and skipping here on a floating-point bbox comparison
  // could drop an edge-clamped point the monolithic path would count.
  template <class Fn>
  void query_spans(const geo::BBox& query, Fn&& fn) const {
    if (ids.empty() || !query.valid()) return;
    const int c0 = col_of(query.min_x);
    const int c1 = col_of(query.max_x);
    const int r0 = row_of(query.min_y);
    const int r1 = row_of(query.max_y);
    for (int r = r0; r <= r1; ++r) {
      const std::size_t row = static_cast<std::size_t>(r) * cols;
      const std::uint32_t begin =
          cell_start[row + static_cast<std::size_t>(c0)];
      const std::uint32_t end =
          cell_start[row + static_cast<std::size_t>(c1) + 1];
      if (begin < end) fn(begin, end);
    }
  }
};

class ShardedWorld {
 public:
  ShardedWorld() = default;

  // Partitions a built world. The three-arg form derives a balanced
  // layout from the world's point distribution; the fixed-layout form
  // is the delta path's reference derivation (the layout of a lineage
  // never changes, only shard membership does).
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
  // monolithic GridIndex bit-for-bit.
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

  // Reassembles the monolithic core::World: scatter every shard's
  // columns back to id order (validating that shard ids form a
  // permutation and every value is in domain — the open path skipped
  // per-record validation on purpose), rebuild the global GridIndex,
  // and cross-check the stored provider-risk aggregate. The result
  // encodes byte-identical to the world the view was built from.
  // Errors when any shard is quarantined or the columns are corrupt.
  fault::Result<core::World> materialize() const;

  // Every transceiver's position, indexed by id — what a live-feed
  // generator mirrors — scattered straight from the shard columns, with
  // no world materialized. Errors when a shard is quarantined or the id
  // columns are not a permutation of [0, total_points()).
  fault::Result<std::vector<geo::LonLat>> positions_by_id() const;

 private:
  friend struct Codec;    // shard/codec.cpp
  friend struct Applier;  // shard/apply.cpp

  store::MetaFields meta_;
  std::shared_ptr<const synth::WhpModel> whp_;
  std::shared_ptr<const synth::CountyMap> counties_;
  core::ProviderRiskResult risk_;
  ShardLayout layout_;
  int gcols_ = 0;
  int grows_ = 0;
  std::vector<Shard> shards_;
  std::size_t quarantined_ = 0;
};

// A shard viewing `columns` — one shard's complete columns in local bin
// order over a cols x rows grid on `bounds` — with the binning
// index::GridIndex derives for that grid. from_world and the delta
// applier both finish through here, so their shards bin identically.
Shard view_columns(std::shared_ptr<const ShardColumns> columns,
                   const geo::BBox& bounds, int cols, int rows);

}  // namespace fa::shard
