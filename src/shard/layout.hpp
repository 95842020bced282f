// Geographic shard layout: a fixed lon/lat tile grid over the world's
// index domain, with a small balancing pass that groups contiguous
// row-major tile runs into shards of roughly equal transceiver count.
//
// The layout is the routing contract shared by the writer, the opened
// container, and the query planner:
//   * shard_of(p) uses the same clamped-floor arithmetic as
//     index::GridIndex, so every point the global index would bin —
//     including positions outside the domain, which clamp to edge
//     tiles — routes to exactly one shard, deterministically;
//   * shards_overlapping(box) clamps the box corners through the same
//     floors, so any point the box contains routes to a listed shard
//     (monotone clamped floors: box ∋ p ⇒ clamped tile range ∋ p's
//     clamped tile), and results merge in ascending shard id;
//   * a shard's bounds is the union of its member tile boxes, and every
//     member point lies inside it whenever the point is in-domain —
//     what makes the per-shard early-out (box misses bounds ⇒ no
//     member hits) sound.
//
// The layout is fixed for the life of a sharded lineage: delta applies
// rebuild member shards but never re-tile or re-balance, which is what
// keeps "apply then encode" byte-identical to "rebuild from the new
// world over the same layout".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/bbox.hpp"
#include "geo/vec2.hpp"

namespace fa::shard {

struct LayoutOptions {
  // Tile grid resolution. 32x16 over CONUS gives ~170 km tiles: fine
  // enough that the balancer can split the coastal population ridges,
  // coarse enough that the tile table stays a few KiB.
  int tiles_x = 32;
  int tiles_y = 16;
  // Shards to balance toward (exact when the grid has at least this
  // many tiles). Each shard is one task of the per-shard batch regions
  // (build, open, delta apply), and one quarantine unit: a damaged
  // shard costs about a sixteenth of the corpus, not all of it.
  int target_shards = 16;
};

// One shard's footprint in the layout (geometry only; the per-shard
// data columns live in shard::Shard).
struct ShardExtent {
  geo::BBox bounds;             // union of member tile boxes
  std::uint64_t first_tile = 0;  // contiguous row-major tile range
  std::uint64_t tile_count = 0;
  std::uint64_t n_points = 0;   // at layout build time
};

class ShardLayout {
 public:
  ShardLayout() = default;

  // Partitions `domain` (the global index bounds) into the option's
  // tile grid, counts the points (xs[i], ys[i]) per tile with the
  // clamped binning above,
  // and cuts the row-major tile sequence into contiguous runs whose
  // point counts track the adaptive target
  //   remaining_points / remaining_shards
  // (re-derived after every cut, so one dense run cannot starve the
  // rest). Deterministic: same domain + points + options, same layout.
  static ShardLayout build(const geo::BBox& domain, std::span<const double> xs,
                           std::span<const double> ys,
                           const LayoutOptions& options = {});

  bool empty() const { return shards_.empty(); }
  const geo::BBox& domain() const { return domain_; }
  int tiles_x() const { return tiles_x_; }
  int tiles_y() const { return tiles_y_; }
  std::size_t shard_count() const { return shards_.size(); }
  const ShardExtent& extent(std::size_t s) const { return shards_[s]; }
  const std::vector<ShardExtent>& extents() const { return shards_; }
  // Row-major tile -> owning shard id.
  const std::vector<std::uint32_t>& tile_table() const { return tile_shard_; }

  // Clamped tile arithmetic (mirrors index::GridIndex::col_of/row_of).
  int tile_col(double x) const;
  int tile_row(double y) const;
  std::uint32_t shard_of(geo::Vec2 p) const {
    return tile_shard_[static_cast<std::size_t>(tile_row(p.y)) * tiles_x_ +
                       static_cast<std::size_t>(tile_col(p.x))];
  }

  // Ascending, deduplicated shard ids whose member tiles fall in the
  // clamped tile range of `box`. Empty for an invalid box. Any point
  // `box` contains routes to a listed shard.
  std::vector<std::uint32_t> shards_overlapping(const geo::BBox& box) const;

  // Lon/lat box of one tile (row-major index).
  geo::BBox tile_box(std::uint64_t tile) const;

  // Rebuilds the derived fields from serialized parts (shard codec).
  // Validates structural claims: positive grid dims, tile ranges that
  // partition [0, tiles) in ascending shard order, and a tile table
  // that agrees with the ranges. Returns false on any violation.
  static bool assemble(const geo::BBox& domain, int tiles_x, int tiles_y,
                       std::vector<std::uint32_t> tile_shard,
                       std::vector<ShardExtent> extents, ShardLayout& out);

 private:
  geo::BBox domain_;
  int tiles_x_ = 0;
  int tiles_y_ = 0;
  double inv_tw_ = 0.0;
  double inv_th_ = 0.0;
  std::vector<std::uint32_t> tile_shard_;  // row-major, size tiles_x*tiles_y
  std::vector<ShardExtent> shards_;
};

// Deterministic local grid sizing for one shard: ~6 points per cell,
// aspect ratio from the shard bounds, dims clamped to [1, 4096]. Both
// the from-world builder and the delta rebuilder derive dims through
// this one function, so a shard's grid never depends on how its current
// membership came to be.
void local_grid_dims(std::uint64_t n_points, const geo::BBox& bounds,
                     int& cols, int& rows);

}  // namespace fa::shard
