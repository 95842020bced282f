#include "shard/layout.hpp"

#include <algorithm>
#include <cmath>

namespace fa::shard {

namespace {

// Same guard GridIndex uses: a degenerate domain still bins everything
// into the edge tiles instead of dividing by zero.
double inv_extent(double extent, int tiles) {
  return static_cast<double>(tiles) / std::max(extent, 1e-12);
}

int clamp_tile(int t, int n) { return std::clamp(t, 0, n - 1); }

}  // namespace

int ShardLayout::tile_col(double x) const {
  return clamp_tile(static_cast<int>((x - domain_.min_x) * inv_tw_), tiles_x_);
}

int ShardLayout::tile_row(double y) const {
  return clamp_tile(static_cast<int>((y - domain_.min_y) * inv_th_), tiles_y_);
}

geo::BBox ShardLayout::tile_box(std::uint64_t tile) const {
  const std::uint64_t tc = tile % static_cast<std::uint64_t>(tiles_x_);
  const std::uint64_t tr = tile / static_cast<std::uint64_t>(tiles_x_);
  const double tw = domain_.width() / tiles_x_;
  const double th = domain_.height() / tiles_y_;
  return {domain_.min_x + static_cast<double>(tc) * tw,
          domain_.min_y + static_cast<double>(tr) * th,
          domain_.min_x + static_cast<double>(tc + 1) * tw,
          domain_.min_y + static_cast<double>(tr + 1) * th};
}

ShardLayout ShardLayout::build(const geo::BBox& domain,
                               std::span<const double> xs,
                               std::span<const double> ys,
                               const LayoutOptions& options) {
  ShardLayout l;
  l.domain_ = domain;
  l.tiles_x_ = std::max(1, options.tiles_x);
  l.tiles_y_ = std::max(1, options.tiles_y);
  l.inv_tw_ = inv_extent(domain.width(), l.tiles_x_);
  l.inv_th_ = inv_extent(domain.height(), l.tiles_y_);

  const std::uint64_t tiles =
      static_cast<std::uint64_t>(l.tiles_x_) * l.tiles_y_;
  std::vector<std::uint64_t> tile_count(tiles, 0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ++tile_count[static_cast<std::size_t>(l.tile_row(ys[i])) * l.tiles_x_ +
                 static_cast<std::size_t>(l.tile_col(xs[i]))];
  }

  // Greedy row-major prefix cut: exactly `goal` contiguous runs, each at
  // least one tile, each aiming for its share of the points still
  // unassigned when it starts. The adaptive target means a cut that ran
  // long (a dense metro tile is indivisible) shrinks the targets of the
  // shards after it instead of starving the last one.
  const std::uint64_t goal = static_cast<std::uint64_t>(
      std::clamp<std::uint64_t>(options.target_shards, 1, tiles));
  const std::uint64_t total = xs.size();
  l.tile_shard_.assign(tiles, 0);
  l.shards_.reserve(goal);
  std::uint64_t assigned = 0;
  std::uint64_t tile = 0;
  for (std::uint64_t s = 0; s < goal; ++s) {
    ShardExtent ext;
    ext.first_tile = tile;
    const std::uint64_t shards_left = goal - s;
    const std::uint64_t tiles_left = tiles - tile;
    const std::uint64_t target =
        (total - assigned + shards_left - 1) / shards_left;
    std::uint64_t count = 0;
    std::uint64_t taken = 0;
    // Leave one tile for each shard still to come; the last shard takes
    // the whole remainder.
    const std::uint64_t max_tiles = tiles_left - (shards_left - 1);
    while (taken < max_tiles &&
           (taken == 0 || count < target || shards_left == 1)) {
      count += tile_count[tile];
      l.tile_shard_[tile] = static_cast<std::uint32_t>(s);
      ++tile;
      ++taken;
      if (shards_left > 1 && count >= target) break;
    }
    ext.tile_count = taken;
    ext.n_points = count;
    ext.bounds = l.tile_box(ext.first_tile);
    for (std::uint64_t t = 1; t < taken; ++t) {
      ext.bounds.expand(l.tile_box(ext.first_tile + t));
    }
    assigned += count;
    l.shards_.push_back(ext);
  }
  return l;
}

std::vector<std::uint32_t> ShardLayout::shards_overlapping(
    const geo::BBox& box) const {
  std::vector<std::uint32_t> out;
  if (shards_.empty() || !box.valid()) return out;
  const int c0 = tile_col(box.min_x);
  const int c1 = tile_col(box.max_x);
  const int r0 = tile_row(box.min_y);
  const int r1 = tile_row(box.max_y);
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      const std::uint32_t s =
          tile_shard_[static_cast<std::size_t>(r) * tiles_x_ +
                      static_cast<std::size_t>(c)];
      if (out.empty() || out.back() != s) out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ShardLayout::assemble(const geo::BBox& domain, int tiles_x, int tiles_y,
                           std::vector<std::uint32_t> tile_shard,
                           std::vector<ShardExtent> extents,
                           ShardLayout& out) {
  if (tiles_x <= 0 || tiles_y <= 0 || extents.empty()) return false;
  const std::uint64_t tiles =
      static_cast<std::uint64_t>(tiles_x) * static_cast<std::uint64_t>(tiles_y);
  if (tile_shard.size() != tiles) return false;
  if (extents.size() > tiles) return false;
  if (!domain.valid()) return false;
  // Tile ranges must partition [0, tiles) contiguously in shard order,
  // and the table must agree — this is what bounds every routed lookup.
  std::uint64_t cursor = 0;
  for (std::size_t s = 0; s < extents.size(); ++s) {
    const ShardExtent& e = extents[s];
    if (e.first_tile != cursor || e.tile_count == 0) return false;
    if (e.tile_count > tiles - cursor) return false;
    for (std::uint64_t t = 0; t < e.tile_count; ++t) {
      if (tile_shard[cursor + t] != s) return false;
    }
    if (!e.bounds.valid()) return false;
    cursor += e.tile_count;
  }
  if (cursor != tiles) return false;
  out.domain_ = domain;
  out.tiles_x_ = tiles_x;
  out.tiles_y_ = tiles_y;
  out.inv_tw_ = inv_extent(domain.width(), tiles_x);
  out.inv_th_ = inv_extent(domain.height(), tiles_y);
  out.tile_shard_ = std::move(tile_shard);
  out.shards_ = std::move(extents);
  return true;
}

void local_grid_dims(std::uint64_t n_points, const geo::BBox& bounds,
                     int& cols, int& rows) {
  if (n_points == 0) {
    cols = 1;
    rows = 1;
    return;
  }
  // ~6 points per cell: fine enough that a shard-local scan touches a
  // small multiple of its hits (the global 512x256 grid carries ~41
  // points per cell at continental scale), coarse enough that
  // cell_start stays a sliver of the column payload.
  const double target_cells = static_cast<double>(n_points) / 6.0;
  const double aspect =
      std::max(bounds.width(), 1e-12) / std::max(bounds.height(), 1e-12);
  const double c = std::sqrt(target_cells * aspect);
  cols = std::clamp(static_cast<int>(std::lround(c)), 1, 4096);
  rows = std::clamp(
      static_cast<int>(std::ceil(target_cells / static_cast<double>(cols))),
      1, 4096);
}

}  // namespace fa::shard
