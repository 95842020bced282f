#include "index/grid_index.hpp"

#include <algorithm>
#include <cstdlib>
#include <cmath>

namespace fa::index {

GridIndex::GridIndex(std::vector<geo::Vec2> points, geo::BBox bounds,
                     int cols, int rows)
    : points_(std::move(points)),
      bounds_(bounds),
      cols_(std::max(1, cols)),
      rows_(std::max(1, rows)) {
  const double w = std::max(bounds_.width(), 1e-12);
  const double h = std::max(bounds_.height(), 1e-12);
  inv_cw_ = static_cast<double>(cols_) / w;
  inv_ch_ = static_cast<double>(rows_) / h;

  const std::size_t num_cells =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  // Counting sort into bins.
  std::vector<std::uint32_t> counts(num_cells, 0);
  const auto bin_of = [this](geo::Vec2 p) {
    return static_cast<std::size_t>(row_of(p.y)) * cols_ +
           static_cast<std::size_t>(col_of(p.x));
  };
  for (const geo::Vec2& p : points_) ++counts[bin_of(p)];

  cell_start_.assign(num_cells + 1, 0);
  for (std::size_t c = 0; c < num_cells; ++c) {
    cell_start_[c + 1] = cell_start_[c] + counts[c];
  }
  binned_.resize(points_.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (std::uint32_t id = 0; id < points_.size(); ++id) {
    binned_[cursor[bin_of(points_[id])]++] = id;
  }
  binned_x_.resize(points_.size());
  binned_y_.resize(points_.size());
  for (std::size_t k = 0; k < binned_.size(); ++k) {
    const geo::Vec2 p = points_[binned_[k]];
    binned_x_[k] = p.x;
    binned_y_[k] = p.y;
  }
}

int GridIndex::col_of(double x) const {
  const int c = static_cast<int>((x - bounds_.min_x) * inv_cw_);
  return std::clamp(c, 0, cols_ - 1);
}

int GridIndex::row_of(double y) const {
  const int r = static_cast<int>((y - bounds_.min_y) * inv_ch_);
  return std::clamp(r, 0, rows_ - 1);
}

std::vector<std::uint32_t> GridIndex::query_ids(const geo::BBox& q) const {
  std::size_t candidates = 0;
  query_spans(q, [&candidates](std::uint32_t b, std::uint32_t e) {
    candidates += e - b;
  });
  std::vector<std::uint32_t> out;
  out.reserve(candidates);
  query(q, [&out](std::uint32_t id, geo::Vec2) { out.push_back(id); });
  return out;
}

std::size_t GridIndex::count(const geo::BBox& q) const {
  std::size_t n = 0;
  query(q, [&n](std::uint32_t, geo::Vec2) { ++n; });
  return n;
}

std::vector<std::uint32_t> GridIndex::nearest(geo::Vec2 target,
                                              std::size_t k) const {
  std::vector<std::uint32_t> out;
  if (points_.empty() || k == 0) return out;
  k = std::min(k, points_.size());

  const int tc = col_of(target.x);
  const int tr = row_of(target.y);
  // candidates: (distance2, id), grown ring by ring until the kth-best
  // confirmed distance is inside the searched ring radius.
  std::vector<std::pair<double, std::uint32_t>> candidates;
  const double cell_w = bounds_.width() / cols_;
  const double cell_h = bounds_.height() / rows_;
  const int max_ring = std::max(cols_, rows_);
  for (int ring = 0; ring <= max_ring; ++ring) {
    // Visit the cells on this ring only.
    for (int r = tr - ring; r <= tr + ring; ++r) {
      if (r < 0 || r >= rows_) continue;
      for (int c = tc - ring; c <= tc + ring; ++c) {
        if (c < 0 || c >= cols_) continue;
        if (std::max(std::abs(c - tc), std::abs(r - tr)) != ring) continue;
        const std::size_t cell =
            static_cast<std::size_t>(r) * cols_ + c;
        for (std::uint32_t i = cell_start_[cell]; i < cell_start_[cell + 1];
             ++i) {
          const std::uint32_t id = binned_[i];
          candidates.push_back({geo::distance2(points_[id], target), id});
        }
      }
    }
    if (candidates.size() >= k) {
      std::nth_element(candidates.begin(),
                       candidates.begin() + static_cast<std::ptrdiff_t>(k - 1),
                       candidates.end());
      // Confirmed when the kth distance fits inside the searched ring.
      const double ring_reach =
          static_cast<double>(ring) * std::min(cell_w, cell_h);
      if (candidates[k - 1].first <= ring_reach * ring_reach ||
          ring == max_ring) {
        break;
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  out.reserve(k);
  for (std::size_t i = 0; i < k && i < candidates.size(); ++i) {
    out.push_back(candidates[i].second);
  }
  return out;
}

}  // namespace fa::index
