// Uniform grid index over points: the transceiver corpus is large
// (10^5..10^6 points) and queried by region, where binned points give
// cache-friendly scans and O(1) cell addressing.
//
// Visitors are templated (`Fn&&`) so the per-point callback inlines into
// the scan loop — no std::function indirection or allocation on the hot
// path. A std::function still binds to the template at call sites that
// genuinely need type erasure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/bbox.hpp"

namespace fa::store {
struct Access;  // snapshot codec (store/codec.cpp)
}

namespace fa::index {

class GridIndex {
 public:
  GridIndex() = default;
  // Builds over `points` (copied) covering `bounds`, with `cols` x `rows`
  // bins. Points outside `bounds` are clamped into the edge bins. Point
  // ids are the indices into the input vector.
  GridIndex(std::vector<geo::Vec2> points, geo::BBox bounds, int cols,
            int rows);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const geo::BBox& bounds() const { return bounds_; }

  // Invokes fn(point_id, point) for every point inside `query`.
  template <class Fn>
  void query(const geo::BBox& query, Fn&& fn) const {
    visit<true>(query, std::forward<Fn>(fn));
  }
  std::vector<std::uint32_t> query_ids(const geo::BBox& query) const;

  // Invokes fn for every point in bins that intersect `query`, without the
  // per-point containment test — callers that run an exact polygon test
  // afterwards use this to skip the redundant bbox check.
  template <class Fn>
  void query_candidates(const geo::BBox& query, Fn&& fn) const {
    visit<false>(query, std::forward<Fn>(fn));
  }

  // Invokes fn(begin, end) for each contiguous range [begin, end) of the
  // binned arrays covering one grid row's intersected cells (candidates:
  // no per-point containment test — cells in a row are adjacent in the
  // counting-sorted storage, so a row collapses to a single range).
  // Together with binned_ids()/binned_xs()/binned_ys() this hands whole
  // candidate spans to batch kernels such as
  // geo::PreparedMultiPolygon::contains_batch instead of point-at-a-time
  // callbacks. Entry order is identical to query_candidates.
  template <class Fn>
  void query_spans(const geo::BBox& query, Fn&& fn) const {
    if (points_.empty() || !query.valid() || !query.intersects(bounds_)) {
      return;
    }
    const int c0 = col_of(query.min_x);
    const int c1 = col_of(query.max_x);
    const int r0 = row_of(query.min_y);
    const int r1 = row_of(query.max_y);
    for (int r = r0; r <= r1; ++r) {
      const std::size_t row = static_cast<std::size_t>(r) * cols_;
      const std::uint32_t begin =
          cell_start_[row + static_cast<std::size_t>(c0)];
      const std::uint32_t end =
          cell_start_[row + static_cast<std::size_t>(c1) + 1];
      if (begin < end) fn(begin, end);
    }
  }

  // Structure-of-arrays views backing query_spans: binned entry k is
  // point id binned_ids()[k] at (binned_xs()[k], binned_ys()[k]).
  std::span<const std::uint32_t> binned_ids() const { return binned_; }
  std::span<const double> binned_xs() const { return binned_x_; }
  std::span<const double> binned_ys() const { return binned_y_; }

  // Count of points within `query` (exact).
  std::size_t count(const geo::BBox& query) const;

  // The k nearest points to `target` (Euclidean in index coordinates),
  // nearest first. Expands the bin search ring until k candidates are
  // confirmed; returns fewer than k only when the index holds fewer.
  std::vector<std::uint32_t> nearest(geo::Vec2 target, std::size_t k) const;

  geo::Vec2 point(std::uint32_t id) const { return points_[id]; }

 private:
  friend struct fa::store::Access;  // serializes the binned SoA verbatim

  int col_of(double x) const;
  int row_of(double y) const;

  template <bool Exact, class Fn>
  void visit(const geo::BBox& query, Fn&& fn) const {
    if (points_.empty() || !query.valid() || !query.intersects(bounds_)) {
      return;
    }
    const int c0 = col_of(query.min_x);
    const int c1 = col_of(query.max_x);
    const int r0 = row_of(query.min_y);
    const int r1 = row_of(query.max_y);
    for (int r = r0; r <= r1; ++r) {
      for (int c = c0; c <= c1; ++c) {
        const std::size_t cell = static_cast<std::size_t>(r) * cols_ + c;
        for (std::uint32_t k = cell_start_[cell]; k < cell_start_[cell + 1];
             ++k) {
          const std::uint32_t id = binned_[k];
          const geo::Vec2 p = points_[id];
          if constexpr (Exact) {
            if (!query.contains(p)) continue;
          }
          fn(id, p);
        }
      }
    }
  }

  std::vector<geo::Vec2> points_;       // original order; id == index
  std::vector<std::uint32_t> binned_;   // point ids sorted by bin
  std::vector<double> binned_x_;        // coordinates in binned order,
  std::vector<double> binned_y_;        //   SoA for the batch kernels
  std::vector<std::uint32_t> cell_start_;  // size cols*rows+1, into binned_
  geo::BBox bounds_;
  int cols_ = 0;
  int rows_ = 0;
  double inv_cw_ = 0.0;
  double inv_ch_ = 0.0;
};

}  // namespace fa::index
