// Shard planner: the evaluate() bodies of the four interactive query
// shapes (declared in snapshot.hpp), over a snapshot's geo-sharded view
// (fa::shard), with one routing contract per family:
//   * point queries touch the global rasters only; a neighborhood scan
//     routes through layout().shards_overlapping(disc bbox) — exactly
//     one shard unless the disc straddles a tile boundary;
//   * bbox and top-K queries scan every overlapping shard in ascending
//     shard id on the calling thread: a bbox tallies straight into its
//     response, a top-K into a heap of its k riskiest sites (a site the
//     disc filter proves inside, of a lower class than the heap's worst,
//     is counted without a haversine). No query enters the fa::exec
//     pool, so none waits behind a feed apply or a build region
//     holding it;
//   * provider exposure reads the view's provider-risk aggregate, O(1).
//
// Determinism contract (pinned by tests/shard/equivalence_test.cpp
// against a brute-force reference evaluator, and by the cache and
// thread-count equivalence suites): responses are the same bytes at any
// thread count and under any layout. The shards partition the point
// set, every per-point filter (bbox containment, haversine radius) is
// the same expression over the same doubles, the tallies are
// order-independent integer sums, and the top-K comparator is a strict
// total order (txr id tiebreak), so scan order cannot leak into any
// response byte.
//
// Quarantined shards are skipped and counted (shard.degraded_serves):
// a degraded container serves the surviving geography instead of
// failing the query — the responses are then *not* byte-identical to
// an undamaged world, by design.
#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>

#include "geo/bbox.hpp"
#include "geo/geodesy.hpp"
#include "geo/lonlat.hpp"
#include "serve/types.hpp"

namespace fa::serve {

namespace detail {

// Lon/lat box enclosing the great-circle disc (center, radius_m); the
// exact haversine test runs on the candidates it yields. cos(lat)
// shrinks toward the poles, so widen longitude by the worst latitude in
// the box. The reference evaluator in tests/ scans the same candidate
// box — the byte-identity contract starts here.
inline geo::BBox disc_bbox(geo::LonLat center, double radius_m) {
  const double dlat = radius_m / geo::meters_per_deg_lat();
  const double worst_lat =
      std::min(89.0, std::max(std::abs(center.lat - dlat),
                              std::abs(center.lat + dlat)));
  const double dlon = radius_m / geo::meters_per_deg_lon(worst_lat);
  return {center.lon - dlon, center.lat - dlat, center.lon + dlon,
          center.lat + dlat};
}

// Exact disc membership with a trig-free fast path over the shard SoA
// columns. The haversine distance is
//
//   d = 2R * asin(sqrt(min(1, h))),
//   h = sin^2(dphi/2) + cos(phi_c) cos(phi_p) sin^2(dlam/2),
//
// and asin/sqrt are monotone, so `d <= r` is exactly `h <= sin^2(r/2R)`.
// Over the disc's bounding box the cos product is bracketed by
// [cos_lo^2, cos_hi^2], and t^2 (1 - t^2/3) <= sin^2(t) <= t^2 brackets
// both sine terms, so about ten flops yield provable lower and upper
// bounds on h. Candidates whose bounds land clear of the threshold —
// everything but a thin annulus around the disc edge — are classified
// without evaluating a transcendental; the annulus falls through to the
// exact haversine_m call, so every accept/reject decision is
// bit-identical to a plain `haversine_m(...) > r` test (the equivalence
// tests pin this against the reference evaluator). The 1e-9 radius
// guards on the two thresholds dwarf floating-point noise in the
// closed-form bounds (~1e-14 relative), keeping both bounds
// conservative.
class DiscFilter {
 public:
  DiscFilter(geo::LonLat center, double radius_m, const geo::BBox& box)
      : lon_(center.lon), lat_(center.lat) {
    const double half = radius_m / (2.0 * geo::kEarthRadiusM);
    // Past a quarter turn sin is no longer monotone in the half-angle;
    // no real neighborhood is 20,000 km, but stay exact if one is.
    exact_only_ = !(half * (1.0 + 1e-9) < std::numbers::pi / 2.0);
    const double sin_in = std::sin(half * (1.0 - 1e-9));
    const double sin_out = std::sin(half * (1.0 + 1e-9));
    h_in_ = sin_in * sin_in;
    h_out_ = sin_out * sin_out;
    // cos(lat) over the box's latitude band: even and decreasing in
    // |lat|, so the band max is at the latitude nearest the equator
    // (1 when the band crosses it) and the min at the farthest.
    const double lo = std::max(box.min_y, -90.0) * geo::kDegToRad;
    const double hi = std::min(box.max_y, 90.0) * geo::kDegToRad;
    const double far_lat = std::max(std::abs(lo), std::abs(hi));
    const double near_lat =
        (lo <= 0.0 && hi >= 0.0) ? 0.0 : std::min(std::abs(lo), std::abs(hi));
    const double cos_hi = std::cos(near_lat);
    const double cos_lo = std::max(0.0, std::cos(far_lat));
    cos2_hi_ = cos_hi * cos_hi;
    cos2_lo_ = cos_lo * cos_lo;
  }

  // -1: provably outside the disc. +1: provably inside. 0: within the
  // boundary annulus — the caller must run the exact haversine test.
  int classify(double plon, double plat) const {
    if (exact_only_) return 0;
    const double t1 = (plat - lat_) * (0.5 * geo::kDegToRad);
    const double t2 = (plon - lon_) * (0.5 * geo::kDegToRad);
    const double a1 = t1 * t1;
    const double a2 = t2 * t2;
    if (a1 + cos2_hi_ * a2 <= h_in_) return 1;
    // max(0, .) keeps the cubic lower bound valid out to a half turn.
    const double low = a1 * std::max(0.0, 1.0 - a1 * (1.0 / 3.0)) +
                       cos2_lo_ * a2 * std::max(0.0, 1.0 - a2 * (1.0 / 3.0));
    if (low > h_out_) return -1;
    return 0;
  }

 private:
  double lon_;
  double lat_;
  double h_in_;
  double h_out_;
  double cos2_hi_;
  double cos2_lo_;
  bool exact_only_;
};

}  // namespace detail

}  // namespace fa::serve
