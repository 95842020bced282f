#include "serve/planner.hpp"

#include <cstdint>
#include <vector>

#include "exec/exec.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/snapshot.hpp"
#include "synth/hazard.hpp"

namespace fa::serve {

namespace {

// One exec task per shard: fan-outs are coarse (a shard is millions of
// points at continental scale), and min_parallel keeps the single-shard
// common case on the calling thread instead of waking the pool.
constexpr exec::ExecOptions kFanOptions{.grain = 1, .min_parallel = 2};

// Scatters `fn(shard_id, slot)` across the overlapping shard set and
// returns true when any overlapping shard was quarantined (the caller
// answered degraded). Slots are per-shard, so the parallel phase writes
// disjoint memory; the caller merges them in ascending shard id.
template <class Fn>
bool scatter(const shard::ShardedWorld& sw,
             const std::vector<std::uint32_t>& touched, Fn&& fn) {
  exec::parallel_for(
      touched.size(),
      [&](std::size_t i) {
        const shard::Shard& sh = sw.shard(touched[i]);
        if (!sh.quarantined) fn(sh, i);
      },
      kFanOptions);
  bool degraded = false;
  for (const std::uint32_t s : touched) {
    if (sw.shard(s).quarantined) degraded = true;
  }
  if (degraded) obs::count(obs::metrics::kShardDegradedServes);
  return degraded;
}

}  // namespace

PointRiskResponse evaluate(const Snapshot& snap, const PointRiskQuery& q) {
  const shard::ShardedWorld& sw = snap.sharded();
  const synth::WhpModel& whp = sw.whp();
  PointRiskResponse r;
  r.epoch = snap.epoch();
  r.whp = whp.class_at(q.point);
  r.at_risk = synth::whp_at_risk(r.whp);
  r.urban = whp.is_urban(q.point);
  r.roadside = whp.is_road(q.point);
  r.state = whp.state_at(q.point);
  r.county = sw.counties().county_of(q.point);
  if (q.neighborhood_m > 0.0) {
    const geo::BBox box = detail::disc_bbox(q.point, q.neighborhood_m);
    const std::vector<std::uint32_t> touched =
        sw.layout().shards_overlapping(box);
    obs::count(obs::metrics::kShardPointRoutes, touched.size());
    const detail::DiscFilter disc(q.point, q.neighborhood_m, box);
    bool degraded = false;
    // Ascending shard order; the tallies are order-independent sums, so
    // the order is a readability convention, not a correctness need.
    for (const std::uint32_t s : touched) {
      const shard::Shard& sh = sw.shard(s);
      if (sh.quarantined) {
        degraded = true;
        continue;
      }
      sh.query_spans(box, [&](const shard::Page& pg, std::uint32_t b,
                              std::uint32_t e) {
        for (std::uint32_t k = b; k < e; ++k) {
          const geo::Vec2 p{pg.xs[k], pg.ys[k]};
          if (!box.contains(p)) continue;
          const int side = disc.classify(p.x, p.y);
          if (side < 0) continue;
          if (side == 0 &&
              geo::haversine_m(q.point, geo::LonLat::from_vec(p)) >
                  q.neighborhood_m) {
            continue;
          }
          ++r.nearby_txr;
          if (synth::whp_at_risk(static_cast<synth::WhpClass>(pg.cls[k]))) {
            ++r.nearby_at_risk;
          }
        }
      });
    }
    if (degraded) obs::count(obs::metrics::kShardDegradedServes);
  }
  return r;
}

BBoxAggregateResponse evaluate(const Snapshot& snap,
                               const BBoxAggregateQuery& q) {
  const shard::ShardedWorld& sw = snap.sharded();
  BBoxAggregateResponse r;
  r.epoch = snap.epoch();
  const std::vector<std::uint32_t> touched =
      sw.layout().shards_overlapping(q.bbox);
  obs::count(obs::metrics::kShardFanouts);
  obs::count(obs::metrics::kShardFanoutShards, touched.size());
  std::vector<BBoxAggregateResponse> partial(touched.size());
  scatter(sw, touched, [&](const shard::Shard& sh, std::size_t i) {
    BBoxAggregateResponse& p = partial[i];
    sh.query_spans(q.bbox, [&](const shard::Page& pg, std::uint32_t b,
                               std::uint32_t e) {
      for (std::uint32_t k = b; k < e; ++k) {
        if (!q.bbox.contains({pg.xs[k], pg.ys[k]})) continue;
        const auto c = static_cast<synth::WhpClass>(pg.cls[k]);
        ++p.transceivers;
        ++p.by_class[static_cast<std::size_t>(c)];
        if (synth::whp_at_risk(c)) ++p.at_risk;
        ++p.by_provider[pg.provider[k]];
      }
    });
  });
  // Gather in ascending shard id (touched is ascending by contract).
  for (const BBoxAggregateResponse& p : partial) {
    r.transceivers += p.transceivers;
    r.at_risk += p.at_risk;
    for (std::size_t c = 0; c < r.by_class.size(); ++c) {
      r.by_class[c] += p.by_class[c];
    }
    for (std::size_t v = 0; v < r.by_provider.size(); ++v) {
      r.by_provider[v] += p.by_provider[v];
    }
  }
  return r;
}

ProviderExposureResponse evaluate(const Snapshot& snap,
                                  const ProviderExposureQuery& q) {
  const core::ProviderRiskRow& row =
      snap.provider_risk().rows[static_cast<std::size_t>(q.provider)];
  ProviderExposureResponse r;
  r.epoch = snap.epoch();
  r.provider = q.provider;
  r.fleet = row.fleet;
  r.moderate = row.moderate;
  r.high = row.high;
  r.very_high = row.very_high;
  return r;
}

TopKSitesResponse evaluate(const Snapshot& snap, const TopKSitesQuery& q) {
  const shard::ShardedWorld& sw = snap.sharded();
  TopKSitesResponse r;
  r.epoch = snap.epoch();
  const geo::BBox box = detail::disc_bbox(q.center, q.radius_m);
  const std::vector<std::uint32_t> touched =
      sw.layout().shards_overlapping(box);
  obs::count(obs::metrics::kShardFanouts);
  obs::count(obs::metrics::kShardFanoutShards, touched.size());
  const detail::DiscFilter disc(q.center, q.radius_m, box);
  std::vector<std::vector<RankedSite>> partial(touched.size());
  scatter(sw, touched, [&](const shard::Shard& sh, std::size_t i) {
    std::vector<RankedSite>& mine = partial[i];
    std::size_t in_box = 0;
    sh.query_spans(box, [&in_box](const shard::Page&, std::uint32_t b,
                                  std::uint32_t e) { in_box += e - b; });
    mine.reserve(in_box);
    sh.query_spans(box, [&](const shard::Page& pg, std::uint32_t b,
                            std::uint32_t e) {
      for (std::uint32_t k = b; k < e; ++k) {
        const geo::Vec2 p{pg.xs[k], pg.ys[k]};
        if (!box.contains(p)) continue;
        // Ranked sites need the exact distance anyway; the filter still
        // pre-rejects the bbox corners without a transcendental.
        if (disc.classify(p.x, p.y) < 0) continue;
        const geo::LonLat pos = geo::LonLat::from_vec(p);
        const double d = geo::haversine_m(q.center, pos);
        if (d > q.radius_m) continue;
        mine.push_back(
            {pg.ids[k], pos, static_cast<synth::WhpClass>(pg.cls[k]), d});
      }
    });
  });
  std::size_t total = 0;
  for (const std::vector<RankedSite>& p : partial) total += p.size();
  std::vector<RankedSite> candidates;
  candidates.reserve(total);
  for (const std::vector<RankedSite>& p : partial) {
    candidates.insert(candidates.end(), p.begin(), p.end());
  }
  r.candidates = static_cast<std::uint32_t>(candidates.size());
  // Strict total order (class desc, distance asc, id asc — ids are
  // unique), so the selected K and their order are independent of the
  // concatenation order above. The ids are stable ids until the end:
  // dense ids are their ranks among the live ids, a monotone map, so
  // ranking by either picks the same K in the same order.
  const auto riskier = [](const RankedSite& a, const RankedSite& b) {
    if (a.whp != b.whp) return a.whp > b.whp;
    if (a.distance_m != b.distance_m) return a.distance_m < b.distance_m;
    return a.txr_id < b.txr_id;
  };
  const std::size_t k = std::min<std::size_t>(q.k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + k,
                    candidates.end(), riskier);
  candidates.resize(k);
  for (RankedSite& site : candidates) site.txr_id = sw.dense_id(site.txr_id);
  r.sites = std::move(candidates);
  return r;
}

}  // namespace fa::serve
