#include "serve/planner.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/snapshot.hpp"
#include "synth/hazard.hpp"

namespace fa::serve {

namespace {

// The planner's counters, resolved once per thread and again only when
// a ScopedRegistry swaps the global registry — keyed on (address, id),
// as in geo/prepared.cpp — so a query pays two compares instead of
// obs::count's locked map lookup. Registry::reset() never removes an
// entry, so the pointers stay valid.
struct PlannerCounters {
  obs::Registry* owner = nullptr;
  std::uint64_t owner_id = 0;
  obs::Counter* point_routes = nullptr;
  obs::Counter* fanouts = nullptr;
  obs::Counter* fanout_shards = nullptr;
  obs::Counter* degraded_serves = nullptr;
};

// Null while obs is off: nothing registers, as with obs::count.
PlannerCounters* planner_counters() {
  if (!obs::enabled()) return nullptr;
  thread_local PlannerCounters c;
  obs::Registry& g = obs::Registry::global();
  if (c.owner != &g || c.owner_id != g.id()) {
    c.owner = &g;
    c.owner_id = g.id();
    c.point_routes = &g.counter(obs::metrics::kShardPointRoutes);
    c.fanouts = &g.counter(obs::metrics::kShardFanouts);
    c.fanout_shards = &g.counter(obs::metrics::kShardFanoutShards);
    c.degraded_serves = &g.counter(obs::metrics::kShardDegradedServes);
  }
  return &c;
}

// Runs visit(page, begin, end) over the spans of `box` in every shard
// the box overlaps, in ascending shard id, on the calling thread, and
// returns how many shards it overlapped. Quarantined shards are skipped
// and the query counted once as degraded.
template <class Visit>
std::size_t scan(const shard::ShardedWorld& sw, const geo::BBox& box,
                 Visit&& visit) {
  const std::vector<std::uint32_t> touched =
      sw.layout().shards_overlapping(box);
  bool degraded = false;
  for (const std::uint32_t s : touched) {
    const shard::Shard& sh = sw.shard(s);
    if (sh.quarantined) {
      degraded = true;
      continue;
    }
    sh.query_spans(box, visit);
  }
  if (degraded) {
    if (PlannerCounters* c = planner_counters()) c->degraded_serves->add();
  }
  return touched.size();
}

void count_fanout(std::size_t shards) {
  if (PlannerCounters* c = planner_counters()) {
    c->fanouts->add();
    c->fanout_shards->add(shards);
  }
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
    const detail::DiscFilter disc(q.point, q.neighborhood_m, box);
    const std::size_t touched =
        scan(sw, box, [&](const shard::Page& pg, std::uint32_t b,
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
    if (PlannerCounters* c = planner_counters()) c->point_routes->add(touched);
  }
  return r;
}

BBoxAggregateResponse evaluate(const Snapshot& snap,
                               const BBoxAggregateQuery& q) {
  BBoxAggregateResponse r;
  r.epoch = snap.epoch();
  const std::size_t touched = scan(
      snap.sharded(), q.bbox,
      [&](const shard::Page& pg, std::uint32_t b, std::uint32_t e) {
        for (std::uint32_t k = b; k < e; ++k) {
          if (!q.bbox.contains({pg.xs[k], pg.ys[k]})) continue;
          const auto c = static_cast<synth::WhpClass>(pg.cls[k]);
          ++r.transceivers;
          ++r.by_class[static_cast<std::size_t>(c)];
          if (synth::whp_at_risk(c)) ++r.at_risk;
          ++r.by_provider[pg.provider[k]];
        }
      });
  count_fanout(touched);
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
  const detail::DiscFilter disc(q.center, q.radius_m, box);
  // Strict total order (class desc, distance asc, id asc — ids are
  // unique), so the selected K and their order are independent of the
  // scan order below. The ids are stable ids until the end: dense ids
  // are their ranks among the live ids, a monotone map, so ranking by
  // either picks the same K in the same order.
  const auto riskier = [](const RankedSite& a, const RankedSite& b) {
    if (a.whp != b.whp) return a.whp > b.whp;
    if (a.distance_m != b.distance_m) return a.distance_m < b.distance_m;
    return a.txr_id < b.txr_id;
  };
  // The k riskiest sites so far, in a heap whose front is the least
  // risky of them: a miss costs what its answer holds, not what its
  // disc holds.
  const std::size_t k = q.k;
  std::vector<RankedSite> best;
  std::uint32_t candidates = 0;
  const std::size_t touched = scan(
      sw, box, [&](const shard::Page& pg, std::uint32_t b, std::uint32_t e) {
        for (std::uint32_t i = b; i < e; ++i) {
          const geo::Vec2 p{pg.xs[i], pg.ys[i]};
          if (!box.contains(p)) continue;
          const int side = disc.classify(p.x, p.y);
          if (side < 0) continue;
          const auto whp = static_cast<synth::WhpClass>(pg.cls[i]);
          const bool full = best.size() == k;
          // Proven inside and of a lower class than the worst kept site:
          // it counts, but cannot rank, so it needs no distance.
          if (side > 0 && full && (k == 0 || whp < best.front().whp)) {
            ++candidates;
            continue;
          }
          const geo::LonLat pos = geo::LonLat::from_vec(p);
          const double d = geo::haversine_m(q.center, pos);
          if (d > q.radius_m) continue;
          ++candidates;
          const RankedSite site{pg.ids[i], pos, whp, d};
          if (!full) {
            best.push_back(site);
            std::push_heap(best.begin(), best.end(), riskier);
          } else if (k > 0 && riskier(site, best.front())) {
            std::pop_heap(best.begin(), best.end(), riskier);
            best.back() = site;
            std::push_heap(best.begin(), best.end(), riskier);
          }
        }
      });
  count_fanout(touched);
  r.candidates = candidates;
  std::sort_heap(best.begin(), best.end(), riskier);
  for (RankedSite& site : best) site.txr_id = sw.dense_id(site.txr_id);
  r.sites = std::move(best);
  return r;
}

}  // namespace fa::serve
