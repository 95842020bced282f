// A brute-force reference evaluator for the four interactive query
// shapes: every answer is a scan over every transceiver of a core::World,
// with the predicates the served path applies (detail::disc_bbox,
// BBox::contains, geo::haversine_m, the top-K comparator) and no index,
// shard, page or prefilter in between. The equivalence suites compare
// served bytes against it, so it shares no code with the builder or the
// planner beyond those predicates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/provider_risk.hpp"
#include "core/world.hpp"
#include "serve/planner.hpp"
#include "serve_test_util.hpp"

namespace fa::serve::testing {

inline PointRiskResponse reference(const core::World& world,
                                   const core::ProviderRiskResult&,
                                   Epoch epoch, const PointRiskQuery& q) {
  const synth::WhpModel& whp = world.whp();
  PointRiskResponse r;
  r.epoch = epoch;
  r.whp = whp.class_at(q.point);
  r.at_risk = synth::whp_at_risk(r.whp);
  r.urban = whp.is_urban(q.point);
  r.roadside = whp.is_road(q.point);
  r.state = whp.state_at(q.point);
  r.county = world.counties().county_of(q.point);
  if (q.neighborhood_m <= 0.0) return r;
  const geo::BBox box = detail::disc_bbox(q.point, q.neighborhood_m);
  for (const cellnet::Transceiver& t : world.corpus().transceivers()) {
    if (!box.contains(t.position.as_vec())) continue;
    if (geo::haversine_m(q.point, t.position) > q.neighborhood_m) continue;
    ++r.nearby_txr;
    if (synth::whp_at_risk(world.txr_class(t.id))) ++r.nearby_at_risk;
  }
  return r;
}

inline BBoxAggregateResponse reference(const core::World& world,
                                       const core::ProviderRiskResult&,
                                       Epoch epoch,
                                       const BBoxAggregateQuery& q) {
  BBoxAggregateResponse r;
  r.epoch = epoch;
  for (const cellnet::Transceiver& t : world.corpus().transceivers()) {
    if (!q.bbox.contains(t.position.as_vec())) continue;
    const synth::WhpClass c = world.txr_class(t.id);
    ++r.transceivers;
    ++r.by_class[static_cast<std::size_t>(c)];
    if (synth::whp_at_risk(c)) ++r.at_risk;
    ++r.by_provider[static_cast<std::size_t>(world.txr_provider(t.id))];
  }
  return r;
}

inline ProviderExposureResponse reference(const core::World&,
                                          const core::ProviderRiskResult& risk,
                                          Epoch epoch,
                                          const ProviderExposureQuery& q) {
  const core::ProviderRiskRow& row =
      risk.rows[static_cast<std::size_t>(q.provider)];
  ProviderExposureResponse r;
  r.epoch = epoch;
  r.provider = q.provider;
  r.fleet = row.fleet;
  r.moderate = row.moderate;
  r.high = row.high;
  r.very_high = row.very_high;
  return r;
}

inline TopKSitesResponse reference(const core::World& world,
                                   const core::ProviderRiskResult&,
                                   Epoch epoch, const TopKSitesQuery& q) {
  TopKSitesResponse r;
  r.epoch = epoch;
  const geo::BBox box = detail::disc_bbox(q.center, q.radius_m);
  std::vector<RankedSite> candidates;
  for (const cellnet::Transceiver& t : world.corpus().transceivers()) {
    if (!box.contains(t.position.as_vec())) continue;
    const double d = geo::haversine_m(q.center, t.position);
    if (d > q.radius_m) continue;
    candidates.push_back({t.id, t.position, world.txr_class(t.id), d});
  }
  r.candidates = static_cast<std::uint32_t>(candidates.size());
  const auto riskier = [](const RankedSite& a, const RankedSite& b) {
    if (a.whp != b.whp) return a.whp > b.whp;
    if (a.distance_m != b.distance_m) return a.distance_m < b.distance_m;
    return a.txr_id < b.txr_id;
  };
  const std::size_t k = std::min<std::size_t>(q.k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + k,
                    candidates.end(), riskier);
  candidates.resize(k);
  r.sites = std::move(candidates);
  return r;
}

// The reference answer to a type-erased query.
inline AnyResponse ask_reference(const core::World& world,
                                 const core::ProviderRiskResult& risk,
                                 Epoch epoch, const AnyQuery& q) {
  return std::visit(
      [&](const auto& query) -> AnyResponse {
        return reference(world, risk, epoch, query);
      },
      q);
}

}  // namespace fa::serve::testing
