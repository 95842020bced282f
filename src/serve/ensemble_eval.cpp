// Served ensemble queries: map (snapshot, members, seed) onto a
// fa::ensemble run and project the report into the wire response
// shapes. Both evaluates are pure functions of the snapshot content and
// the query — the ensemble's own determinism contract (byte-identical
// at any thread count) is what makes these cacheable like the O(1)
// queries despite running thousands of seeded season simulations.
//
// The inputs are rebuilt per evaluate call, from the shard columns: the
// result cache absorbs repeats of the same (epoch, query), and the wire
// decoder caps `members`, so one request's worst case is bounded.
#include <algorithm>

#include "ensemble/ensemble.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/snapshot.hpp"

namespace fa::serve {

namespace {

ensemble::EnsembleConfig config_for(std::uint32_t members,
                                    std::uint64_t seed) {
  ensemble::EnsembleConfig config;
  config.members = std::max<std::uint32_t>(1, members);
  config.seed = seed;
  return config;
}

// The ensemble's inputs over the view: the WHP surface, and the region's
// transceivers, dense ids ascending, straight from the shard columns. A
// quarantined shard has no columns: its transceivers are missing from
// the answer, counted as a degraded serve like the planner's.
ensemble::SharedInputs inputs_for(const Snapshot& snap,
                                  const ensemble::EnsembleConfig& config) {
  const shard::ShardedWorld& view = snap.sharded();
  const int state = ensemble::SharedInputs::region_state_of(config);
  std::vector<cellnet::Transceiver> region;
  bool degraded = false;
  for (const shard::Shard& sh : view.shards()) {
    degraded = degraded || sh.quarantined;
    for (std::size_t p = 0; p < sh.page_count(); ++p) {
      const shard::Page& pg = sh.page(p);
      for (std::uint32_t k = pg.begin(); k < pg.end(); ++k) {
        if (pg.state[k] != state) continue;
        region.push_back({view.dense_id(pg.ids[k]),
                          {pg.xs[k], pg.ys[k]},
                          static_cast<cellnet::RadioType>(pg.radio[k]),
                          pg.mcc[k], pg.mnc[k], pg.cell_id[k], pg.state[k]});
      }
    }
  }
  if (degraded) obs::count(obs::metrics::kShardDegradedServes);
  std::ranges::sort(region, {}, &cellnet::Transceiver::id);
  return ensemble::SharedInputs::build(view.whp_ptr(), view.config(),
                                       std::move(region), config);
}

}  // namespace

EnsembleSummaryResponse evaluate(const Snapshot& snap,
                                 const EnsembleSummaryQuery& q) {
  const ensemble::EnsembleConfig config = config_for(q.members, q.seed);
  const ensemble::SharedInputs inputs = inputs_for(snap, config);
  const ensemble::EnsembleReport report =
      ensemble::run_ensemble(inputs, config);
  EnsembleSummaryResponse r;
  r.epoch = snap.epoch();
  r.members = report.members;
  r.quarantined = report.quarantined;
  r.sites = report.sites;
  r.fires = report.fires;
  r.expected_user_hours = report.expected_user_hours;
  r.expected_power_user_hours = report.expected_power_user_hours;
  r.expected_pop_exposure = report.expected_pop_exposure;
  r.expected_overlap_user_hours = report.expected_overlap_user_hours;
  r.exceedance.reserve(report.exceedance.size());
  for (const ensemble::ExceedancePoint& p : report.exceedance) {
    r.exceedance.push_back({p.user_hours, p.probability});
  }
  return r;
}

TopKFragileSitesResponse evaluate(const Snapshot& snap,
                                  const TopKFragileSitesQuery& q) {
  const ensemble::EnsembleConfig config = config_for(q.members, q.seed);
  const ensemble::SharedInputs inputs = inputs_for(snap, config);
  const ensemble::EnsembleReport report =
      ensemble::run_ensemble(inputs, config);
  const std::vector<ensemble::FragileSite> top =
      ensemble::top_k_fragile(inputs, report, q.k);
  TopKFragileSitesResponse r;
  r.epoch = snap.epoch();
  r.members = report.members;
  r.sites = report.sites;
  r.sites_ranked.reserve(top.size());
  for (const ensemble::FragileSite& s : top) {
    r.sites_ranked.push_back({s.site, s.position, s.users,
                              s.expected_user_hours, s.power_share,
                              s.outage_probability});
  }
  return r;
}

}  // namespace fa::serve
