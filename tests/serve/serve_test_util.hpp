// Shared scaffolding for the serve suite: small scenarios (world builds
// dominate test runtime, and the swap tests rebuild repeatedly), a
// deterministic mixed-type query stream, and type-erased dispatch so
// streams can be replayed against any Server or raw Snapshot.
#pragma once

#include <cstdint>
#include <random>
#include <variant>
#include <vector>

#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/types.hpp"

namespace fa::serve::testing {

// Same shape as the core test world; coarse enough to build in well
// under a second so each test binary can afford a handful of epochs.
inline synth::ScenarioConfig small_config(std::uint64_t seed = 20191022) {
  synth::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.whp_cell_m = 9000.0;
  cfg.corpus_scale = 100.0;
  cfg.counties_per_state = 16;
  return cfg;
}

// Coarser still, for tests that rebuild in a loop (the swap race).
inline synth::ScenarioConfig tiny_config(std::uint64_t seed = 20191022) {
  synth::ScenarioConfig cfg = small_config(seed);
  cfg.whp_cell_m = 18000.0;
  cfg.corpus_scale = 400.0;
  return cfg;
}

// A layout fine enough that the small test worlds actually straddle
// shards (the default 32x16/16 would too, but a smaller tile grid keeps
// per-shard populations comfortably non-trivial at corpus_scale 100).
inline shard::LayoutOptions small_layout() {
  shard::LayoutOptions options;
  options.tiles_x = 8;
  options.tiles_y = 4;
  options.target_shards = 6;
  return options;
}

// The layouts the lifecycle suites run every server under: the default
// cut and small_layout(). Answers must not depend on which.
inline std::vector<shard::LayoutOptions> test_layouts() {
  return {shard::LayoutOptions{}, small_layout()};
}

inline const char* layout_name(const shard::LayoutOptions& layout) {
  return layout.target_shards == small_layout().target_shards
             ? "small layout"
             : "default layout";
}

using AnyQuery = std::variant<PointRiskQuery, BBoxAggregateQuery,
                              ProviderExposureQuery, TopKSitesQuery>;

// A deterministic stream of `n` queries drawn (with repetition, so
// caches have something to hit) from `distinct` generated candidates.
// CONUS-ish coordinates keep the answers non-trivial.
inline std::vector<AnyQuery> make_stream(std::size_t n, std::uint64_t seed,
                                         std::size_t distinct = 48) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> lon(-122.0, -70.0);
  std::uniform_real_distribution<double> lat(26.0, 48.0);
  std::vector<AnyQuery> pool;
  pool.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    switch (i % 4) {
      case 0:
        pool.push_back(PointRiskQuery{{lon(rng), lat(rng)},
                                      (i % 8 == 0) ? 30e3 : 0.0});
        break;
      case 1: {
        const double x = lon(rng);
        const double y = lat(rng);
        pool.push_back(BBoxAggregateQuery{{x, y, x + 2.0, y + 1.5}});
        break;
      }
      case 2:
        pool.push_back(ProviderExposureQuery{
            static_cast<cellnet::Provider>(i % cellnet::kNumProviders)});
        break;
      default:
        pool.push_back(TopKSitesQuery{{lon(rng), lat(rng)}, 60e3, 8});
        break;
    }
  }
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::vector<AnyQuery> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) stream.push_back(pool[pick(rng)]);
  return stream;
}

using AnyResponse = std::variant<PointRiskResponse, BBoxAggregateResponse,
                                 ProviderExposureResponse, TopKSitesResponse>;

// Routes a type-erased query through the Server front door.
inline AnyResponse ask(Server& server, const AnyQuery& q) {
  return std::visit(
      [&server](const auto& query) -> AnyResponse {
        using Q = std::decay_t<decltype(query)>;
        if constexpr (std::is_same_v<Q, PointRiskQuery>) {
          return server.point_risk(query);
        } else if constexpr (std::is_same_v<Q, BBoxAggregateQuery>) {
          return server.bbox_aggregate(query);
        } else if constexpr (std::is_same_v<Q, ProviderExposureQuery>) {
          return server.provider_exposure(query);
        } else {
          return server.top_k_sites(query);
        }
      },
      q);
}

// Recomputes the answer directly against one pinned snapshot.
inline AnyResponse ask_snapshot(const Snapshot& snap, const AnyQuery& q) {
  return std::visit(
      [&snap](const auto& query) -> AnyResponse {
        return evaluate(snap, query);
      },
      q);
}

inline Epoch epoch_of(const AnyResponse& r) {
  return std::visit([](const auto& response) { return response.epoch; }, r);
}

}  // namespace fa::serve::testing
