// The unified Server::handle(Request) surface is THE entry point; the
// legacy typed methods are thin wrappers over it. This suite pins the
// contract the front door depends on: handle() is byte-identical (under
// the canonical wire encoding) to the typed methods on all four query
// shapes, and the cached / uncached paths agree through the unified
// surface.
#include <gtest/gtest.h>

#include <variant>

#include "serve/server.hpp"
#include "serve/types.hpp"
#include "serve/wire.hpp"
#include "serve_test_util.hpp"

namespace fa::serve {
namespace {

using testing::make_stream;
using testing::small_config;

Request to_request(const testing::AnyQuery& q) {
  return std::visit([](const auto& query) { return Request{query}; }, q);
}

TEST(UnifiedApi, HandleMatchesTypedMethodsByteForByte) {
  Server server(small_config());
  const auto stream = make_stream(200, 7, 40);
  for (const auto& any : stream) {
    const Request req = to_request(any);
    const Response via_handle = server.handle(req);
    ASSERT_EQ(via_handle.index(), req.index());
    const Response via_typed = std::visit(
        [&](const auto& q) -> Response {
          using Q = std::decay_t<decltype(q)>;
          if constexpr (std::is_same_v<Q, PointRiskQuery>) {
            return Response{server.point_risk(q)};
          } else if constexpr (std::is_same_v<Q, BBoxAggregateQuery>) {
            return Response{server.bbox_aggregate(q)};
          } else if constexpr (std::is_same_v<Q, ProviderExposureQuery>) {
            return Response{server.provider_exposure(q)};
          } else if constexpr (std::is_same_v<Q, TopKSitesQuery>) {
            return Response{server.top_k_sites(q)};
          } else if constexpr (std::is_same_v<Q, EnsembleSummaryQuery>) {
            return Response{server.ensemble_summary(q)};
          } else {
            return Response{server.top_k_fragile_sites(q)};
          }
        },
        req);
    // Equal as values and as canonical bytes — the same bytes a network
    // client would receive.
    EXPECT_EQ(via_handle, via_typed);
    EXPECT_EQ(wire::encode(via_handle), wire::encode(via_typed));
  }
}

TEST(UnifiedApi, CachedAndUncachedAgreeThroughHandle) {
  ServerOptions cached_opts;
  ServerOptions uncached_opts;
  // Capacity clamps to one entry per shard, so nearly every lookup
  // misses and re-evaluates — the effectively-uncached path.
  uncached_opts.cache.capacity = 0;
  uncached_opts.cache.shards = 1;
  Server cached(small_config(), cached_opts);
  Server uncached(small_config(), uncached_opts);
  const auto stream = make_stream(150, 13, 25);  // repeats => cache hits
  for (const auto& any : stream) {
    const Request req = to_request(any);
    // Ask twice so the second cached answer is a hit; all four ways
    // must produce identical canonical bytes.
    const Response a1 = cached.handle(req);
    const Response a2 = cached.handle(req);
    const Response b = uncached.handle(req);
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(a1, b);
    EXPECT_EQ(wire::encode(a1), wire::encode(b));
  }
}

TEST(UnifiedApi, ResponseAlternativeAlwaysMatchesRequest) {
  Server server(small_config());
  EXPECT_TRUE(std::holds_alternative<PointRiskResponse>(
      server.handle(Request{PointRiskQuery{{-120, 40}, 0.0}})));
  EXPECT_TRUE(std::holds_alternative<BBoxAggregateResponse>(
      server.handle(Request{BBoxAggregateQuery{{-125, 32, -114, 42}}})));
  EXPECT_TRUE(std::holds_alternative<ProviderExposureResponse>(
      server.handle(Request{ProviderExposureQuery{}})));
  EXPECT_TRUE(std::holds_alternative<TopKSitesResponse>(
      server.handle(Request{TopKSitesQuery{{-120, 40}, 5e4, 5}})));
}

}  // namespace
}  // namespace fa::serve
