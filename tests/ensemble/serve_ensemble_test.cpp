// The served ensemble request pair, end to end: wire codec totality,
// fingerprint distinctness, Server::handle dispatch + cache
// equivalence, answers equal to the engine's over the built (or
// delta-applied) world, HTTP route parsing, and a live NetServer socket
// round trip — TopKFragileSites queryable through the same front door
// as every other query shape.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "core/world.hpp"
#include "delta/feed.hpp"
#include "ensemble/ensemble.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"
#include "serve/types.hpp"
#include "serve/wire.hpp"
#include "../delta/reference_apply.hpp"
#include "../serve/serve_test_util.hpp"

namespace fa::serve {
namespace {

using testing::tiny_config;

// Tiny world, few members: these tests exercise plumbing, not the
// simulator — the engine's own properties live in ensemble_test.cpp.
constexpr std::uint32_t kMembers = 6;

Server& shared_server() {
  static Server* server = new Server(tiny_config());
  return *server;
}

TEST(EnsembleWire, RequestRoundTrip) {
  const Request summary{EnsembleSummaryQuery{17, 0xDEADBEEFCAFEULL}};
  const Request fragile{TopKFragileSitesQuery{33, 12345, 9}};
  for (const Request& request : {summary, fragile}) {
    const std::string bytes = wire::encode(request);
    const fault::Result<Request> back = wire::decode_request(bytes);
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), request);
  }
}

TEST(EnsembleWire, ResponseRoundTrip) {
  EnsembleSummaryResponse summary;
  summary.epoch = 3;
  summary.members = 17;
  summary.quarantined = 2;
  summary.sites = 41;
  summary.fires = 99;
  summary.expected_user_hours = 1.5e8;
  summary.expected_power_user_hours = 1.25e8;
  summary.expected_pop_exposure = 4.5e4;
  summary.expected_overlap_user_hours = 3.25e6;
  summary.exceedance = {{0.0, 1.0}, {1e8, 0.5}, {2e8, 0.0}};
  TopKFragileSitesResponse fragile;
  fragile.epoch = 3;
  fragile.members = 17;
  fragile.sites = 41;
  fragile.sites_ranked = {
      {7, {-121.5, 39.75}, 1200.0, 5.5e5, 0.9, 0.625},
      {2, {-120.0, 38.5}, 800.0, 3.5e5, 0.75, 0.5}};
  for (const Response& response : {Response{summary}, Response{fragile}}) {
    const std::string bytes = wire::encode(response);
    const fault::Result<Response> back = wire::decode_response(bytes);
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), response);
  }
}

TEST(EnsembleWire, DecodeRejectsHostileInputs) {
  // Truncated mid-field.
  const std::string bytes =
      wire::encode(Request{EnsembleSummaryQuery{8, 7}});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto r = wire::decode_request(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "accepted a " << cut << "-byte prefix";
  }
  // Trailing garbage after a complete body.
  EXPECT_EQ(wire::decode_request(bytes + "x").status().code,
            fault::ErrCode::kSchema);
  // Zero members is meaningless; absurd members cap the compute a
  // request can demand.
  EXPECT_EQ(wire::decode_request(wire::encode(Request{
                                     EnsembleSummaryQuery{0, 7}}))
                .status()
                .code,
            fault::ErrCode::kOutOfRange);
  EXPECT_EQ(wire::decode_request(
                wire::encode(Request{EnsembleSummaryQuery{
                    wire::kMaxEnsembleMembers + 1, 7}}))
                .status()
                .code,
            fault::ErrCode::kOutOfRange);
  EXPECT_EQ(wire::decode_request(
                wire::encode(Request{TopKFragileSitesQuery{
                    8, 7, wire::kMaxTopK + 1}}))
                .status()
                .code,
            fault::ErrCode::kOutOfRange);
  // Response-side caps: a fabricated row count past the limit rejects
  // before any allocation.
  EnsembleSummaryResponse summary;
  summary.members = 4;
  std::string forged = wire::encode(Response{summary});
  // Row count is the last u32 of the fixed header; forge it huge.
  forged[forged.size() - 4] = '\xFF';
  forged[forged.size() - 3] = '\xFF';
  EXPECT_EQ(wire::decode_response(forged).status().code,
            fault::ErrCode::kOutOfRange);
}

TEST(EnsembleWire, FingerprintsSeparateShapesAndParameters) {
  const EnsembleSummaryQuery a{16, 7};
  const EnsembleSummaryQuery b{16, 8};
  const EnsembleSummaryQuery c{17, 7};
  const TopKFragileSitesQuery d{16, 7, 10};
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(c));
  EXPECT_NE(fingerprint(a), fingerprint(d));
  EXPECT_EQ(fingerprint(a), fingerprint(EnsembleSummaryQuery{16, 7}));
  EXPECT_EQ(fingerprint(a), fingerprint(Request{a}));
}

TEST(EnsembleServe, HandleReturnsTheMatchingAlternative) {
  Server& server = shared_server();
  const Response summary =
      server.handle(Request{EnsembleSummaryQuery{kMembers, 7}});
  ASSERT_TRUE(std::holds_alternative<EnsembleSummaryResponse>(summary));
  const auto& s = std::get<EnsembleSummaryResponse>(summary);
  EXPECT_EQ(s.epoch, server.epoch());
  EXPECT_EQ(s.members, kMembers);
  EXPECT_GT(s.sites, 0u);

  const Response fragile =
      server.handle(Request{TopKFragileSitesQuery{kMembers, 7, 5}});
  ASSERT_TRUE(std::holds_alternative<TopKFragileSitesResponse>(fragile));
  const auto& f = std::get<TopKFragileSitesResponse>(fragile);
  EXPECT_EQ(f.sites, s.sites);
  EXPECT_LE(f.sites_ranked.size(), 5u);
  // Typed wrappers answer with the same bytes as handle().
  EXPECT_EQ(server.ensemble_summary(EnsembleSummaryQuery{kMembers, 7}), s);
  EXPECT_EQ(server.top_k_fragile_sites(TopKFragileSitesQuery{kMembers, 7, 5}),
            f);
}

// What the served pair must answer at `epoch`: run_ensemble over
// SharedInputs::build(world), projected like the wire responses.
std::pair<EnsembleSummaryResponse, TopKFragileSitesResponse> expected_over(
    const core::World& world, Epoch epoch, std::uint32_t members,
    std::uint64_t seed, std::uint32_t k) {
  ensemble::EnsembleConfig config;
  config.members = members;
  config.seed = seed;
  const ensemble::SharedInputs inputs =
      ensemble::SharedInputs::build(world, config);
  const ensemble::EnsembleReport report =
      ensemble::run_ensemble(inputs, config);
  EnsembleSummaryResponse summary;
  summary.epoch = epoch;
  summary.members = report.members;
  summary.quarantined = report.quarantined;
  summary.sites = report.sites;
  summary.fires = report.fires;
  summary.expected_user_hours = report.expected_user_hours;
  summary.expected_power_user_hours = report.expected_power_user_hours;
  summary.expected_pop_exposure = report.expected_pop_exposure;
  summary.expected_overlap_user_hours = report.expected_overlap_user_hours;
  for (const ensemble::ExceedancePoint& p : report.exceedance) {
    summary.exceedance.push_back({p.user_hours, p.probability});
  }
  TopKFragileSitesResponse fragile;
  fragile.epoch = epoch;
  fragile.members = report.members;
  fragile.sites = report.sites;
  for (const ensemble::FragileSite& f :
       ensemble::top_k_fragile(inputs, report, k)) {
    fragile.sites_ranked.push_back({f.site, f.position, f.users,
                                    f.expected_user_hours, f.power_share,
                                    f.outage_probability});
  }
  return {summary, fragile};
}

// The served pair reads the region's transceivers from the shard columns
// instead of a world: it must answer exactly what the ensemble engine
// answers over the built world — on a fresh view, and on a view fed with
// retires (which renumber the dense ids), against the world
// reference_apply rebuilds from the same batches.
TEST(EnsembleServe, ServedAnswersEqualRunEnsembleOverTheWorld) {
  Server server(tiny_config());
  core::World world = core::World::build(tiny_config());
  const auto expect_served = [&](const char* what) {
    SCOPED_TRACE(what);
    const auto [summary, fragile] =
        expected_over(world, server.epoch(), kMembers, 11, 7);
    EXPECT_EQ(server.ensemble_summary({kMembers, 11}), summary);
    EXPECT_EQ(server.top_k_fragile_sites({kMembers, 11, 7}), fragile);
  };
  expect_served("fresh view");

  delta::FeedOptions feed_options;
  feed_options.seed = 5;
  feed_options.w_retire = 12.0;
  delta::FeedGenerator gen(world, feed_options);
  delta::FeedIngestor ingestor;
  std::size_t retires = 0;
  for (int tick = 0; tick < 3; ++tick) {
    auto cleaned = ingestor.ingest(gen.tick());
    ASSERT_TRUE(cleaned.ok());
    auto applied = delta::testing::reference_apply(world, cleaned.value());
    ASSERT_TRUE(applied.ok()) << applied.status().to_string();
    delta::testing::ReferenceEpoch result = std::move(applied).take();
    retires += result.stats.retires;
    world = std::move(result.world);
    ASSERT_TRUE(server.apply_delta(cleaned.value()).ok());
  }
  ASSERT_GT(retires, 0u) << "the feed never retired a site";
  expect_served("fed view");
}

TEST(EnsembleServe, CachedEqualsUncached) {
  Server& cached = shared_server();
  ServerOptions no_cache;
  no_cache.cache_enabled = false;
  Server uncached(tiny_config(), no_cache);
  const Request request{EnsembleSummaryQuery{kMembers, 7}};
  const std::string first = wire::encode(cached.handle(request));
  const std::string repeat = wire::encode(cached.handle(request));
  const std::string cold = wire::encode(uncached.handle(request));
  EXPECT_EQ(first, repeat);  // second answer is the cache hit
  EXPECT_EQ(first, cold);    // cache changes when, never what
}

TEST(EnsembleServe, HttpRoutesParse) {
  net::HttpRequest req;
  req.method = "GET";
  req.path = "/ensemble/summary";
  req.params["members"] = "12";
  req.params["seed"] = "99";
  net::HttpRoute route = net::route_http(req);
  ASSERT_EQ(route.kind, net::HttpRoute::Kind::kQuery);
  const Request expected_summary{EnsembleSummaryQuery{12, 99}};
  EXPECT_EQ(route.request, expected_summary);

  req.path = "/ensemble/fragile";
  req.params["k"] = "3";
  route = net::route_http(req);
  ASSERT_EQ(route.kind, net::HttpRoute::Kind::kQuery);
  const Request expected_fragile{TopKFragileSitesQuery{12, 99, 3}};
  EXPECT_EQ(route.request, expected_fragile);

  // Defaults apply when params are omitted.
  req.params.clear();
  req.path = "/ensemble/summary";
  route = net::route_http(req);
  ASSERT_EQ(route.kind, net::HttpRoute::Kind::kQuery);
  EXPECT_EQ(route.request, serve::Request{EnsembleSummaryQuery{}});

  // Hostile parameters reject at the route, before any simulation.
  for (const char* members : {"0", "4097", "abc", "-3", "1e3"}) {
    req.params["members"] = members;
    EXPECT_EQ(net::route_http(req).kind, net::HttpRoute::Kind::kBadRequest)
        << members;
  }
}

TEST(EnsembleServe, LiveSocketEndToEnd) {
  Server& backend = shared_server();
  net::NetServerOptions options;
  options.workers = 2;
  net::NetServer server(backend, options);
  auto client = net::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  const TopKFragileSitesQuery query{kMembers, 7, 5};
  auto reply = client.value().call(Request{query});
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  ASSERT_TRUE(reply.value().ok());
  const auto& over_wire =
      std::get<TopKFragileSitesResponse>(*reply.value().response);
  // The socket answer is byte-identical to the in-process answer.
  EXPECT_EQ(over_wire, backend.top_k_fragile_sites(query));
  EXPECT_GT(over_wire.sites, 0u);
  for (std::size_t i = 1; i < over_wire.sites_ranked.size(); ++i) {
    EXPECT_GE(over_wire.sites_ranked[i - 1].expected_user_hours,
              over_wire.sites_ranked[i].expected_user_hours);
  }

  auto summary = client.value().call(Request{EnsembleSummaryQuery{kMembers, 7}});
  ASSERT_TRUE(summary.ok()) << summary.status().to_string();
  ASSERT_TRUE(summary.value().ok());
  EXPECT_EQ(std::get<EnsembleSummaryResponse>(*summary.value().response),
            backend.ensemble_summary(EnsembleSummaryQuery{kMembers, 7}));
  server.shutdown(true);
}

}  // namespace
}  // namespace fa::serve
