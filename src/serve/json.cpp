#include "serve/json.hpp"

#include <type_traits>
#include <variant>

#include "synth/hazard.hpp"

namespace fa::serve {

std::string_view provider_token(cellnet::Provider p) {
  switch (p) {
    case cellnet::Provider::kAtt: return "att";
    case cellnet::Provider::kTMobile: return "tmobile";
    case cellnet::Provider::kSprint: return "sprint";
    case cellnet::Provider::kVerizon: return "verizon";
    case cellnet::Provider::kRegional: return "regional";
  }
  return "unknown";
}

std::optional<cellnet::Provider> provider_from_token(std::string_view token) {
  for (int i = 0; i < cellnet::kNumProviders; ++i) {
    const cellnet::Provider p = static_cast<cellnet::Provider>(i);
    if (token == provider_token(p)) return p;
  }
  return std::nullopt;
}

io::JsonValue response_json(const Response& response) {
  return std::visit(
      [](const auto& r) -> io::JsonValue {
        using R = std::decay_t<decltype(r)>;
        io::JsonObject o;
        o["epoch"] = static_cast<std::size_t>(r.epoch);
        if constexpr (std::is_same_v<R, PointRiskResponse>) {
          o["whp"] = std::string(synth::whp_class_name(r.whp));
          o["whp_class"] = static_cast<int>(r.whp);
          o["at_risk"] = r.at_risk;
          o["urban"] = r.urban;
          o["roadside"] = r.roadside;
          o["state"] = r.state;
          o["county"] = r.county;
          o["nearby_txr"] = static_cast<std::size_t>(r.nearby_txr);
          o["nearby_at_risk"] = static_cast<std::size_t>(r.nearby_at_risk);
        } else if constexpr (std::is_same_v<R,
                                            BBoxAggregateResponse>) {
          o["transceivers"] = static_cast<std::size_t>(r.transceivers);
          io::JsonArray by_class;
          for (const std::uint64_t c : r.by_class) {
            by_class.push_back(static_cast<std::size_t>(c));
          }
          o["by_class"] = io::JsonValue{std::move(by_class)};
          o["at_risk"] = static_cast<std::size_t>(r.at_risk);
          io::JsonObject by_provider;
          for (int i = 0; i < cellnet::kNumProviders; ++i) {
            by_provider[std::string(
                provider_token(static_cast<cellnet::Provider>(i)))] =
                static_cast<std::size_t>(r.by_provider[static_cast<std::size_t>(i)]);
          }
          o["by_provider"] = io::JsonValue{std::move(by_provider)};
        } else if constexpr (std::is_same_v<
                                 R, ProviderExposureResponse>) {
          o["provider"] = std::string(provider_token(r.provider));
          o["fleet"] = static_cast<std::size_t>(r.fleet);
          o["moderate"] = static_cast<std::size_t>(r.moderate);
          o["high"] = static_cast<std::size_t>(r.high);
          o["very_high"] = static_cast<std::size_t>(r.very_high);
          o["at_risk"] = static_cast<std::size_t>(r.at_risk());
        } else if constexpr (std::is_same_v<R, TopKSitesResponse>) {
          o["candidates"] = static_cast<std::size_t>(r.candidates);
          io::JsonArray sites;
          for (const RankedSite& site : r.sites) {
            io::JsonObject s;
            s["txr_id"] = static_cast<std::size_t>(site.txr_id);
            s["lon"] = site.position.lon;
            s["lat"] = site.position.lat;
            s["whp"] = std::string(synth::whp_class_name(site.whp));
            s["distance_m"] = site.distance_m;
            sites.push_back(io::JsonValue{std::move(s)});
          }
          o["sites"] = io::JsonValue{std::move(sites)};
        } else if constexpr (std::is_same_v<R,
                                            EnsembleSummaryResponse>) {
          o["members"] = static_cast<std::size_t>(r.members);
          o["quarantined"] = static_cast<std::size_t>(r.quarantined);
          o["sites"] = static_cast<std::size_t>(r.sites);
          o["fires"] = static_cast<std::size_t>(r.fires);
          o["expected_user_hours"] = r.expected_user_hours;
          o["expected_power_user_hours"] = r.expected_power_user_hours;
          o["expected_pop_exposure"] = r.expected_pop_exposure;
          o["expected_overlap_user_hours"] = r.expected_overlap_user_hours;
          io::JsonArray curve;
          for (const ExceedanceRow& row : r.exceedance) {
            io::JsonObject p;
            p["user_hours"] = row.user_hours;
            p["probability"] = row.probability;
            curve.push_back(io::JsonValue{std::move(p)});
          }
          o["exceedance"] = io::JsonValue{std::move(curve)};
        } else {
          static_assert(
              std::is_same_v<R, TopKFragileSitesResponse>);
          o["members"] = static_cast<std::size_t>(r.members);
          o["sites"] = static_cast<std::size_t>(r.sites);
          io::JsonArray ranked;
          for (const FragileSiteRow& row : r.sites_ranked) {
            io::JsonObject s;
            s["site"] = static_cast<std::size_t>(row.site);
            s["lon"] = row.position.lon;
            s["lat"] = row.position.lat;
            s["users"] = row.users;
            s["expected_user_hours"] = row.expected_user_hours;
            s["power_share"] = row.power_share;
            s["outage_probability"] = row.outage_probability;
            ranked.push_back(io::JsonValue{std::move(s)});
          }
          o["sites_ranked"] = io::JsonValue{std::move(ranked)};
        }
        return io::JsonValue{std::move(o)};
      },
      response);
}

std::string json_body(const Response& response) {
  return io::to_json(response_json(response));
}

}  // namespace fa::serve
