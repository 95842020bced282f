// Minimal HTTP/1.1 mapping onto the serve query model.
//
// The binary protocol is the performance surface; this shim exists so a
// human with curl (or a dashboard) can reach the same four query shapes
// through the endpoint set the exemplar risk backends expose:
//
//   GET  /health                        liveness + current epoch
//   GET  /fires?lon=&lat=[&radius_m=&k=]  top-K fire-threatened sites
//                                       near a point (TopKSitesQuery —
//                                       the WHP-ranked analog of
//                                       live-fire retrieval)
//   GET  /assets?bbox=w,s,e,n           infrastructure-in-viewport
//                                       aggregate (BBoxAggregateQuery)
//   POST /risk                          {"lon":..,"lat":..[,"neighborhood_m":..]}
//                                       per-point hazard (PointRiskQuery)
//   GET  /providers/{att|tmobile|sprint|verizon|regional}
//                                       one Table 2 row
//                                       (ProviderExposureQuery)
//   GET  /ensemble/summary[?members=&seed=]
//                                       fire-season ensemble aggregates +
//                                       exceedance curve
//                                       (EnsembleSummaryQuery)
//   GET  /ensemble/fragile[?members=&seed=&k=]
//                                       top-K fragile sites by expected
//                                       user-hours lost
//                                       (TopKFragileSitesQuery)
//   GET  /scenario/camp-fire-2018       prebuilt composite payload for
//                                       the 2018 Camp Fire ignition
//
// Responses are JSON (io::JsonValue, deterministic key order). The shim
// shares the binary path's admission control end to end: parsed
// requests pass the same drain and quota checks and the same cache
// probe (a hit answers from the cached JSON body), and misses enter the
// same bounded queue, shedding included — BUSY maps to 503,
// RATE_LIMITED to 429, SHUTTING_DOWN to 503, BAD_REQUEST to 400,
// TOO_LARGE to 413.
//
// Parsing is deliberately small: request line + headers (Content-Length
// and Connection are the only ones consulted), optional body, with hard
// caps on header block and body size. Anything outside that subset is a
// 400/413/431 and the connection closes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "io/json.hpp"
#include "net/protocol.hpp"
#include "serve/json.hpp"
#include "serve/types.hpp"

namespace fa::serve {
class Server;
}

namespace fa::net {

inline constexpr std::size_t kMaxHttpHeaderBytes = 8 * 1024;
inline constexpr std::size_t kMaxHttpBodyBytes = 64 * 1024;

struct HttpRequest {
  std::string method;  // uppercased
  std::string path;    // percent-decoded, query string stripped
  std::map<std::string, std::string> params;  // percent-decoded
  std::string body;
  bool keep_alive = true;
};

// Incremental HTTP/1.1 request parser (the HTTP twin of
// FrameAssembler): feed() socket bytes, next() complete requests.
// Errors poison the stream; the caller answers with `status` and
// closes.
class HttpAssembler {
 public:
  // Error statuses carry the HTTP code to answer with in offset:
  // 400 (malformed), 413 (body too large), 431 (headers too large).
  fault::Result<std::optional<HttpRequest>> next();
  void feed(std::string_view bytes);

  bool mid_request() const { return !buf_.empty(); }
  std::size_t buffered() const { return buf_.size(); }
  bool poisoned() const { return !status_.ok(); }

 private:
  std::string buf_;
  fault::Status status_;
};

// -- routing -----------------------------------------------------------

struct HttpRoute {
  enum class Kind : std::uint8_t {
    kQuery,     // request holds the decoded serve::Request
    kScenario,  // /scenario/camp-fire-2018 composite
    kHealth,    // answered inline, no admission needed
    kBadRequest,
    kNotFound,
  };
  Kind kind = Kind::kNotFound;
  serve::Request request;
  std::string error;  // kBadRequest detail
};

HttpRoute route_http(const HttpRequest& req);

// -- response rendering ------------------------------------------------

// JSON document for one typed response (shared by the HTTP shim and the
// scenario payload builder); rendered by fa::serve so the result cache
// can hold the body bytes (serve/json.hpp).
using serve::response_json;

// Complete HTTP/1.1 response bytes.
std::string http_response(int status, std::string_view json_body,
                          bool keep_alive);

// Status code an ErrorCode maps onto (429/503/400/413).
int http_status_for(ErrorCode code);

// {"error":...,"code":...} body for an error answer.
std::string http_error_body(ErrorCode code, std::string_view message);

// The 2018 Camp Fire ignition (Camp Creek Road, Pulga CA); the scenario
// endpoint builds its payload around this point.
inline constexpr double kCampFireLon = -121.437;
inline constexpr double kCampFireLat = 39.810;

// URL token for a provider (att/tmobile/sprint/verizon/regional) and
// its inverse, used by /providers/{name} and the by_provider JSON keys.
using serve::provider_from_token;
using serve::provider_token;

// Prebuilt /scenario/camp-fire-2018 payload: point risk at the
// ignition, the 25 riskiest sites within 60 km, and all five provider
// exposure rows — every block answered through Server::handle, each
// labeled with the epoch that answered it (a concurrent hot-swap may
// split a composite across epochs; no single block ever mixes).
io::JsonValue scenario_camp_fire(serve::Server& server);

}  // namespace fa::net
