#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "serve/server.hpp"

namespace fa::net {

namespace {

constexpr std::string_view kHttpSource = "net.http";

fault::Status http_err(int http_status, std::string message) {
  // The HTTP status rides in `offset` so the connection handler can
  // answer with the right code without re-deriving it.
  return fault::Status::error(fault::ErrCode::kParse,
                              static_cast<std::uint64_t>(http_status),
                              std::string(kHttpSource), std::move(message));
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// %XX and '+' decoding; a malformed escape passes through literally
// (it can only make a parameter fail its numeric parse later).
std::string percent_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() &&
               hex_digit(s[i + 1]) >= 0 && hex_digit(s[i + 2]) >= 0) {
      out.push_back(static_cast<char>(hex_digit(s[i + 1]) * 16 +
                                      hex_digit(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

// Whole-token double parse; nullopt when the token is empty or has
// trailing garbage.
std::optional<double> parse_double(std::string_view token) {
  if (token.empty()) return std::nullopt;
  const std::string s(token);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

// Digits only: strtoul would accept leading whitespace and '+'/'-'
// signs, so Content-Length values like "+5" or " 5" (or negatives that
// wrap) would slip through as valid.
std::optional<std::uint32_t> parse_u32(std::string_view token) {
  if (token.empty() || token.size() > 10) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v > 0xFFFFFFFFull) return std::nullopt;
  return static_cast<std::uint32_t>(v);
}

// Same digits-only discipline as parse_u32, for 64-bit ensemble seeds.
std::optional<std::uint64_t> parse_u64(std::string_view token) {
  if (token.empty() || token.size() > 20) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t next = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (next / 10 != v) return std::nullopt;  // overflow
    v = next;
  }
  return v;
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

HttpRoute bad_request(std::string detail) {
  HttpRoute route;
  route.kind = HttpRoute::Kind::kBadRequest;
  route.error = std::move(detail);
  return route;
}

}  // namespace

void HttpAssembler::feed(std::string_view bytes) {
  if (!status_.ok()) return;
  buf_.append(bytes);
}

fault::Result<std::optional<HttpRequest>> HttpAssembler::next() {
  if (!status_.ok()) return status_;
  const std::size_t header_end = buf_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (buf_.size() > kMaxHttpHeaderBytes) {
      status_ = http_err(431, "header block exceeds cap");
      return status_;
    }
    return std::optional<HttpRequest>{};
  }
  if (header_end > kMaxHttpHeaderBytes) {
    status_ = http_err(431, "header block exceeds cap");
    return status_;
  }

  const std::string_view head =
      std::string_view(buf_).substr(0, header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  // METHOD SP target SP HTTP/1.x
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    status_ = http_err(400, "malformed request line");
    return status_;
  }
  const std::string_view version = request_line.substr(sp2 + 1);
  if (!version.starts_with("HTTP/1.")) {
    status_ = http_err(400, "unsupported protocol version");
    return status_;
  }

  HttpRequest req;
  req.method = to_upper(request_line.substr(0, sp1));
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  req.keep_alive = version != "HTTP/1.0";

  // Headers: only Content-Length and Connection are consulted.
  std::size_t content_length = 0;
  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name = to_lower(line.substr(0, colon));
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    if (name == "content-length") {
      const std::optional<std::uint32_t> n = parse_u32(value);
      if (!n) {
        status_ = http_err(400, "unparseable Content-Length");
        return status_;
      }
      if (*n > kMaxHttpBodyBytes) {
        status_ = http_err(413, "body exceeds cap");
        return status_;
      }
      content_length = *n;
    } else if (name == "connection") {
      const std::string v = to_lower(value);
      if (v == "close") req.keep_alive = false;
      if (v == "keep-alive") req.keep_alive = true;
    }
  }

  const std::size_t total = header_end + 4 + content_length;
  if (buf_.size() < total) return std::optional<HttpRequest>{};
  req.body = buf_.substr(header_end + 4, content_length);

  // Split target into path + query params.
  const std::size_t qmark = target.find('?');
  req.path = percent_decode(target.substr(0, qmark));
  if (qmark != std::string_view::npos) {
    std::string_view query = target.substr(qmark + 1);
    while (!query.empty()) {
      const std::size_t amp = query.find('&');
      const std::string_view pair =
          amp == std::string_view::npos ? query : query.substr(0, amp);
      query = amp == std::string_view::npos ? std::string_view{}
                                            : query.substr(amp + 1);
      const std::size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        if (!pair.empty()) req.params[percent_decode(pair)] = "";
      } else {
        req.params[percent_decode(pair.substr(0, eq))] =
            percent_decode(pair.substr(eq + 1));
      }
    }
  }

  buf_.erase(0, total);
  return std::optional<HttpRequest>{std::move(req)};
}

HttpRoute route_http(const HttpRequest& req) {
  HttpRoute route;
  if (req.method == "GET") {
    if (req.path == "/health") {
      route.kind = HttpRoute::Kind::kHealth;
      return route;
    }
    if (req.path == "/scenario/camp-fire-2018") {
      route.kind = HttpRoute::Kind::kScenario;
      return route;
    }
    if (req.path == "/fires") {
      const auto lon = req.params.count("lon")
                           ? parse_double(req.params.at("lon"))
                           : std::nullopt;
      const auto lat = req.params.count("lat")
                           ? parse_double(req.params.at("lat"))
                           : std::nullopt;
      if (!lon || !lat) return bad_request("lon and lat are required");
      serve::TopKSitesQuery q;
      q.center = {*lon, *lat};
      if (req.params.count("radius_m")) {
        const auto radius = parse_double(req.params.at("radius_m"));
        if (!radius || *radius < 0.0) return bad_request("bad radius_m");
        q.radius_m = *radius;
      }
      if (req.params.count("k")) {
        const auto k = parse_u32(req.params.at("k"));
        if (!k || *k > serve::wire::kMaxTopK) {
          return bad_request("k must be an integer <= " +
                             std::to_string(serve::wire::kMaxTopK));
        }
        q.k = *k;
      }
      route.kind = HttpRoute::Kind::kQuery;
      route.request = q;
      return route;
    }
    if (req.path == "/assets") {
      if (!req.params.count("bbox")) {
        return bad_request("bbox=min_lon,min_lat,max_lon,max_lat required");
      }
      std::string_view s = req.params.at("bbox");
      double v[4];
      for (int i = 0; i < 4; ++i) {
        const std::size_t comma = s.find(',');
        const std::string_view token =
            i < 3 ? s.substr(0, comma) : s;
        if (i < 3 && comma == std::string_view::npos) {
          return bad_request("bbox needs four comma-separated numbers");
        }
        const std::optional<double> parsed = parse_double(token);
        if (!parsed) return bad_request("unparseable bbox coordinate");
        v[i] = *parsed;
        if (i < 3) s = s.substr(comma + 1);
      }
      serve::BBoxAggregateQuery q;
      q.bbox = {v[0], v[1], v[2], v[3]};
      route.kind = HttpRoute::Kind::kQuery;
      route.request = q;
      return route;
    }
    if (req.path == "/ensemble/summary" || req.path == "/ensemble/fragile") {
      std::uint32_t members = 64;
      std::uint64_t seed = 7;
      if (req.params.count("members")) {
        const auto m = parse_u32(req.params.at("members"));
        if (!m || *m == 0 || *m > serve::wire::kMaxEnsembleMembers) {
          return bad_request(
              "members must be an integer in [1, " +
              std::to_string(serve::wire::kMaxEnsembleMembers) + "]");
        }
        members = *m;
      }
      if (req.params.count("seed")) {
        const auto s = parse_u64(req.params.at("seed"));
        if (!s) return bad_request("seed must be a non-negative integer");
        seed = *s;
      }
      route.kind = HttpRoute::Kind::kQuery;
      if (req.path == "/ensemble/summary") {
        route.request = serve::EnsembleSummaryQuery{members, seed};
        return route;
      }
      serve::TopKFragileSitesQuery q;
      q.members = members;
      q.seed = seed;
      if (req.params.count("k")) {
        const auto k = parse_u32(req.params.at("k"));
        if (!k || *k > serve::wire::kMaxTopK) {
          return bad_request("k must be an integer <= " +
                             std::to_string(serve::wire::kMaxTopK));
        }
        q.k = *k;
      }
      route.request = q;
      return route;
    }
    if (req.path.starts_with("/providers/")) {
      const std::optional<cellnet::Provider> p =
          provider_from_token(to_lower(req.path.substr(11)));
      if (!p) return bad_request("unknown provider");
      route.kind = HttpRoute::Kind::kQuery;
      route.request = serve::ProviderExposureQuery{*p};
      return route;
    }
    route.kind = HttpRoute::Kind::kNotFound;
    return route;
  }
  if (req.method == "POST") {
    if (req.path == "/risk") {
      const fault::Result<io::JsonValue> parsed =
          io::try_parse_json(req.body);
      if (!parsed.ok()) {
        return bad_request("unparseable JSON body: " +
                           parsed.status().message);
      }
      const io::JsonValue& doc = parsed.value();
      if (!doc.is_object() || !doc.has("lon") || !doc.has("lat") ||
          !doc.at("lon").is_number() || !doc.at("lat").is_number()) {
        return bad_request("body must be {\"lon\":..,\"lat\":..}");
      }
      serve::PointRiskQuery q;
      q.point = {doc.at("lon").as_number(), doc.at("lat").as_number()};
      if (doc.has("neighborhood_m")) {
        if (!doc.at("neighborhood_m").is_number()) {
          return bad_request("neighborhood_m must be a number");
        }
        q.neighborhood_m = doc.at("neighborhood_m").as_number();
      }
      route.kind = HttpRoute::Kind::kQuery;
      route.request = q;
      return route;
    }
    route.kind = HttpRoute::Kind::kNotFound;
    return route;
  }
  return bad_request("unsupported method " + req.method);
}

std::string http_response(int status, std::string_view json_body,
                          bool keep_alive) {
  std::string out;
  out.reserve(128 + json_body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason_phrase(status);
  out += "\r\nContent-Type: application/json\r\nContent-Length: ";
  out += std::to_string(json_body.size());
  out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                    : "\r\nConnection: close\r\n\r\n";
  out += json_body;
  return out;
}

int http_status_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return 400;
    case ErrorCode::kTooLarge: return 413;
    case ErrorCode::kRateLimited: return 429;
    case ErrorCode::kBusy: return 503;
    case ErrorCode::kShuttingDown: return 503;
  }
  return 500;
}

std::string http_error_body(ErrorCode code, std::string_view message) {
  io::JsonObject o;
  o["error"] = std::string(error_code_name(code));
  o["detail"] = std::string(message);
  return io::to_json(io::JsonValue{std::move(o)});
}

io::JsonValue scenario_camp_fire(serve::Server& server) {
  const geo::LonLat ignition{kCampFireLon, kCampFireLat};

  serve::PointRiskQuery point;
  point.point = ignition;
  point.neighborhood_m = 30e3;

  serve::TopKSitesQuery top;
  top.center = ignition;
  top.radius_m = 60e3;
  top.k = 25;

  io::JsonObject o;
  o["scenario"] = "camp-fire-2018";
  o["name"] = "Camp Fire";
  o["year"] = 2018;
  io::JsonObject ign;
  ign["lon"] = ignition.lon;
  ign["lat"] = ignition.lat;
  o["ignition"] = io::JsonValue{std::move(ign)};
  o["point_risk"] = response_json(server.handle(serve::Request{point}));
  o["top_sites"] = response_json(server.handle(serve::Request{top}));
  io::JsonArray providers;
  for (int i = 0; i < cellnet::kNumProviders; ++i) {
    providers.push_back(response_json(server.handle(serve::Request{
        serve::ProviderExposureQuery{static_cast<cellnet::Provider>(i)}})));
  }
  o["providers"] = io::JsonValue{std::move(providers)};
  return io::JsonValue{std::move(o)};
}

}  // namespace fa::net
