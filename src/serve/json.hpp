// JSON rendering of serve responses: the HTTP shim's body bytes.
//
// It lives in fa::serve, not fa::net, because the result cache holds
// encoded replies (serve/cache.hpp): a JSON-codec miss renders its body
// here once, and every later hit copies those bytes. fa::net re-exports
// these names for its callers (net/http.hpp).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "cellnet/providers.hpp"
#include "io/json.hpp"
#include "serve/types.hpp"

namespace fa::serve {

// URL token for a provider (att/tmobile/sprint/verizon/regional) and
// its inverse, used by /providers/{name} and the by_provider JSON keys.
std::string_view provider_token(cellnet::Provider p);
std::optional<cellnet::Provider> provider_from_token(std::string_view token);

// JSON document for one typed response (deterministic key order).
io::JsonValue response_json(const Response& response);

// The serialized document: the body an HTTP 200 carries.
std::string json_body(const Response& response);

}  // namespace fa::serve
