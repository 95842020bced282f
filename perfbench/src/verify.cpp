// The replica check: a sampled reply must equal, byte for byte, what an
// in-process serve::Server built from the same scenario answers for the
// same request bytes at the reply's epoch.
#include <cstdlib>
#include <cstring>

#include "bench.hpp"
#include "net/http.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace {
// Every response payload starts version, tag, then the u64 epoch.
constexpr std::size_t kEpochOffset = 2;
constexpr std::size_t kEpochBytes = 8;
}  // namespace

std::string expected_reply(fa::serve::Server& server, const Item& item,
                           bool http) {
  if (!http) {
    const auto req = fa::serve::wire::decode_request(
        std::string_view(item.bytes).substr(4));
    if (!req.ok()) return {};
    return fa::serve::wire::encode(server.handle(req.value()));
  }
  // The same parse and routing fa_served runs on these bytes.
  fa::net::HttpAssembler assembler;
  assembler.feed(item.bytes);
  auto parsed = assembler.next();
  if (!parsed.ok() || !parsed.value()) return {};
  const fa::net::HttpRoute route = fa::net::route_http(*parsed.value());
  switch (route.kind) {
    case fa::net::HttpRoute::Kind::kQuery:
      return fa::io::to_json(
          fa::net::response_json(server.handle(route.request)));
    case fa::net::HttpRoute::Kind::kScenario:
      return fa::io::to_json(fa::net::scenario_camp_fire(server));
    default:
      return {};
  }
}

bool replies_match(std::string_view expected, std::string_view got, bool http,
                   bool ignore_epoch) {
  if (expected.empty() || expected.size() != got.size()) return false;
  if (!ignore_epoch || http) return expected == got;
  if (got.size() < kEpochOffset + kEpochBytes) return false;
  std::string a(expected), b(got);
  std::memset(a.data() + kEpochOffset, 0, kEpochBytes);
  std::memset(b.data() + kEpochOffset, 0, kEpochBytes);
  return a == b;
}

std::uint64_t reply_epoch(std::string_view reply, bool http) {
  if (http) {
    const std::size_t at = reply.find("\"epoch\":");
    if (at == std::string_view::npos) return 0;
    return std::strtoull(std::string(reply.substr(at + 8, 24)).c_str(),
                         nullptr, 10);
  }
  if (reply.size() < kEpochOffset + kEpochBytes) return 0;
  std::uint64_t e = 0;
  for (std::size_t i = 0; i < kEpochBytes; ++i) {
    e |= std::uint64_t(static_cast<unsigned char>(reply[kEpochOffset + i]))
         << (8 * i);
  }
  return e;
}

FeedDriver::FeedDriver(fa::serve::Server& server, std::uint64_t seed)
    : server_(server), root_(server.snapshots().acquire()) {
  fa::delta::FeedOptions options;
  options.seed = seed;
  gen_ = std::make_unique<fa::delta::FeedGenerator>(root_->world(), options);
}

FeedDriver::~FeedDriver() = default;

FeedDriver::Step FeedDriver::tick() {
  Step s;
  const double t0 = now_s();
  std::vector<fa::delta::FeedEvent> raw = gen_->tick();
  const double t1 = now_s();
  auto cleaned = ingestor_.ingest(std::move(raw));
  const double t2 = now_s();
  s.tick_ms = (t1 - t0) * 1e3;
  s.ingest_ms = (t2 - t1) * 1e3;
  if (!cleaned.ok() || cleaned.value().empty()) return s;
  fa::delta::ApplyStats stats;
  s.published = server_.apply_delta(cleaned.value(), &stats).ok();
  s.apply_ms = (now_s() - t2) * 1e3;
  s.dirty = stats.dirty_transceivers;
  return s;
}

FeedDriver::Step FeedDriver::next_epoch() {
  Step total;
  for (int guard = 0; guard < 64 && !total.published; ++guard) {
    const Step s = tick();
    total.published = s.published;
    total.tick_ms += s.tick_ms;
    total.ingest_ms += s.ingest_ms;
    total.apply_ms += s.apply_ms;
    total.dirty += s.dirty;
  }
  return total;
}

}  // namespace perfbench
