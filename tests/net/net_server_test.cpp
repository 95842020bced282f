// End-to-end suite for the networked front door: a real NetServer on an
// ephemeral loopback port, driven by the binary Client and by raw
// sockets speaking HTTP. Covers the admission-control contract (shed,
// quota, drain), response/equivalence guarantees against the in-process
// Server::handle, epoch purity across a concurrent rebuild, and the
// malformed-input and slow-client fault seams.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "serve/wire.hpp"
#include "../serve/serve_test_util.hpp"

namespace fa::net {
namespace {

using serve::Request;
using serve::Response;
using serve::testing::small_config;
using serve::testing::tiny_config;

constexpr const char* kLoop = "127.0.0.1";

// Counter-asserting tests force instrumentation on (and restore, so the
// suite passes under any FA_OBS setting).
struct ObsOn {
  bool was = obs::enabled();
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was); }
};

Request to_request(const serve::testing::AnyQuery& q) {
  return std::visit([](const auto& query) { return Request{query}; }, q);
}

// One shared backend per suite run; world builds dominate runtime.
serve::Server& shared_server() {
  static serve::Server* server = new serve::Server(small_config());
  return *server;
}

// Raw blocking socket for driving the HTTP shim (and for byte-level
// misbehavior the Client refuses to commit).
class RawSock {
 public:
  explicit RawSock(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~RawSock() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void send_all(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }
  // Reads until the peer closes or `stop_at` is seen (empty = until
  // close / timeout).
  std::string read_response(std::string_view stop_at = "") {
    std::string out;
    char buf[8192];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
      if (!stop_at.empty() && out.find(stop_at) != std::string::npos) break;
    }
    return out;
  }

  // Reads exactly `n` pipelined HTTP/1.1 responses, split on their
  // Content-Length.
  std::vector<std::string> read_http(std::size_t n) {
    std::vector<std::string> replies;
    std::string buf;
    char chunk[8192];
    while (replies.size() < n) {
      const std::size_t head_end = buf.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t cl = buf.find("Content-Length: ");
        const std::size_t body = head_end + 4;
        const std::size_t total =
            body + std::stoul(buf.substr(cl + 16, head_end - cl - 16));
        if (buf.size() >= total) {
          replies.push_back(buf.substr(0, total));
          buf.erase(0, total);
          continue;
        }
      }
      const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
      if (r <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(r));
    }
    return replies;
  }

  // Reads exactly `n` framed payloads through an assembler.
  std::vector<std::string> read_frames(std::size_t n) {
    std::vector<std::string> payloads;
    FrameAssembler fa;
    char buf[8192];
    while (payloads.size() < n) {
      const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
      if (r <= 0) break;
      fa.feed(std::string_view(buf, static_cast<std::size_t>(r)));
      for (;;) {
        auto next = fa.next();
        if (!next.ok() || !next.value().has_value()) break;
        payloads.push_back(std::move(*next.value()));
      }
    }
    return payloads;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

// The serve::Request an HTTP request routes to.
Request routed(const std::string& raw) {
  HttpAssembler assembler;
  assembler.feed(raw);
  auto next = assembler.next();
  EXPECT_TRUE(next.ok() && next.value().has_value()) << raw;
  const HttpRoute route = route_http(*next.value());
  EXPECT_EQ(route.kind, HttpRoute::Kind::kQuery) << raw;
  return route.request;
}

std::string http_get(std::uint16_t port, const std::string& target) {
  RawSock s(port);
  EXPECT_TRUE(s.connected());
  s.send_all("GET " + target + " HTTP/1.1\r\nConnection: close\r\n\r\n");
  return s.read_response();
}

TEST(NetServer, BinaryProtocolMatchesInProcessHandle) {
  serve::Server& backend = shared_server();
  NetServerOptions opts;
  opts.workers = 2;
  NetServer net(backend, opts);
  auto client = Client::connect(kLoop, net.port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Client c = std::move(client).take();

  for (const auto& any : serve::testing::make_stream(60, 3, 24)) {
    const Request req = to_request(any);
    auto reply = c.call(req);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    ASSERT_TRUE(reply.value().ok());
    // Byte-identical to the in-process unified surface.
    EXPECT_EQ(serve::wire::encode(*reply.value().response),
              serve::wire::encode(backend.handle(req)));
  }
  net.shutdown();
}

TEST(NetServer, PipelinedRequestsAnswerInOrder) {
  serve::Server& backend = shared_server();
  NetServerOptions opts;
  opts.workers = 4;  // several workers racing on one connection
  NetServer net(backend, opts);

  // Write a burst of frames before reading anything; replies must come
  // back in request order (the protocol's only correlation).
  const auto stream = serve::testing::make_stream(40, 9, 16);
  std::string burst;
  std::vector<Request> reqs;
  for (const auto& any : stream) {
    reqs.push_back(to_request(any));
    burst += frame(serve::wire::encode(reqs.back()));
  }
  RawSock s(net.port());
  ASSERT_TRUE(s.connected());
  s.send_all(burst);

  const std::vector<std::string> replies = s.read_frames(reqs.size());
  ASSERT_EQ(replies.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // Reply i is the answer to request i, byte for byte.
    EXPECT_EQ(replies[i], serve::wire::encode(backend.handle(reqs[i])))
        << "position " << i;
  }
  net.shutdown();
}

TEST(NetServer, OrderHoldsAcrossHitsMissesAndRejectsOverBinary) {
  serve::Server& backend = shared_server();
  NetServerOptions opts;
  opts.workers = 4;  // ensemble misses race each other and the inline replies
  NetServer net(backend, opts);

  // Two hits: warmed over the socket, because a hit is keyed by codec.
  const Request hit_a{serve::ProviderExposureQuery{cellnet::Provider::kSprint}};
  const Request hit_b{serve::PointRiskQuery{{-104.9, 39.7}, 20e3}};
  {
    auto client = Client::connect(kLoop, net.port());
    ASSERT_TRUE(client.ok());
    Client c = std::move(client).take();
    ASSERT_TRUE(c.call(hit_a).ok());
    ASSERT_TRUE(c.call(hit_b).ok());
  }
  // Cold keys no other test (or earlier --gtest_repeat run) asks: a
  // top-K miss is answered on the IO thread, an ensemble miss takes a
  // worker.
  static std::atomic<int> runs{0};
  const int run = runs.fetch_add(1);
  const double lat = 34.1 + run * 1e-3;
  const auto miss = [lat](int i) {
    return Request{
        serve::TopKSitesQuery{{-118.5 + i * 0.013, lat}, 2.5e5, 64}};
  };
  const auto pool_miss = [run](int i) {
    return Request{serve::EnsembleSummaryQuery{
        4, 9'000'000 + static_cast<std::uint64_t>(run * 100 + i)}};
  };
  std::string malformed = serve::wire::encode(hit_a);
  malformed[1] = 0x5A;  // well framed, unknown tag: BAD_REQUEST

  std::vector<std::optional<Request>> sent;  // nullopt = malformed
  std::string burst;
  const auto push = [&](std::optional<Request> r) {
    burst += frame(r ? serve::wire::encode(*r) : malformed);
    sent.push_back(std::move(r));
  };
  for (int i = 0; i < 6; ++i) {
    push(miss(i));
    push(hit_a);
    if (i % 2 == 0) push(std::nullopt);
    push(pool_miss(i));
    push(hit_b);
  }
  const NetServerStats before = net.stats();
  RawSock s(net.port());
  ASSERT_TRUE(s.connected());
  s.send_all(burst);
  const std::vector<std::string> replies = s.read_frames(sent.size());
  ASSERT_EQ(replies.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (sent[i]) {
      EXPECT_EQ(replies[i], serve::wire::encode(backend.handle(*sent[i])))
          << "position " << i;
    } else {
      fault::Result<WireError> err = decode_error(replies[i]);
      ASSERT_TRUE(err.ok()) << "position " << i;
      EXPECT_EQ(err.value().code, ErrorCode::kBadRequest);
    }
  }
  const NetServerStats after = net.stats();
  EXPECT_EQ(after.inline_replies - before.inline_replies, 18u)
      << "every hit and top-K miss is answered on the IO thread";
  EXPECT_EQ(after.pool_replies - before.pool_replies, 6u)
      << "only the ensemble misses reach the pool";
  net.shutdown();
}

TEST(NetServer, OrderHoldsAcrossHitsMissesAndRejectsOverHttp) {
  serve::Server& backend = shared_server();
  NetServerOptions opts;
  opts.workers = 4;
  NetServer net(backend, opts);

  const std::string hit_a = "GET /providers/regional HTTP/1.1\r\n\r\n";
  const std::string risk_body = "{\"lon\":-111.9,\"lat\":40.76}";
  const std::string hit_b = "POST /risk HTTP/1.1\r\nContent-Length: " +
                            std::to_string(risk_body.size()) + "\r\n\r\n" +
                            risk_body;
  {
    RawSock warm(net.port());
    ASSERT_TRUE(warm.connected());
    warm.send_all(hit_a + hit_b);
    ASSERT_EQ(warm.read_http(2).size(), 2u);
  }
  static std::atomic<int> runs{0};
  const int run = runs.fetch_add(1);
  const std::string lat = std::to_string(33.9 + run * 1e-3);
  const auto miss = [&lat](int i) {
    return "GET /fires?lon=" + std::to_string(-117.2 + i * 0.017) +
           "&lat=" + lat + "&radius_m=250000&k=64 HTTP/1.1\r\n\r\n";
  };
  const auto pool_miss = [run](int i) {
    return "GET /ensemble/summary?members=4&seed=" +
           std::to_string(9'500'000 + run * 100 + i) + " HTTP/1.1\r\n\r\n";
  };
  const std::string not_found = "GET /nope HTTP/1.1\r\n\r\n";

  std::vector<std::string> sent;
  for (int i = 0; i < 6; ++i) {
    sent.push_back(miss(i));
    sent.push_back(hit_a);
    if (i % 2 == 0) sent.push_back(not_found);
    sent.push_back(pool_miss(i));
    sent.push_back(hit_b);
  }
  std::string burst;
  for (const std::string& r : sent) burst += r;
  const NetServerStats before = net.stats();
  RawSock s(net.port());
  ASSERT_TRUE(s.connected());
  s.send_all(burst);
  const std::vector<std::string> replies = s.read_http(sent.size());
  ASSERT_EQ(replies.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const std::string want =
        sent[i] == not_found
            ? http_response(404,
                            http_error_body(ErrorCode::kBadRequest,
                                            "no such endpoint"),
                            true)
            : http_response(
                  200, serve::json_body(backend.handle(routed(sent[i]))),
                  true);
    EXPECT_EQ(replies[i], want) << "position " << i;
  }
  const NetServerStats after = net.stats();
  EXPECT_EQ(after.inline_replies - before.inline_replies, 18u);
  EXPECT_EQ(after.pool_replies - before.pool_replies, 6u);
  net.shutdown();
}

TEST(NetServer, ServingMissesNeverEnterThePool) {
  // A dedicated backend with a cold cache: every request below is a
  // miss, even the provider queries, whose keys are one per provider.
  serve::Server backend(tiny_config());
  NetServerOptions opts;
  opts.workers = 2;
  NetServer net(backend, opts);

  // Binary: one miss of each serving shape, pipelined.
  const std::vector<Request> binary = {
      Request{serve::PointRiskQuery{{-112.07, 33.45}, 15e3}},
      Request{serve::BBoxAggregateQuery{{-112.5, 33.0, -111.0, 34.2}}},
      Request{serve::ProviderExposureQuery{cellnet::Provider::kTMobile}},
      Request{serve::TopKSitesQuery{{-112.3, 33.6}, 9e4, 12}}};
  std::string burst;
  for (const Request& r : binary) burst += frame(serve::wire::encode(r));
  RawSock bin(net.port());
  ASSERT_TRUE(bin.connected());
  bin.send_all(burst);
  const std::vector<std::string> frames = bin.read_frames(binary.size());
  ASSERT_EQ(frames.size(), binary.size());
  for (std::size_t i = 0; i < binary.size(); ++i) {
    EXPECT_EQ(frames[i], serve::wire::encode(backend.handle(binary[i])))
        << "binary position " << i;
  }

  // HTTP: the same four shapes, a cold key each in the JSON codec.
  const std::string risk_body = "{\"lon\":-111.93,\"lat\":33.42}";
  const std::vector<std::string> http = {
      "POST /risk HTTP/1.1\r\nContent-Length: " +
          std::to_string(risk_body.size()) + "\r\n\r\n" + risk_body,
      "GET /assets?bbox=-113,32.5,-111.5,34 HTTP/1.1\r\n\r\n",
      "GET /providers/verizon HTTP/1.1\r\n\r\n",
      "GET /fires?lon=-111.8&lat=33.5&radius_m=120000&k=7 HTTP/1.1\r\n\r\n"};
  std::string http_burst;
  for (const std::string& r : http) http_burst += r;
  RawSock web(net.port());
  ASSERT_TRUE(web.connected());
  web.send_all(http_burst);
  const std::vector<std::string> pages = web.read_http(http.size());
  ASSERT_EQ(pages.size(), http.size());
  for (std::size_t i = 0; i < http.size(); ++i) {
    EXPECT_EQ(pages[i],
              http_response(
                  200, serve::json_body(backend.handle(routed(http[i]))), true))
        << "http position " << i;
  }
  EXPECT_EQ(backend.cache_stats().hits, 0u) << "the socket requests missed";
  EXPECT_EQ(net.stats().inline_replies, 8u);
  EXPECT_EQ(net.stats().pool_replies, 0u)
      << "a point, bbox, provider or top-K miss waited for a worker";

  // An ensemble miss is the pool's work.
  const Request ensemble{serve::EnsembleSummaryQuery{4, 11}};
  bin.send_all(frame(serve::wire::encode(ensemble)));
  const std::vector<std::string> last = bin.read_frames(1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0], serve::wire::encode(backend.handle(ensemble)));
  EXPECT_EQ(net.stats().inline_replies, 8u);
  EXPECT_EQ(net.stats().pool_replies, 1u);
  net.shutdown();
}

TEST(NetServer, HitsAreAnsweredWhileThePoolIsSaturated) {
  ObsOn obs_on;
  obs::ScopedRegistry scoped;
  serve::Server backend(tiny_config());  // counts into the scoped registry
  NetServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  NetServer net(backend, opts);
  obs::Registry& reg = scoped.registry();
  const auto wait_for = [](auto done) {
    for (int i = 0; i < 2000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };

  auto client = Client::connect(kLoop, net.port());
  ASSERT_TRUE(client.ok());
  Client c = std::move(client).take();
  const Request hit{serve::ProviderExposureQuery{cellnet::Provider::kAtt}};
  ASSERT_TRUE(c.call(hit).ok());  // warms the binary entry

  // Slow pool work: 1024-member fire-season ensembles (~0.7 s each on
  // this world in a release build), distinct seeds.
  const auto slow = [](std::uint64_t seed) {
    return frame(serve::wire::encode(
        Request{serve::EnsembleSummaryQuery{1024, seed}}));
  };
  RawSock hog(net.port());
  ASSERT_TRUE(hog.connected());
  hog.send_all(slow(1));
  // The one worker has started it...
  ASSERT_TRUE(wait_for([&] {
    return reg.counter(obs::metrics::kServeQueries).value() == 2;
  }));
  // ...and two more fill the queue (the warming miss was answered on
  // the IO thread, so these are the second and third enqueues).
  hog.send_all(slow(2) + slow(3));
  ASSERT_TRUE(wait_for([&] {
    return reg.histogram(obs::metrics::kNetQueueDepth).count() == 3;
  }));

  // The pool is saturated: a hit and a point miss are still answered,
  // an ensemble miss is shed.
  auto answered = c.call(hit);
  ASSERT_TRUE(answered.ok()) << answered.status().to_string();
  ASSERT_TRUE(answered.value().ok())
      << "a hit was shed: "
      << error_code_name(answered.value().error->code);
  EXPECT_EQ(serve::wire::encode(*answered.value().response),
            serve::wire::encode(backend.handle(hit)));
  const Request point_miss{serve::PointRiskQuery{{-100.0, 35.0}, 0.0}};
  auto evaluated = c.call(point_miss);
  ASSERT_TRUE(evaluated.ok()) << evaluated.status().to_string();
  ASSERT_TRUE(evaluated.value().ok())
      << "a point miss was shed: "
      << error_code_name(evaluated.value().error->code);
  EXPECT_EQ(serve::wire::encode(*evaluated.value().response),
            serve::wire::encode(backend.handle(point_miss)));
  auto shed = c.call(Request{serve::EnsembleSummaryQuery{8, 4}});
  ASSERT_TRUE(shed.ok());
  ASSERT_FALSE(shed.value().ok());
  EXPECT_EQ(shed.value().error->code, ErrorCode::kBusy);
  EXPECT_EQ(net.stats().inline_replies, 3u);
  net.shutdown(/*drain=*/false);  // the worker finishes only its first
}

// N requests over sockets, binary and HTTP, with repeats: the served
// bytes, and serve.cache.hits + serve.cache.misses == serve.queries == N.
std::vector<std::string> exact_count_run(std::uint64_t* queries,
                                         std::uint64_t* lookups) {
  ObsOn obs_on;
  obs::ScopedRegistry scoped;
  serve::Server backend(tiny_config());
  NetServerOptions opts;
  opts.workers = 2;
  NetServer net(backend, opts);
  std::vector<std::string> served;

  const auto stream = serve::testing::make_stream(60, 41, 12);
  std::string burst;
  for (const auto& any : stream) burst += frame(serve::wire::encode(to_request(any)));
  RawSock bin(net.port());
  EXPECT_TRUE(bin.connected());
  bin.send_all(burst);
  for (std::string& r : bin.read_frames(stream.size())) served.push_back(std::move(r));

  const std::vector<std::string> gets = {
      "GET /providers/att HTTP/1.1\r\n\r\n",
      "GET /assets?bbox=-125,32,-114,42 HTTP/1.1\r\n\r\n",
      "GET /fires?lon=-121.4&lat=39.8&k=5 HTTP/1.1\r\n\r\n"};
  std::string http_burst;
  for (int i = 0; i < 20; ++i) http_burst += gets[static_cast<std::size_t>(i) % 3];
  RawSock http(net.port());
  EXPECT_TRUE(http.connected());
  http.send_all(http_burst);
  for (std::string& r : http.read_http(20)) served.push_back(std::move(r));
  net.shutdown();

  obs::Registry& reg = scoped.registry();
  *queries = reg.counter(obs::metrics::kServeQueries).value();
  *lookups = reg.counter(obs::metrics::kServeCacheHits).value() +
             reg.counter(obs::metrics::kServeCacheMisses).value();
  const serve::ShardedCache::Stats stats = backend.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, *lookups);
  return served;
}

TEST(NetServer, EverySocketRequestIsCountedOnce) {
  std::uint64_t queries = 0, lookups = 0;
  const std::vector<std::string> clean = exact_count_run(&queries, &lookups);
  ASSERT_EQ(clean.size(), 80u);
  EXPECT_EQ(queries, 80u);
  EXPECT_EQ(lookups, 80u);

  // Corrupt cache hits recompute: the counts stay exact and the bytes
  // do not change.
  fault::ScopedInjector inject(
      fault::Injector::parse("seed=3,serve.cache=0.5").value());
  const std::vector<std::string> armed = exact_count_run(&queries, &lookups);
  EXPECT_EQ(queries, 80u);
  EXPECT_EQ(lookups, 80u);
  EXPECT_EQ(armed, clean);
}

TEST(NetServer, ShedsUnderSaturationWithBusyFrames) {
  // The coarse world keeps each ensemble, and so the test, short.
  serve::Server backend(tiny_config());
  ObsOn obs_on;
  obs::ScopedRegistry scoped;
  NetServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;  // tiny queue: saturation is easy
  opts.registry = &scoped.registry();
  NetServer net(backend, opts);

  // A distinct small ensemble per call, also across --gtest_repeat runs
  // in one process: every call is pool work (a serving query would be
  // answered on the IO thread, never shed), and a miss, so the load
  // saturates the pool instead of being answered from the cache.
  static std::atomic<int> runs{0};
  const int run = runs.fetch_add(1);
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> busy{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::connect(kLoop, net.port());
      if (!client.ok()) return;
      Client c = std::move(client).take();
      for (int i = 0; i < 50; ++i) {
        const Request req{serve::EnsembleSummaryQuery{
            1, static_cast<std::uint64_t>((run * 8 + t) * 50 + i + 1)}};
        auto reply = c.call(req);
        if (!reply.ok()) return;
        if (reply.value().ok()) {
          ok.fetch_add(1);
        } else if (reply.value().error->code == ErrorCode::kBusy) {
          busy.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Under 8 hammering clients vs 1 worker and a 2-deep queue, both
  // outcomes must occur, and every reject was answered (cheaply), not
  // dropped.
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(busy.load(), 0u);
  EXPECT_EQ(scoped.registry()
                .counter(obs::metrics::kNetSheds)
                .value(),
            busy.load());
  net.shutdown();
}

TEST(NetServer, PerConnectionQuotaRateLimits) {
  serve::Server& backend = shared_server();
  ObsOn obs_on;
  obs::ScopedRegistry scoped;
  NetServerOptions opts;
  opts.quota_qps = 1.0;  // ~1 request/second after the burst
  opts.quota_burst = 3.0;
  opts.registry = &scoped.registry();
  NetServer net(backend, opts);

  auto client = Client::connect(kLoop, net.port());
  ASSERT_TRUE(client.ok());
  Client c = std::move(client).take();
  const Request req{serve::ProviderExposureQuery{}};
  int limited = 0;
  for (int i = 0; i < 10; ++i) {
    auto reply = c.call(req);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    if (!reply.value().ok() &&
        reply.value().error->code == ErrorCode::kRateLimited) {
      limited++;
    }
  }
  EXPECT_GT(limited, 0);
  EXPECT_EQ(scoped.registry()
                .counter(obs::metrics::kNetRateLimited)
                .value(),
            static_cast<std::uint64_t>(limited));
  net.shutdown();
}

TEST(NetServer, MalformedFrameRejectedConnectionSurvives) {
  serve::Server& backend = shared_server();
  NetServer net(backend, {});
  RawSock s(net.port());
  ASSERT_TRUE(s.connected());

  // A well-framed payload with a garbage tag: BAD_REQUEST, then the
  // same connection keeps serving.
  std::string bad_payload = serve::wire::encode(
      Request{serve::ProviderExposureQuery{}});
  bad_payload[1] = 0x5A;
  const Request good{serve::ProviderExposureQuery{}};
  s.send_all(frame(bad_payload) + frame(serve::wire::encode(good)));

  const std::vector<std::string> replies = s.read_frames(2);
  ASSERT_EQ(replies.size(), 2u);
  fault::Result<WireError> err = decode_error(replies[0]);
  ASSERT_TRUE(err.ok()) << err.status().to_string();
  EXPECT_EQ(err.value().code, ErrorCode::kBadRequest);
  EXPECT_EQ(replies[1], serve::wire::encode(backend.handle(good)));
  net.shutdown();
}

TEST(NetServer, OversizedFrameClosesConnection) {
  serve::Server& backend = shared_server();
  NetServer net(backend, {});
  RawSock s(net.port());
  ASSERT_TRUE(s.connected());
  std::string prefix;
  serve::wire::detail::put_u32(
      prefix, static_cast<std::uint32_t>(kMaxFramePayload + 1));
  s.send_all(prefix);
  const std::string reply = s.read_response();  // until server closes
  // The last thing on the stream is a TOO_LARGE error frame.
  ASSERT_GE(reply.size(), 4u);
  fault::Result<WireError> err =
      decode_error(std::string_view(reply).substr(4));
  ASSERT_TRUE(err.ok()) << err.status().to_string();
  EXPECT_EQ(err.value().code, ErrorCode::kTooLarge);
  net.shutdown();
}

TEST(NetServer, HttpEndpointsAnswer) {
  serve::Server& backend = shared_server();
  NetServer net(backend, {});
  const std::uint16_t port = net.port();

  EXPECT_NE(http_get(port, "/health").find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(http_get(port, "/providers/verizon").find("\"provider\":\"verizon\""),
            std::string::npos);
  EXPECT_NE(http_get(port, "/fires?lon=-121.4&lat=39.8&k=5")
                .find("\"sites\""),
            std::string::npos);
  EXPECT_NE(http_get(port, "/assets?bbox=-125,32,-114,42")
                .find("\"transceivers\""),
            std::string::npos);
  EXPECT_NE(http_get(port, "/scenario/camp-fire-2018").find("Camp Fire"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/nope").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(http_get(port, "/fires?lon=bogus").find("HTTP/1.1 400"),
            std::string::npos);

  // POST /risk equals the in-process point query.
  RawSock s(port);
  ASSERT_TRUE(s.connected());
  const std::string body = "{\"lon\":-121.437,\"lat\":39.810}";
  s.send_all("POST /risk HTTP/1.1\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
             body);
  const std::string reply = s.read_response();
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(reply.find("\"whp\""), std::string::npos);
  net.shutdown();
}

TEST(NetServer, GracefulDrainRejectsNewFinishesAdmitted) {
  serve::Server& backend = shared_server();
  ObsOn obs_on;
  obs::ScopedRegistry scoped;
  NetServerOptions opts;
  opts.workers = 2;
  opts.registry = &scoped.registry();
  NetServer net(backend, opts);

  auto client = Client::connect(kLoop, net.port());
  ASSERT_TRUE(client.ok());
  Client c = std::move(client).take();
  // Prove the connection works, then drain.
  auto before = c.call(Request{serve::ProviderExposureQuery{}});
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().ok());

  std::thread drainer([&] { net.shutdown(/*drain=*/true); });
  // Requests racing the drain get SHUTTING_DOWN (or a closed socket
  // once teardown completes) — never a hang, never a wrong answer.
  for (int i = 0; i < 20; ++i) {
    auto reply = c.call(Request{serve::ProviderExposureQuery{}});
    if (!reply.ok()) break;  // connection closed by teardown
    if (!reply.value().ok()) {
      EXPECT_EQ(reply.value().error->code, ErrorCode::kShuttingDown);
    }
  }
  drainer.join();
  EXPECT_TRUE(net.draining());
  // New connections are refused or immediately closed after shutdown.
  auto after = Client::connect(kLoop, net.port(), 500);
  if (after.ok()) {
    Client c2 = std::move(after).take();
    auto r = c2.call(Request{serve::ProviderExposureQuery{}});
    EXPECT_FALSE(r.ok() && r.value().ok());
  }
}

TEST(NetServer, EpochPureAcrossConcurrentRebuild) {
  // A dedicated backend: this test swaps snapshots underneath traffic.
  serve::Server backend(tiny_config());
  NetServerOptions opts;
  opts.workers = 2;
  NetServer net(backend, opts);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  std::atomic<bool> epoch_ok{true};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      auto client = Client::connect(kLoop, net.port());
      if (!client.ok()) return;
      Client c = std::move(client).take();
      const auto stream = serve::testing::make_stream(400, 100 + t, 20);
      for (const auto& any : stream) {
        if (done.load()) break;
        auto reply = c.call(to_request(any));
        if (!reply.ok() || !reply.value().ok()) continue;
        const std::uint64_t epoch = std::visit(
            [](const auto& r) { return r.epoch; }, *reply.value().response);
        if (epoch < 1 || epoch > 3) epoch_ok.store(false);
        answered.fetch_add(1);
      }
    });
  }
  // Two rebuilds while the clients hammer.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(backend.rebuild(tiny_config(500 + i)).ok());
  }
  done.store(true);
  for (auto& t : clients) t.join();
  EXPECT_TRUE(epoch_ok.load());
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(backend.epoch(), 3u);
  net.shutdown();
}

TEST(NetServer, SlowClientFaultTripsOutboxCap) {
  serve::Server& backend = shared_server();
  ObsOn obs_on;
  obs::ScopedRegistry scoped;
  // Every flush round stalls; the outbox can only grow until the cap
  // drops the connection.
  fault::ScopedInjector inject(
      fault::Injector::parse("seed=7,net.conn.slow=1.0")
          .value());
  NetServerOptions opts;
  opts.max_outbox_bytes = 256;  // a single top-k response overflows
  opts.registry = &scoped.registry();
  NetServer net(backend, opts);

  auto client = Client::connect(kLoop, net.port());
  ASSERT_TRUE(client.ok());
  Client c = std::move(client).take();
  auto reply = c.call(Request{serve::TopKSitesQuery{{-120, 40}, 8e4, 64}});
  // The reply never arrives: the server dropped us as a slow consumer.
  EXPECT_FALSE(reply.ok() && reply.value().ok());
  // Wait for the IO thread to record the drop.
  for (int i = 0; i < 100; ++i) {
    if (scoped.registry()
            .counter(obs::metrics::kNetConnectionsDroppedSlow)
            .value() > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(scoped.registry()
                .counter(obs::metrics::kNetConnectionsDroppedSlow)
                .value(),
            0u);
  net.shutdown();
}

TEST(NetServer, ReadTimeoutReapsMidFrameStall) {
  serve::Server& backend = shared_server();
  ObsOn obs_on;
  obs::ScopedRegistry scoped;
  NetServerOptions opts;
  opts.read_timeout_ms = 150;
  opts.registry = &scoped.registry();
  NetServer net(backend, opts);

  RawSock s(net.port());
  ASSERT_TRUE(s.connected());
  // Open a frame and stall: length prefix says 100 bytes, send 4.
  std::string partial;
  serve::wire::detail::put_u32(partial, 100);
  partial += "abcd";
  s.send_all(partial);
  const std::string rest = s.read_response();  // until server closes us
  EXPECT_TRUE(rest.empty());
  EXPECT_GT(scoped.registry().counter(obs::metrics::kNetTimeouts).value(), 0u);
  net.shutdown();
}

TEST(NetServer, WriteStallTimeoutReapsStalledOutbox) {
  serve::Server& backend = shared_server();
  ObsOn obs_on;
  obs::ScopedRegistry scoped;
  // Every flush round stalls but the outbox stays far below the cap, so
  // the overflow guard never fires and EPOLLOUT never trips: only the
  // write-stall timeout can reap the connection.
  fault::ScopedInjector inject(
      fault::Injector::parse("seed=7,net.conn.slow=1.0").value());
  NetServerOptions opts;
  opts.write_timeout_ms = 150;
  opts.registry = &scoped.registry();
  NetServer net(backend, opts);

  auto client = Client::connect(kLoop, net.port());
  ASSERT_TRUE(client.ok());
  Client c = std::move(client).take();
  auto reply = c.call(Request{serve::TopKSitesQuery{{-120, 40}, 8e4, 4}});
  // The reply never arrives: the sweep closed the stalled connection.
  EXPECT_FALSE(reply.ok() && reply.value().ok());
  for (int i = 0; i < 100; ++i) {
    if (scoped.registry().counter(obs::metrics::kNetTimeouts).value() > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(scoped.registry().counter(obs::metrics::kNetTimeouts).value(), 0u);
  net.shutdown();
}

TEST(NetServer, WriteStallVerdictIgnoresProgressStampedAfterTheSweepClock) {
  // The sweep reads `now` before it locks a connection; a worker that
  // stamps outbox progress in between leaves progress > now. That is
  // fresh progress: an unsigned `now - progress` would wrap to ~2^64 ns
  // and reap a healthy connection as write-stalled.
  constexpr std::uint64_t kNow = 5'000'000'000ull;
  for (const std::uint64_t ahead : {1ull, 1'000ull, 2'000'000'000ull}) {
    EXPECT_FALSE(write_stalled(kNow, kNow + ahead, 150)) << ahead;
    EXPECT_FALSE(write_stalled(kNow, kNow + ahead, 0)) << ahead;
  }
  EXPECT_FALSE(write_stalled(kNow, kNow, 0));
  EXPECT_FALSE(write_stalled(kNow, kNow - 150'000'000ull, 150));
  EXPECT_TRUE(write_stalled(kNow, kNow - 150'000'001ull, 150));
  EXPECT_TRUE(write_stalled(kNow, 0, 150));
}

TEST(NetServer, RejectsSignedOrPaddedContentLength) {
  serve::Server& backend = shared_server();
  NetServer net(backend, {});
  for (const char* bad : {"+5", "-5", "5x", "99999999999999999999"}) {
    RawSock s(net.port());
    ASSERT_TRUE(s.connected());
    s.send_all(std::string("POST /risk HTTP/1.1\r\nContent-Length: ") + bad +
               "\r\nConnection: close\r\n\r\n");
    EXPECT_NE(s.read_response().find("HTTP/1.1 400"), std::string::npos)
        << "Content-Length '" << bad << "' was not rejected";
  }
  net.shutdown();
}

}  // namespace
}  // namespace fa::net
