// fa::net — the networked serving front door.
//
// A NetServer turns a serve::Server into something clients can actually
// reach: a nonblocking TCP listener plus one epoll IO thread and a
// small worker pool, speaking the length-prefixed binary protocol
// (net/protocol.hpp) and the minimal HTTP/1.1 mapping (net/http.hpp) on
// the same port (the first bytes of a connection pick the protocol:
// an HTTP method keyword selects the shim, anything else is framing).
//
// The design contract is *robustness under overload*, not just
// throughput:
//
//   * Admission control. Every parsed request passes a per-connection
//     token bucket (quota_qps/quota_burst; 0 disables) and then a
//     bounded in-flight queue. A full queue sheds the request with a
//     cheap BUSY frame (HTTP 503) encoded without touching the serving
//     stack — overload can make clients retry, it can never stall the
//     snapshot hot-swap path or grow memory without bound.
//   * Slow clients. Responses accumulate in a per-connection outbox
//     flushed by the IO thread; an outbox past max_outbox_bytes means
//     the peer stopped reading, and the connection is dropped
//     (net.connections.dropped_slow) instead of buffering forever.
//   * Timeouts. A connection idle past idle_timeout_ms, stalled
//     mid-frame past read_timeout_ms, or making no send progress on a
//     non-empty outbox past write_timeout_ms (a peer that vanished
//     without a FIN never triggers EPOLLOUT), is closed (net.timeouts).
//   * Graceful drain. shutdown(drain=true) stops accepting, answers
//     new requests with SHUTTING_DOWN, lets admitted work finish and
//     flush (bounded by drain_timeout_ms), then joins. Safe while a
//     rebuild() is in flight — the serve layer guarantees epoch-pure
//     answers; the net layer just keeps admitting or shedding.
//
// Threading: one IO thread owns every socket and all parser state;
// workers only evaluate admitted requests through Server::handle (the
// unified surface) and append encoded bytes to the connection outbox
// under its mutex. Nothing here blocks the IO thread on the serving
// stack, and nothing in the serving stack ever waits on a socket.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/obs.hpp"
#include "serve/server.hpp"

namespace fa::net {

struct NetServerOptions {
  // 0 binds an ephemeral port (tests/bench); port() reports the result.
  std::uint16_t port = 0;
  // Loopback-only by default; set to false to bind 0.0.0.0.
  bool loopback_only = true;
  int workers = 2;                    // clamped to >= 1
  std::size_t queue_capacity = 256;   // bounded admission queue
  std::size_t max_connections = 1024;
  // Per-connection token bucket; 0 disables quota enforcement.
  double quota_qps = 0.0;
  double quota_burst = 32.0;
  std::uint64_t idle_timeout_ms = 30'000;
  std::uint64_t read_timeout_ms = 10'000;
  std::uint64_t write_timeout_ms = 10'000;
  std::uint64_t drain_timeout_ms = 5'000;
  std::size_t max_outbox_bytes = 1 << 20;
  // Route point queries through the flat-combining batcher so
  // concurrent network clients coalesce into vectorized rounds.
  bool batch_point_queries = true;
  // Registry for net.* instruments; null = the backend server's.
  obs::Registry* registry = nullptr;
};

// The timeout sweep's write-stall verdict: a non-empty outbox whose last
// send progress (`progress_ns`) is more than `timeout_ms` behind `now_ns`.
// The sweep reads its clock before it locks a connection, so a worker
// can stamp progress after that read; a stamp later than `now_ns` is
// fresh progress, never a stall (an unsigned `now_ns - progress_ns`
// would wrap and close a healthy connection).
constexpr bool write_stalled(std::uint64_t now_ns, std::uint64_t progress_ns,
                             std::uint64_t timeout_ms) {
  return now_ns > progress_ns &&
         now_ns - progress_ns > timeout_ms * 1'000'000ull;
}

class NetServer {
 public:
  // Binds, listens, and starts the IO thread and workers. Throws
  // fault::IoError when the socket cannot be bound.
  NetServer(serve::Server& server, const NetServerOptions& options = {});
  ~NetServer();  // shutdown(drain=false) if still running

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // The bound port (resolves option port 0).
  std::uint16_t port() const;

  // Stops accepting; with drain, waits (up to drain_timeout_ms) for
  // admitted work to finish and outboxes to flush before closing.
  // Idempotent; safe from any thread except the IO thread itself.
  void shutdown(bool drain = true);

  bool draining() const;
  serve::Server& backend() { return server_; }

 private:
  struct Impl;
  serve::Server& server_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fa::net
