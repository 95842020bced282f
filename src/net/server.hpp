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
//   * Admission control. Every parsed request passes the drain check
//     and a per-connection token bucket (quota_qps/quota_burst; 0
//     disables). A point, bbox, provider or top-K query is then
//     answered on the spot, hit or miss. The ensemble shapes and the
//     scenario composite enter a bounded queue for the worker pool. A
//     full queue sheds the request with a cheap BUSY frame (HTTP 503)
//     encoded without touching the serving stack — overload can make
//     clients retry, it can never stall the snapshot hot-swap path or
//     grow memory without bound. BUSY bounds pool work only: a serving
//     query is answered even while the pool is saturated.
//   * Slow clients. Replies accumulate in a per-connection outbox;
//     an outbox past max_outbox_bytes means the peer stopped reading,
//     and the connection is dropped (net.connections.dropped_slow)
//     instead of buffering forever.
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
// Threading: one IO thread owns every socket's lifetime and all parser
// state. It runs each point, bbox, provider and top-K query to
// completion — one Server::handle call in the connection's codec: the
// cached bytes on a hit, an evaluation on the calling thread on a miss
// (the planner never enters fa::exec) — along with every canned reply
// (health, 404/400, BUSY, RATE_LIMITED, SHUTTING_DOWN, frame errors),
// and sends them in the same pass. Only the ensemble shapes and the
// scenario composite go to the workers, which answer through the same
// Server::handle and write their own replies: a reply that opens an
// empty outbox is sent by its worker at once, and EPOLLOUT is armed
// only when bytes (or a verdict only the IO thread acts on: drop,
// close) remain. Replies leave in request order through a
// per-connection reorder buffer that whichever thread produced the
// bytes fills; closing a connection stays the IO thread's job. An
// inline answer takes the snapshot pin, one cache shard's lock and, on
// a miss, an evaluation: microseconds at the median, milliseconds for a
// top-K over a populous disc, during which the other connections wait.
// The IO thread never waits on a worker, and nothing in the serving
// stack ever waits on a socket.
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
  std::size_t queue_capacity = 256;   // bounded pool queue (ensemble, scenario)
  std::size_t max_connections = 1024;
  // Per-connection token bucket; 0 disables quota enforcement.
  double quota_qps = 0.0;
  double quota_burst = 32.0;
  std::uint64_t idle_timeout_ms = 30'000;
  std::uint64_t read_timeout_ms = 10'000;
  std::uint64_t write_timeout_ms = 10'000;
  std::uint64_t drain_timeout_ms = 5'000;
  std::size_t max_outbox_bytes = 1 << 20;
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

// Where replies to admitted queries came from, exact under any FA_OBS
// setting: the IO thread (point, bbox, provider and top-K queries, hit
// or miss), or a worker (ensemble shapes and scenario composites).
// Canned replies are in neither.
struct NetServerStats {
  std::uint64_t inline_replies = 0;
  std::uint64_t pool_replies = 0;
};

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
  NetServerStats stats() const;

 private:
  struct Impl;
  serve::Server& server_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fa::net
