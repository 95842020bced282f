#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "fault/injector.hpp"
#include "io/json.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"

namespace fa::net {

namespace {

constexpr std::string_view kServerSource = "net.server";

[[noreturn]] void throw_errno(const char* what) {
  throw fault::IoError(fault::ErrCode::kIoFailure, std::string(kServerSource),
                       std::string(what) + ": " + std::strerror(errno));
}

// Classic token bucket, refilled lazily from the registry clock. Owned
// by the IO thread (quota decisions happen at admission, before the
// request ever reaches a worker), so no synchronization.
struct TokenBucket {
  double qps = 0.0;
  double burst = 0.0;
  double tokens = 0.0;
  std::uint64_t last_ns = 0;

  bool take(std::uint64_t now_ns) {
    if (qps <= 0.0) return true;
    if (last_ns == 0) {
      last_ns = now_ns;
      tokens = burst;
    }
    const double elapsed_s = static_cast<double>(now_ns - last_ns) * 1e-9;
    last_ns = now_ns;
    tokens = std::min(burst, tokens + elapsed_s * qps);
    if (tokens < 1.0) return false;
    tokens -= 1.0;
    return true;
  }
};

constexpr bool http_method_prefix(std::string_view head) {
  return head.starts_with("GET ") || head.starts_with("POST") ||
         head.starts_with("HEAD") || head.starts_with("PUT ") ||
         head.starts_with("DELE") || head.starts_with("OPTI") ||
         head.starts_with("PATC");
}

}  // namespace

struct Conn;

// One unit of response work. Either a live request (evaluated through
// Server::handle by a worker) or a canned answer — reject frames,
// health, 404s — whose bytes were prebuilt on the IO thread. Both kinds
// carry a per-connection sequence number so replies reach the outbox
// strictly in request order: the frames carry no request id, ordering
// IS the correlation.
struct Work {
  enum class Kind : std::uint8_t { kQuery, kScenario };

  std::shared_ptr<Conn> conn;
  serve::Request request;
  Kind kind = Kind::kQuery;
  bool http = false;
  bool keep_alive = true;
  bool close_after = false;
  std::uint64_t seq = 0;
  std::string canned;  // non-empty: deliver these bytes verbatim
};

// One accepted socket. Parser state, the token bucket, and the fd are
// owned by the IO thread; `mu` guards the outbox and the ordering state
// shared with workers.
struct Conn {
  enum class Proto : std::uint8_t { kUnknown, kBinary, kHttp };

  // -- IO-thread-only --------------------------------------------------
  int fd = -1;
  std::uint64_t id = 0;
  Proto proto = Proto::kUnknown;
  std::string sniff;  // bytes held until the protocol is identified
  FrameAssembler frames;
  HttpAssembler http;
  TokenBucket bucket;
  std::uint64_t requests_seen = 0;  // fault key: net.frame.decode
  std::uint64_t flush_seq = 0;      // fault key: net.conn.slow
  std::uint64_t admit_seq = 0;      // last stamped request seq
  std::uint64_t last_activity_ns = 0;
  bool want_write = false;   // EPOLLOUT armed
  bool error_sent = false;   // poisoned stream answered; discard reads
  bool dead = false;         // fd closed; shared_ptrs may outlive it

  // -- shared with workers (under mu) ----------------------------------
  std::mutex mu;
  std::string outbox;
  // Last forward progress on the outbox: stamped when bytes land in an
  // empty outbox and whenever send() moves bytes. The sweep expires
  // connections whose outbox sat non-empty past write_timeout_ms.
  std::uint64_t outbox_progress_ns = 0;
  std::vector<Work> pending;   // out-of-order completions parked here
  std::uint64_t next_seq = 1;  // next response the peer expects
  bool busy = false;           // a worker is executing for this conn
  bool closed = false;         // worker-visible mirror of `dead`
  bool close_after_flush = false;
  bool overflow = false;  // outbox blew max_outbox_bytes; drop the peer

  // Admitted-but-unanswered requests (drain + idle-sweep bookkeeping).
  std::atomic<std::uint32_t> in_flight{0};

  // All three require mu.
  void pending_insert(Work w) {
    auto it = std::find_if(pending.begin(), pending.end(),
                           [&](const Work& p) { return p.seq > w.seq; });
    pending.insert(it, std::move(w));
  }
  bool pending_ready() const {
    return !pending.empty() && pending.front().seq == next_seq;
  }
  Work pending_pop() {
    Work w = std::move(pending.front());
    pending.erase(pending.begin());
    return w;
  }
};

struct NetServer::Impl {
  serve::Server& server;
  NetServerOptions opts;
  obs::Registry& reg;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::uint16_t bound_port = 0;

  std::atomic<bool> draining{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> quiescent{false};
  std::atomic<std::uint64_t> in_flight_total{0};
  std::uint64_t next_conn_id = 1;

  // Admission queue (bounded; full = shed) and the canned-reply side
  // queue (unbounded but each entry is a few hundred prebuilt bytes
  // tied to one received request — inbound socket rate bounds it).
  std::mutex qmu;
  std::condition_variable qcv;
  std::deque<Work> queue;
  std::deque<Work> canned_queue;

  // IO-thread-owned connection table.
  std::unordered_map<int, std::shared_ptr<Conn>> conns;

  // Connections with freshly appended outbox bytes (workers push, the
  // eventfd wakes the IO thread to flush).
  std::mutex dirty_mu;
  std::vector<std::shared_ptr<Conn>> dirty;

  std::mutex shutdown_mu;
  bool joined = false;

  std::vector<std::thread> workers;
  std::thread io_thread;

  // Cached instruments — these sit on every request path.
  obs::Counter& c_accepted;
  obs::Counter& c_closed;
  obs::Counter& c_dropped_slow;
  obs::Counter& c_timeouts;
  obs::Counter& c_bytes_in;
  obs::Counter& c_bytes_out;
  obs::Counter& c_frames_in;
  obs::Counter& c_frames_out;
  obs::Counter& c_http_requests;
  obs::Counter& c_ok;
  obs::Counter& c_bad;
  obs::Counter& c_sheds;
  obs::Counter& c_rate_limited;
  obs::Counter& c_shutdown_rejects;
  obs::Histogram& h_queue_depth;
  obs::Histogram& h_point_ns;
  obs::Histogram& h_bbox_ns;
  obs::Histogram& h_provider_ns;
  obs::Histogram& h_topk_ns;
  obs::Histogram& h_ensemble_ns;
  obs::Histogram& h_scenario_ns;

  Impl(serve::Server& srv, const NetServerOptions& options)
      : server(srv),
        opts(options),
        reg(options.registry ? *options.registry : srv.registry()),
        c_accepted(reg.counter(obs::metrics::kNetConnectionsAccepted)),
        c_closed(reg.counter(obs::metrics::kNetConnectionsClosed)),
        c_dropped_slow(reg.counter(obs::metrics::kNetConnectionsDroppedSlow)),
        c_timeouts(reg.counter(obs::metrics::kNetTimeouts)),
        c_bytes_in(reg.counter(obs::metrics::kNetBytesIn)),
        c_bytes_out(reg.counter(obs::metrics::kNetBytesOut)),
        c_frames_in(reg.counter(obs::metrics::kNetFramesIn)),
        c_frames_out(reg.counter(obs::metrics::kNetFramesOut)),
        c_http_requests(reg.counter(obs::metrics::kNetHttpRequests)),
        c_ok(reg.counter(obs::metrics::kNetRequestsOk)),
        c_bad(reg.counter(obs::metrics::kNetRequestsBad)),
        c_sheds(reg.counter(obs::metrics::kNetSheds)),
        c_rate_limited(reg.counter(obs::metrics::kNetRateLimited)),
        c_shutdown_rejects(reg.counter(obs::metrics::kNetShutdownRejects)),
        h_queue_depth(reg.histogram(obs::metrics::kNetQueueDepth)),
        h_point_ns(reg.histogram(obs::metrics::kNetLatencyPointRiskNs)),
        h_bbox_ns(reg.histogram(obs::metrics::kNetLatencyBBoxNs)),
        h_provider_ns(reg.histogram(obs::metrics::kNetLatencyProviderNs)),
        h_topk_ns(reg.histogram(obs::metrics::kNetLatencyTopKNs)),
        h_ensemble_ns(reg.histogram(obs::metrics::kNetLatencyEnsembleNs)),
        h_scenario_ns(reg.histogram(obs::metrics::kNetLatencyScenarioNs)) {
    opts.workers = std::max(1, opts.workers);
    opts.queue_capacity = std::max<std::size_t>(1, opts.queue_capacity);
    start();
  }

  ~Impl() { shutdown(false); }

  // -- lifecycle -------------------------------------------------------

  void start() {
    listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) throw_errno("socket");
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts.port);
    addr.sin_addr.s_addr =
        htonl(opts.loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      const int saved = errno;
      ::close(listen_fd);
      // An occupied port is an operator error worth a precise message
      // (and the fix), not a bare strerror; the Status offset carries
      // the losing port number.
      if (saved == EADDRINUSE) {
        throw fault::IoError(fault::Status::error(
            fault::ErrCode::kIoFailure, opts.port, std::string(kServerSource),
            "listen port " + std::to_string(opts.port) +
                " is already in use; stop the other listener or pass "
                "--port 0 for an ephemeral port"));
      }
      errno = saved;
      throw_errno("bind");
    }
    if (::listen(listen_fd, 128) < 0) {
      const int saved = errno;
      ::close(listen_fd);
      errno = saved;
      throw_errno("listen");
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port = ntohs(addr.sin_port);

    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) throw_errno("epoll_create1");
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd < 0) throw_errno("eventfd");
    epoll_add(listen_fd, EPOLLIN);
    epoll_add(wake_fd, EPOLLIN);

    workers.reserve(static_cast<std::size_t>(opts.workers));
    for (int i = 0; i < opts.workers; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
    io_thread = std::thread([this] { io_loop(); });
  }

  void shutdown(bool drain) {
    std::lock_guard<std::mutex> lk(shutdown_mu);
    if (joined) return;
    draining.store(true, std::memory_order_release);
    wake();
    if (drain) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(opts.drain_timeout_ms);
      while (!quiescent.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    stop.store(true, std::memory_order_release);
    qcv.notify_all();
    wake();
    for (auto& t : workers) t.join();
    io_thread.join();
    // Workers and this thread wake() the IO loop until they are joined;
    // closing the eventfd any earlier races those writes (and a reused
    // descriptor number would take them).
    ::close(wake_fd);
    wake_fd = -1;
    joined = true;
  }

  void wake() {
    if (wake_fd >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof one);
    }
  }

  void epoll_add(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      throw_errno("epoll_ctl(ADD)");
    }
  }

  void epoll_mod(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  }

  // -- IO thread -------------------------------------------------------

  void io_loop() {
    std::vector<epoll_event> events(64);
    std::uint64_t last_sweep_ns = reg.now_ns();
    while (!stop.load(std::memory_order_acquire)) {
      if (draining.load(std::memory_order_acquire) && listen_fd >= 0) {
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
        ::close(listen_fd);
        listen_fd = -1;
      }
      const int n = ::epoll_wait(epoll_fd, events.data(),
                                 static_cast<int>(events.size()), 50);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const std::uint32_t ev = events[i].events;
        if (fd == listen_fd) {
          accept_all();
          continue;
        }
        if (fd == wake_fd) {
          std::uint64_t junk = 0;
          while (::read(wake_fd, &junk, sizeof junk) > 0) {
          }
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        std::shared_ptr<Conn> conn = it->second;
        if (ev & (EPOLLHUP | EPOLLERR)) {
          close_conn(*conn);
          continue;
        }
        if (ev & EPOLLIN) read_conn(conn);
        if (!conn->dead && (ev & EPOLLOUT)) flush_conn(*conn);
      }
      flush_dirty();
      const std::uint64_t now = reg.now_ns();
      if (now - last_sweep_ns >= 100'000'000ull) {
        sweep_timeouts(now);
        last_sweep_ns = now;
      }
      if (draining.load(std::memory_order_acquire)) check_quiescent();
    }
    // Teardown: the IO thread owns every fd but the eventfd, which
    // shutdown() closes after joining every thread that writes it.
    for (auto& [fd, conn] : conns) {
      conn->dead = true;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        conn->closed = true;
      }
      ::close(fd);
      c_closed.add();
    }
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    ::close(epoll_fd);
    listen_fd = epoll_fd = -1;
  }

  void accept_all() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      if (draining.load(std::memory_order_acquire) ||
          conns.size() >= opts.max_connections) {
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->bucket.qps = opts.quota_qps;
      conn->bucket.burst = std::max(1.0, opts.quota_burst);
      conn->last_activity_ns = reg.now_ns();
      conns.emplace(fd, std::move(conn));
      epoll_add(fd, EPOLLIN);
      c_accepted.add();
    }
  }

  void close_conn(Conn& conn) {
    if (conn.dead) return;
    conn.dead = true;
    {
      std::lock_guard<std::mutex> lk(conn.mu);
      conn.closed = true;
    }
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conns.erase(conn.fd);  // `conn` stays alive via workers' shared_ptrs
    c_closed.add();
  }

  void read_conn(const std::shared_ptr<Conn>& conn) {
    char buf[16 * 1024];
    for (;;) {
      const ssize_t r = ::recv(conn->fd, buf, sizeof buf, 0);
      if (r > 0) {
        c_bytes_in.add(static_cast<std::uint64_t>(r));
        conn->last_activity_ns = reg.now_ns();
        ingest(conn, std::string_view(buf, static_cast<std::size_t>(r)));
        if (conn->dead) return;
        if (r < static_cast<ssize_t>(sizeof buf)) return;
        continue;
      }
      if (r == 0) {
        close_conn(*conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_conn(*conn);
      return;
    }
  }

  void ingest(const std::shared_ptr<Conn>& conn, std::string_view bytes) {
    // A poisoned stream was already answered; drain and discard until
    // the close-after-flush lands.
    if (conn->error_sent) return;
    if (conn->proto == Conn::Proto::kUnknown) {
      conn->sniff.append(bytes);
      if (conn->sniff.size() < 4) return;
      conn->proto = http_method_prefix(conn->sniff) ? Conn::Proto::kHttp
                                                    : Conn::Proto::kBinary;
      const std::string held = std::move(conn->sniff);
      conn->sniff.clear();
      if (conn->proto == Conn::Proto::kHttp) {
        conn->http.feed(held);
      } else {
        conn->frames.feed(held);
      }
    } else if (conn->proto == Conn::Proto::kHttp) {
      conn->http.feed(bytes);
    } else {
      conn->frames.feed(bytes);
    }
    if (conn->proto == Conn::Proto::kHttp) {
      pump_http(conn);
    } else {
      pump_binary(conn);
    }
  }

  void pump_binary(const std::shared_ptr<Conn>& conn) {
    const fault::Injector& inj = fault::Injector::global();
    for (;;) {
      fault::Result<std::optional<std::string>> next = conn->frames.next();
      if (!next.ok()) {
        // Framing lies desynchronize the stream: answer once, close.
        const ErrorCode code = next.status().code == fault::ErrCode::kLimit
                                   ? ErrorCode::kTooLarge
                                   : ErrorCode::kBadRequest;
        c_bad.add();
        conn->error_sent = true;
        send_canned(conn, error_frame(code, next.status().message),
                    /*http=*/false, /*keep_alive=*/false,
                    /*close_after=*/true);
        return;
      }
      std::optional<std::string> opt = std::move(next).take();
      if (!opt.has_value()) return;
      std::string payload = std::move(*opt);
      c_frames_in.add();
      conn->requests_seen++;
      if (inj.armed() && inj.fires(kFrameDecodeSite, conn->requests_seen)) {
        payload = inj.corrupt_bytes(std::move(payload), kFrameDecodeSite,
                                    conn->requests_seen);
      }
      fault::Result<serve::Request> req = serve::wire::decode_request(payload);
      if (!req.ok()) {
        // The frame boundary held, so the stream is still synchronized;
        // reject this request and keep the connection.
        c_bad.add();
        send_canned(conn,
                    error_frame(ErrorCode::kBadRequest, req.status().message),
                    /*http=*/false, /*keep_alive=*/true,
                    /*close_after=*/false);
        continue;
      }
      Work w;
      w.conn = conn;
      w.request = std::move(req).take();
      w.http = false;
      admit(std::move(w));
      if (conn->dead) return;
    }
  }

  void pump_http(const std::shared_ptr<Conn>& conn) {
    for (;;) {
      fault::Result<std::optional<HttpRequest>> next = conn->http.next();
      if (!next.ok()) {
        const int status = static_cast<int>(next.status().offset);
        const ErrorCode code =
            status == 413 ? ErrorCode::kTooLarge : ErrorCode::kBadRequest;
        c_bad.add();
        conn->error_sent = true;
        send_canned(conn,
                    http_response(status,
                                  http_error_body(code, next.status().message),
                                  false),
                    /*http=*/true, /*keep_alive=*/false, /*close_after=*/true);
        return;
      }
      std::optional<HttpRequest> opt = std::move(next).take();
      if (!opt.has_value()) return;
      HttpRequest req = std::move(*opt);
      c_http_requests.add();
      conn->requests_seen++;
      HttpRoute route = route_http(req);
      switch (route.kind) {
        case HttpRoute::Kind::kHealth: {
          io::JsonObject o;
          o["status"] = draining.load(std::memory_order_acquire)
                            ? "draining"
                            : "serving";
          o["epoch"] = static_cast<double>(server.epoch());
          send_canned(conn,
                      http_response(200, io::to_json(io::JsonValue{std::move(o)}),
                                    req.keep_alive),
                      /*http=*/true, req.keep_alive, !req.keep_alive);
          break;
        }
        case HttpRoute::Kind::kNotFound:
          c_bad.add();
          send_canned(conn,
                      http_response(404,
                                    http_error_body(ErrorCode::kBadRequest,
                                                    "no such endpoint"),
                                    req.keep_alive),
                      /*http=*/true, req.keep_alive, !req.keep_alive);
          break;
        case HttpRoute::Kind::kBadRequest:
          c_bad.add();
          send_canned(conn,
                      http_response(400,
                                    http_error_body(ErrorCode::kBadRequest,
                                                    route.error),
                                    req.keep_alive),
                      /*http=*/true, req.keep_alive, !req.keep_alive);
          break;
        case HttpRoute::Kind::kScenario: {
          Work w;
          w.conn = conn;
          w.kind = Work::Kind::kScenario;
          w.http = true;
          w.keep_alive = req.keep_alive;
          admit(std::move(w));
          break;
        }
        case HttpRoute::Kind::kQuery: {
          Work w;
          w.conn = conn;
          w.request = route.request;
          w.http = true;
          w.keep_alive = req.keep_alive;
          admit(std::move(w));
          break;
        }
      }
      if (conn->dead) return;
    }
  }

  // -- admission (IO thread) -------------------------------------------

  void admit(Work w) {
    const std::shared_ptr<Conn> conn = w.conn;
    const std::uint64_t now = reg.now_ns();
    ErrorCode rc{};
    std::string_view detail;
    bool rejected = false;
    if (draining.load(std::memory_order_acquire)) {
      c_shutdown_rejects.add();
      rc = ErrorCode::kShuttingDown;
      detail = "server draining; no new work admitted";
      rejected = true;
    } else if (!conn->bucket.take(now)) {
      c_rate_limited.add();
      rc = ErrorCode::kRateLimited;
      detail = "per-connection quota exceeded";
      rejected = true;
    }
    if (!rejected) {
      std::lock_guard<std::mutex> lk(qmu);
      if (queue.size() >= opts.queue_capacity) {
        c_sheds.add();
        rc = ErrorCode::kBusy;
        detail = "admission queue full";
        rejected = true;
      } else {
        w.seq = ++conn->admit_seq;
        conn->in_flight.fetch_add(1, std::memory_order_relaxed);
        in_flight_total.fetch_add(1, std::memory_order_relaxed);
        h_queue_depth.record(queue.size());
        queue.push_back(std::move(w));
        qcv.notify_one();
        return;
      }
    }
    // Cheap reject: bytes prebuilt here, never touching the serving
    // stack, delivered through the same ordered pipeline.
    send_canned(conn,
                w.http ? http_response(http_status_for(rc),
                                       http_error_body(rc, detail),
                                       w.keep_alive)
                       : error_frame(rc, detail),
                w.http, w.keep_alive, w.http && !w.keep_alive);
  }

  // Enqueues prebuilt response bytes (rejects, health, parse errors)
  // behind this connection's in-flight requests. IO thread only.
  void send_canned(const std::shared_ptr<Conn>& conn, std::string bytes,
                   bool http, bool keep_alive, bool close_after) {
    if (conn->dead) return;
    Work w;
    w.conn = conn;
    w.http = http;
    w.keep_alive = keep_alive;
    w.close_after = close_after;
    w.canned = std::move(bytes);
    w.seq = ++conn->admit_seq;
    conn->in_flight.fetch_add(1, std::memory_order_relaxed);
    in_flight_total.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(qmu);
      canned_queue.push_back(std::move(w));
    }
    qcv.notify_one();
  }

  // -- flushing (IO thread) --------------------------------------------

  void flush_dirty() {
    std::vector<std::shared_ptr<Conn>> batch;
    {
      std::lock_guard<std::mutex> lk(dirty_mu);
      batch.swap(dirty);
    }
    for (const auto& conn : batch) {
      if (!conn->dead) flush_conn(*conn);
    }
  }

  void flush_conn(Conn& conn) {
    if (conn.dead) return;
    conn.flush_seq++;
    bool drop_now = false;
    {
      // The overflow verdict comes first: a peer that stopped reading
      // (or a flush stalled by the net.conn.slow fault) must be dropped
      // even if every subsequent round would also stall.
      std::lock_guard<std::mutex> lk(conn.mu);
      drop_now = conn.overflow;
    }
    if (drop_now) {
      c_dropped_slow.add();
      close_conn(conn);
      return;
    }
    const fault::Injector& inj = fault::Injector::global();
    if (inj.armed() && inj.fires(kSlowClientSite, conn.flush_seq)) {
      // Simulated stalled writer: skip the round, stay write-armed so
      // the backlog (and the overflow guard) is exercised next round.
      if (!conn.want_write) {
        conn.want_write = true;
        epoll_mod(conn.fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    bool drop_slow = false;
    bool close_now = false;
    bool blocked = false;
    {
      std::lock_guard<std::mutex> lk(conn.mu);
      if (conn.overflow) {
        drop_slow = true;
      } else {
        while (!conn.outbox.empty()) {
          const ssize_t n = ::send(conn.fd, conn.outbox.data(),
                                   conn.outbox.size(), MSG_NOSIGNAL);
          if (n > 0) {
            c_bytes_out.add(static_cast<std::uint64_t>(n));
            conn.outbox.erase(0, static_cast<std::size_t>(n));
            conn.outbox_progress_ns = reg.now_ns();
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            blocked = true;
            break;
          }
          if (n < 0 && errno == EINTR) continue;
          close_now = true;
          break;
        }
        if (conn.outbox.empty() && conn.close_after_flush &&
            conn.in_flight.load(std::memory_order_relaxed) == 0) {
          close_now = true;
        }
      }
    }
    if (drop_slow) {
      c_dropped_slow.add();
      close_conn(conn);
      return;
    }
    if (close_now) {
      close_conn(conn);
      return;
    }
    if (blocked && !conn.want_write) {
      conn.want_write = true;
      epoll_mod(conn.fd, EPOLLIN | EPOLLOUT);
    } else if (!blocked && conn.want_write) {
      conn.want_write = false;
      epoll_mod(conn.fd, EPOLLIN);
    }
  }

  void sweep_timeouts(std::uint64_t now_ns) {
    std::vector<std::shared_ptr<Conn>> expired;
    for (const auto& [fd, conn] : conns) {
      const std::uint64_t idle_ns = now_ns - conn->last_activity_ns;
      const bool mid =
          conn->proto == Conn::Proto::kBinary  ? conn->frames.mid_frame()
          : conn->proto == Conn::Proto::kHttp ? conn->http.mid_request()
                                              : !conn->sniff.empty();
      if (mid && idle_ns > opts.read_timeout_ms * 1'000'000ull) {
        expired.push_back(conn);
        continue;
      }
      std::lock_guard<std::mutex> lk(conn->mu);
      if (!conn->outbox.empty()) {
        // Write stall: a peer that stopped reading (or vanished without
        // a FIN) below max_outbox_bytes never triggers EPOLLOUT or the
        // overflow drop, so without this check the connection would pin
        // its slot forever.
        if (write_stalled(now_ns, conn->outbox_progress_ns,
                          opts.write_timeout_ms)) {
          expired.push_back(conn);
        }
        continue;
      }
      if (!mid && idle_ns > opts.idle_timeout_ms * 1'000'000ull &&
          conn->in_flight.load(std::memory_order_relaxed) == 0) {
        expired.push_back(conn);
      }
    }
    for (const auto& conn : expired) {
      c_timeouts.add();
      close_conn(*conn);
    }
  }

  void check_quiescent() {
    if (in_flight_total.load(std::memory_order_relaxed) != 0) return;
    {
      std::lock_guard<std::mutex> lk(qmu);
      if (!queue.empty() || !canned_queue.empty()) return;
    }
    for (const auto& [fd, conn] : conns) {
      std::lock_guard<std::mutex> lk(conn->mu);
      if (!conn->outbox.empty() || conn->busy) return;
    }
    quiescent.store(true, std::memory_order_release);
  }

  // -- workers ---------------------------------------------------------

  void worker_loop() {
    for (;;) {
      Work w;
      {
        std::unique_lock<std::mutex> lk(qmu);
        qcv.wait(lk, [this] {
          return stop.load(std::memory_order_acquire) ||
                 !canned_queue.empty() || !queue.empty();
        });
        if (stop.load(std::memory_order_acquire)) return;
        if (!canned_queue.empty()) {
          w = std::move(canned_queue.front());
          canned_queue.pop_front();
        } else {
          w = std::move(queue.front());
          queue.pop_front();
        }
      }
      deliver(std::move(w));
    }
  }

  // Hands one unit of work to its connection's ordered pipeline:
  // responses append to the outbox strictly in admission order, however
  // workers interleave.
  void deliver(Work w) {
    std::shared_ptr<Conn> conn = w.conn;
    {
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->pending_insert(std::move(w));
    }
    for (;;) {
      Work job;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        if (conn->busy) return;
        if (!conn->pending_ready()) return;
        job = conn->pending_pop();
        conn->busy = true;
      }
      const std::string out = execute(job);
      bool notify_io = false;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        conn->busy = false;
        conn->next_seq++;
        if (!conn->closed) {
          if (conn->outbox.empty()) conn->outbox_progress_ns = reg.now_ns();
          conn->outbox.append(out);
          if (job.close_after || (job.http && !job.keep_alive)) {
            conn->close_after_flush = true;
          }
          if (conn->outbox.size() > opts.max_outbox_bytes) {
            conn->overflow = true;
          }
          notify_io = true;
        }
      }
      conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
      in_flight_total.fetch_sub(1, std::memory_order_relaxed);
      if (notify_io) {
        if (!job.http) c_frames_out.add();
        {
          std::lock_guard<std::mutex> lk(dirty_mu);
          dirty.push_back(conn);
        }
        wake();
      }
    }
  }

  std::string execute(const Work& w) {
    if (!w.canned.empty()) return w.canned;
    const std::uint64_t t0 = reg.now_ns();
    std::string out;
    try {
      if (w.kind == Work::Kind::kScenario) {
        const io::JsonValue doc = scenario_camp_fire(server);
        out = http_response(200, io::to_json(doc), w.keep_alive);
        h_scenario_ns.record(reg.now_ns() - t0);
      } else {
        const serve::Response resp = server.handle(w.request);
        if (w.http) {
          out = http_response(200, io::to_json(response_json(resp)),
                              w.keep_alive);
        } else {
          out = frame(serve::wire::encode(resp));
        }
        latency_histogram(w.request).record(reg.now_ns() - t0);
      }
      c_ok.add();
    } catch (const fault::IoError& e) {
      c_bad.add();
      out = w.http ? http_response(500,
                                   http_error_body(ErrorCode::kBadRequest,
                                                   e.what()),
                                   w.keep_alive)
                   : error_frame(ErrorCode::kBadRequest, e.what());
    } catch (const std::exception& e) {
      // Anything else escaping a worker thread would std::terminate the
      // whole server on one bad request; answer 500 and keep serving.
      c_bad.add();
      out = w.http
                ? http_response(500,
                                http_error_body(ErrorCode::kInternal,
                                                e.what()),
                                w.keep_alive)
                : error_frame(ErrorCode::kInternal, e.what());
    } catch (...) {
      c_bad.add();
      out = w.http
                ? http_response(500,
                                http_error_body(ErrorCode::kInternal,
                                                "unexpected error"),
                                w.keep_alive)
                : error_frame(ErrorCode::kInternal, "unexpected error");
    }
    return out;
  }

  obs::Histogram& latency_histogram(const serve::Request& request) {
    switch (request.index()) {
      case 0:
        return h_point_ns;
      case 1:
        return h_bbox_ns;
      case 2:
        return h_provider_ns;
      case 3:
        return h_topk_ns;
      default:
        // Both ensemble shapes (summary + fragility ranking) share one
        // latency surface; they run the same ensemble underneath.
        return h_ensemble_ns;
    }
  }
};

NetServer::NetServer(serve::Server& server, const NetServerOptions& options)
    : server_(server), impl_(std::make_unique<Impl>(server, options)) {}

NetServer::~NetServer() {
  if (impl_) impl_->shutdown(false);
}

std::uint16_t NetServer::port() const { return impl_->bound_port; }

void NetServer::shutdown(bool drain) { impl_->shutdown(drain); }

bool NetServer::draining() const {
  return impl_->draining.load(std::memory_order_acquire);
}

}  // namespace fa::net
