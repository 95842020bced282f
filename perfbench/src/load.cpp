// The open-loop load engine: one sender (the calling thread) releases
// requests on a seeded Poisson schedule whether or not earlier replies
// have arrived, pipelining them over a few keep-alive connections; one
// receiver thread matches replies to requests in per-connection FIFO
// order and times each from its *scheduled* send, so a server stall
// shows in every request scheduled during it (no coordinated omission).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int rcvbuf = 8 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  // A server that stops answering fails the blocking calls (prefill,
  // sends) instead of hanging the run; the receiver polls and is unaffected.
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool is_http_status_ok(std::string_view head) {
  return head.size() >= 12 && head.substr(9, 3) == "200";
}

}  // namespace

std::uint64_t host_steal_jiffies() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ..." -- steal is the 8th counter.
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

bool take_reply(std::string& buf, bool http, std::string& reply, bool& ok) {
  if (!http) {
    if (buf.size() < 4) return false;
    std::uint32_t n = 0;
    for (int i = 0; i < 4; ++i) {
      n |= std::uint32_t(static_cast<unsigned char>(buf[i])) << (8 * i);
    }
    if (buf.size() < 4 + std::size_t{n}) return false;
    reply.assign(buf, 4, n);
    buf.erase(0, 4 + std::size_t{n});
    ok = fa::serve::wire::peek_tag(reply) !=
         static_cast<std::uint8_t>(fa::serve::wire::Tag::kError);
    return true;
  }
  const std::size_t end = buf.find("\r\n\r\n");
  if (end == std::string::npos) return false;
  const std::string_view head(buf.data(), end);
  std::size_t len = 0;
  const std::size_t cl = head.find("Content-Length: ");
  if (cl != std::string_view::npos) {
    len = std::strtoull(buf.c_str() + cl + 16, nullptr, 10);
  }
  if (buf.size() < end + 4 + len) return false;
  ok = is_http_status_ok(head);
  reply.assign(buf, end + 4, len);
  buf.erase(0, end + 4 + len);
  return true;
}

std::optional<std::string> one_shot(std::uint16_t port, const Item& item,
                                    bool http, double timeout_s,
                                    double* recv_s) {
  const int fd = connect_loopback(port);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> result;
  if (send_all(fd, item.bytes)) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>((timeout_s - double(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::string buf, reply;
    char chunk[65536];
    bool ok = false;
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      if (take_reply(buf, http, reply, ok)) {
        if (recv_s) *recv_s = now_s();
        if (ok) result = std::move(reply);
        break;
      }
    }
  }
  ::close(fd);
  return result;
}

// -- LoadEngine --------------------------------------------------------------

namespace {
struct InFlight {
  std::uint64_t idx;
  double sched;
  Op op;
  bool resent = false;  // already re-sent once after a server-side close
};
}  // namespace

struct LoadEngine::Conn {
  int fd = -1;
  std::mutex mu;
  std::deque<InFlight> pending;  // guarded by mu
  std::string rbuf;              // receiver thread only
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

LoadEngine::LoadEngine(std::uint16_t port, const Mix& mix, std::uint64_t seed,
                       int connections)
    : port_(port), mix_(mix), rng_(seed ^ 0xa11ce5ULL), connections_(connections) {
  reconnect();
}

LoadEngine::~LoadEngine() = default;

bool LoadEngine::reconnect() {
  conns_.clear();
  for (int c = 0; c < connections_; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = connect_loopback(port_);
    if (conn->fd < 0) {
      conns_.clear();
      return false;
    }
    conns_.push_back(std::move(conn));
  }
  return true;
}

bool LoadEngine::prefill(const std::vector<Item>& items) {
  // A server-side close mid-prefill (see the reset handling in
  // receive_loop) costs one retry over fresh connections.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (prefill_once(items)) return true;
    reconnect();
  }
  return false;
}

bool LoadEngine::prefill_once(const std::vector<Item>& items) {
  if (conns_.empty() && !reconnect()) return false;
  constexpr std::size_t kBatch = 32;
  Conn& c = *conns_.front();
  std::string reply;
  char chunk[65536];
  for (std::size_t at = 0; at < items.size(); at += kBatch) {
    const std::size_t end = std::min(items.size(), at + kBatch);
    std::string out;
    for (std::size_t i = at; i < end; ++i) out += items[i].bytes;
    if (!send_all(c.fd, out)) return false;
    for (std::size_t got = at; got < end;) {
      bool ok = false;
      if (take_reply(c.rbuf, mix_.http(), reply, ok)) {
        if (!ok) return false;
        ++got;
        continue;
      }
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      c.rbuf.append(chunk, static_cast<std::size_t>(n));
    }
  }
  return true;
}

// Shared between the sender and the receiver for one phase.
struct LoadEngine::Sync {
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> sending_done{false};
  std::atomic<std::uint64_t> sent{0};
  double t_end = 0.0;
  double grace = 0.0;
};

PhaseResult LoadEngine::run(double rate, double duration_s, double grace_s) {
  PhaseResult r;
  r.duration_s = duration_s;
  if (conns_.empty() && !reconnect()) {
    return r;
  }
  Sync sync;
  const double t0 = now_s() + 0.002;
  r.t0 = t0;
  sync.t_end = t0 + duration_s;
  sync.grace = grace_s;
  std::thread rx([this, &r, t0, &sync] { receive_loop(r, t0, sync); });

  // Backlog (sent - answered) sampled every 10 ms of schedule time.
  std::vector<double> backlog;
  double next_probe = t0;
  double next_steal = t0;
  double t = t0;
  for (;;) {
    t += rng_.exp_gap(rate);
    if (t >= sync.t_end) break;
    wait_until(t);
    const double now = now_s();
    r.late_us.push_back((now - t) * 1e6);
    const std::uint64_t i = next_idx_++;
    const Item item = mix_.item(i);
    Conn& c = *conns_[i % conns_.size()];
    {
      // Held across the send: the receiver replaces a socket the server
      // closed under this lock, and a send racing that swap could land
      // on the new socket with its pending entry already cleared.
      std::lock_guard<std::mutex> lk(c.mu);
      c.pending.push_back({i, t, item.op});
      sync.sent.fetch_add(1, std::memory_order_release);
      // A failed send surfaces as the connection's reset on receive.
      send_all(c.fd, item.bytes);
    }
    while (now >= next_steal) {
      r.steal_jiffies.push_back(host_steal_jiffies());
      next_steal += PhaseResult::kStealSliceS;
    }
    while (now >= next_probe) {
      backlog.push_back(double(sync.sent.load() - sync.answered.load()));
      next_probe += 0.01;
    }
  }
  sync.sending_done.store(true, std::memory_order_release);
  rx.join();
  r.sent = sync.sent.load();
  r.timeouts = r.sent - r.ok - r.errors - r.resets;
  if (r.timeouts > 0) reconnect();  // late replies would misalign FIFOs
  if (backlog.size() >= 8) {
    const std::size_t q = backlog.size() / 4;
    double mid = 0.0, last = 0.0;
    for (std::size_t k = q; k < 2 * q; ++k) mid += backlog[k];
    for (std::size_t k = 3 * q; k < 4 * q; ++k) last += backlog[k];
    mid /= double(q);
    last /= double(q);
    r.backlog_grew = last > 2.0 * mid + 8.0;
  }
  return r;
}

void LoadEngine::receive_loop(PhaseResult& r, double t0, Sync& sync) {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns_[c]->fd, &ev);
  }
  const int err_fd = child_ ? child_->stderr_fd() : -1;
  if (err_fd >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ~std::uint64_t{0};
    ::epoll_ctl(ep, EPOLL_CTL_ADD, err_fd, &ev);
  }
  std::string err_line;
  char chunk[65536];
  std::string reply;
  for (;;) {
    if (sync.sending_done.load(std::memory_order_acquire)) {
      if (sync.answered.load() == sync.sent.load()) break;
      if (now_s() > sync.t_end + sync.grace) break;
    }
    epoll_event events[8];
    const int n = ::epoll_wait(ep, events, 8, 2);
    for (int e = 0; e < n; ++e) {
      if (events[e].data.u64 == ~std::uint64_t{0}) {
        const ssize_t k = ::read(err_fd, chunk, sizeof chunk);
        if (k <= 0) {
          ::epoll_ctl(ep, EPOLL_CTL_DEL, err_fd, nullptr);
          continue;
        }
        const double now = now_s();
        child_->note_stderr({chunk, static_cast<std::size_t>(k)});
        err_line.append(chunk, static_cast<std::size_t>(k));
        std::size_t nl;
        while ((nl = err_line.find('\n')) != std::string::npos) {
          unsigned long long epoch = 0;
          if (std::sscanf(err_line.c_str(), "fa_served: epoch %llu (", &epoch) == 1) {
            epoch_lines_.push_back(now);
          }
          err_line.erase(0, nl + 1);
        }
        continue;
      }
      Conn& c = *conns_[events[e].data.u64];
      const ssize_t k = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (k < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (k <= 0) {
        // The server closed the connection with requests in flight (its
        // write-stall sweep can close a healthy one, README.md). Like an
        // HTTP client retrying idempotent requests, re-send them once, in
        // order, over a fresh connection; they keep their scheduled times,
        // so the loss shows in their latency. A request lost a second
        // time, or with no connection to re-send on, fails.
        std::lock_guard<std::mutex> lk(c.mu);
        c.rbuf.clear();
        ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
        ::close(c.fd);
        c.fd = connect_loopback(port_);
        ++r.reconnects;
        std::deque<InFlight> again;
        std::string out;
        for (InFlight& f : c.pending) {
          if (c.fd < 0 || f.resent) {
            ++r.resets;
            sync.answered.fetch_add(1, std::memory_order_release);
            continue;
          }
          f.resent = true;
          out += mix_.item(f.idx).bytes;
          again.push_back(f);
        }
        c.pending = std::move(again);
        if (c.fd >= 0) {
          r.resent += c.pending.size();
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.u64 = events[e].data.u64;
          ::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
          // A failed send surfaces as this connection's next close.
          send_all(c.fd, out);
        }
        continue;
      }
      const double now = now_s();
      c.rbuf.append(chunk, static_cast<std::size_t>(k));
      bool ok = false;
      while (take_reply(c.rbuf, mix_.http(), reply, ok)) {
        InFlight f{};
        {
          std::lock_guard<std::mutex> lk(c.mu);
          if (c.pending.empty()) break;  // unsolicited bytes: ignore
          f = c.pending.front();
          c.pending.pop_front();
        }
        if (ok) {
          const double us = (now - f.sched) * 1e6;
          ++r.ok;
          r.lat_us.push_back(us);
          r.op_us[f.op].push_back(us);
          r.sched_s.push_back(f.sched - t0);
          if (hook_) hook_(f.op, f.sched, now);
          if (sampler_) {
            const std::uint64_t epoch = reply_epoch(reply, mix_.http());
            if (sampler_(f.idx, epoch)) {
              samples_.push_back({f.idx, epoch, reply});
            }
          }
        } else {
          if (r.errors++ == 0) r.first_error = reply.substr(0, 160);
        }
        sync.answered.fetch_add(1, std::memory_order_release);
      }
    }
  }
  ::close(ep);
}

}  // namespace perfbench
