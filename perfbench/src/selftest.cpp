// Self-tests of the benchmark's own machinery (`fa_perfbench selftest`):
//
//   stall      the open-loop generator against a stub server that stalls
//              once for 50 ms: every request scheduled during the stall
//              must carry the stall in its latency (no coordinated
//              omission), and the generator must stay on schedule.
//   close      the stub closes one connection with requests unanswered on
//              it: the engine re-sends them over a fresh connection, so
//              every request is still answered and none fails.
//   compare    the reply comparison: a flipped byte is a mismatch in
//              both encodings, and the restart comparison ignores only
//              the epoch field.
//
// The end-to-end half of the correctness self-test (a corrupted sampled
// reply makes the command fail) lives in run.py, which runs the real
// command with --corrupt-sample.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "net/protocol.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace {

constexpr double kStallAt = 0.5;     // s after the stub starts serving
constexpr double kStallFor = 0.050;  // s
// "Small" generator lateness: a tenth of the stall it has to expose (the
// host can still deschedule the whole virtual machine for milliseconds).
constexpr double kLateLimitUs = 5000.0;

// Answers every binary frame with one fixed response frame; stalls once,
// or closes one connection once.
class StubServer {
 public:
  StubServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    fa::serve::PointRiskResponse r;
    r.epoch = 1;
    reply_ = fa::net::frame(fa::serve::wire::encode(fa::serve::Response{r}));
    thread_ = std::thread([this] { loop(); });
  }
  ~StubServer() {
    stop_.store(true);
    thread_.join();
    ::close(listen_fd_);
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  std::uint16_t port() const { return port_; }
  // Arms the stall kStallAt seconds from now.
  void arm() { stall_start_.store(now_s() + kStallAt); }
  // Arms a close kStallAt seconds from now: the next connection that
  // sends requests is closed with them unanswered.
  void arm_close() { close_at_.store(now_s() + kStallAt); }
  // When the stall really ran (valid once it has).
  double stalled_from() const { return from_.load(); }
  double stalled_to() const { return to_.load(); }

 private:
  void loop() {
    const int ep = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd_, &ev);
    std::vector<int> fds;
    std::vector<std::string> bufs(1024);
    char chunk[65536];
    while (!stop_.load()) {
      const double stall = stall_start_.load();
      if (stall > 0.0 && now_s() >= stall) {
        // The stall: read and write nothing.
        from_.store(now_s());
        wait_until(from_.load() + kStallFor);
        to_.store(now_s());
        stall_start_.store(0.0);
      }
      epoll_event events[16];
      const int n = ::epoll_wait(ep, events, 16, 1);
      for (int e = 0; e < n; ++e) {
        const int fd = events[e].data.fd;
        if (fd == listen_fd_) {
          const int c = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
          if (c < 0 || c >= 1024) continue;
          fds.push_back(c);
          epoll_event cev{};
          cev.events = EPOLLIN;
          cev.data.fd = c;
          ::epoll_ctl(ep, EPOLL_CTL_ADD, c, &cev);
          continue;
        }
        const ssize_t k = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (k <= 0) {
          ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
          continue;
        }
        std::string& buf = bufs[static_cast<std::size_t>(fd)];
        const double close_at = close_at_.load();
        if (close_at > 0.0 && now_s() >= close_at) {
          close_at_.store(0.0);
          ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
          ::close(fd);
          std::erase(fds, fd);
          buf.clear();
          continue;
        }
        buf.append(chunk, static_cast<std::size_t>(k));
        std::string payload, out;
        bool ok = false;
        while (take_reply(buf, /*http=*/false, payload, ok)) out += reply_;
        if (!out.empty()) ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      }
    }
    for (const int fd : fds) ::close(fd);
    ::close(ep);
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string reply_;
  std::atomic<bool> stop_{false};
  std::atomic<double> stall_start_{0.0};
  std::atomic<double> close_at_{0.0};
  std::atomic<double> from_{0.0}, to_{0.0};
  std::thread thread_;
};

bool check(bool ok, const char* what) {
  std::printf("selftest: %-64s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

bool stall_test() {
  StubServer stub;
  MixSpec spec;
  spec.weight[kPoint] = 1.0;
  const Mix mix(spec, 7);
  LoadEngine eng(stub.port(), mix, 7, 4);
  stub.arm();
  const PhaseResult r = eng.run(2000.0, 1.2, 0.5);
  const double stall_start = stub.stalled_from(), stall_end = stub.stalled_to();
  std::size_t during = 0, shown = 0;
  double worst_us = 0.0;
  for (std::size_t i = 0; i < r.lat_us.size(); ++i) {
    const double sched = r.t0 + r.sched_s[i];
    if (sched < stall_start || sched >= stall_end) continue;
    ++during;
    // Scheduled at `sched`, it cannot be answered before the stall ends.
    const double floor_us = (stall_end - sched) * 1e6;
    if (r.lat_us[i] + 500.0 >= floor_us) ++shown;
    worst_us = std::max(worst_us, r.lat_us[i]);
  }
  const double late_p99 = percentile(r.late_us, 0.99);
  std::printf("selftest: stall: %zu requests scheduled during the 50 ms stall, "
              "%zu carry it (worst %.0f us); generator late p99 %.1f us\n",
              during, shown, worst_us, late_p99);
  bool ok = check(r.failed() == 0 && r.ok == r.sent, "stall: every request answered");
  ok &= check(during >= 50 && shown == during,
              "stall: every request scheduled in the stall carries it");
  ok &= check(late_p99 < kLateLimitUs, "stall: gen.late_p99_us stays small");
  return ok;
}

bool close_test() {
  StubServer stub;
  MixSpec spec;
  spec.weight[kPoint] = 1.0;
  const Mix mix(spec, 7);
  LoadEngine eng(stub.port(), mix, 7, 4);
  stub.arm_close();
  const PhaseResult r = eng.run(2000.0, 1.2, 0.5);
  std::printf("selftest: close: %llu closes, %llu requests re-sent, %llu failed of %llu\n",
              static_cast<unsigned long long>(r.reconnects),
              static_cast<unsigned long long>(r.resent),
              static_cast<unsigned long long>(r.failed()),
              static_cast<unsigned long long>(r.sent));
  bool ok = check(r.reconnects == 1 && r.resent >= 1,
                  "close: requests in flight at a server-side close are re-sent");
  ok &= check(r.failed() == 0 && r.ok == r.sent, "close: every request answered");
  return ok;
}

bool compare_test() {
  fa::serve::PointRiskResponse r;
  r.epoch = 9;
  r.whp = fa::synth::WhpClass::kHigh;
  r.state = 4;
  r.nearby_txr = 1234;
  const std::string epoch9 = fa::serve::wire::encode(fa::serve::Response{r});
  r.epoch = 1;
  const std::string epoch1 = fa::serve::wire::encode(fa::serve::Response{r});
  std::string flipped = epoch1;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  const std::string body = "{\"epoch\":1,\"nearby_txr\":1234}";
  std::string body_flipped = body;
  body_flipped[20] = static_cast<char>(body_flipped[20] ^ 0x01);

  bool ok = check(replies_match(epoch1, epoch1, false, false), "compare: identical binary replies match");
  ok &= check(!replies_match(epoch1, flipped, false, false), "compare: one flipped byte is a mismatch");
  ok &= check(!replies_match(epoch1, flipped, false, true),
              "compare: one flipped byte is a mismatch with the epoch ignored");
  ok &= check(!replies_match(epoch9, epoch1, false, false), "compare: another epoch is a mismatch");
  ok &= check(replies_match(epoch9, epoch1, false, true),
              "compare: restart comparison ignores only the epoch");
  ok &= check(reply_epoch(epoch9, false) == 9 && reply_epoch(body, true) == 1,
              "compare: epoch read from binary and HTTP replies");
  ok &= check(!replies_match(body, body_flipped, true, false),
              "compare: one flipped byte in an HTTP body is a mismatch");
  ok &= check(!replies_match("", "", false, false), "compare: no expected answer never matches");
  return ok;
}

}  // namespace

int run_selftest(const Options&) {
  bool ok = stall_test();
  ok &= close_test();
  ok &= compare_test();
  std::printf("selftest: %s\n", ok ? "all passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace perfbench
