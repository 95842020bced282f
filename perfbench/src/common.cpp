// Clocks, seeded randomness, request mixes, the fa_served child handle
// and the result printer.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "serve/wire.hpp"

namespace perfbench {

double now_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

void wait_until(double deadline_s) {
  // A sleeping virtual CPU can wake milliseconds late on a busy host, and
  // the open-loop schedule would count that as generator lateness. So
  // sleep only through gaps longer than kSleepAbove, to within kYieldFor
  // of the deadline, and yield-spin the rest: the sender stays runnable
  // (its CPU never idles) but gives way to any other runnable thread.
  constexpr double kSleepAbove = 2e-3;
  constexpr double kYieldFor = 1e-3;
  const double left = deadline_s - now_s();
  if (left > kSleepAbove) {
    const double wake = deadline_s - kYieldFor;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wake);
    ts.tv_nsec = static_cast<long>((wake - double(ts.tv_sec)) * 1e9);
    ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
  }
  while (now_s() < deadline_s) ::sched_yield();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t h) { return double(h >> 11) * 0x1.0p-53; }

double Rng::exp_gap(double rate) {
  return -std::log(1.0 - uniform()) / rate;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(std::ceil(p * double(v.size()))) -
                        (p > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double PhaseResult::steal_share() const {
  if (steal_jiffies.size() < 2) return 0.0;
  const double stolen_s = double(steal_jiffies.back() - steal_jiffies.front()) /
                          double(::sysconf(_SC_CLK_TCK));
  const double cpu_s = kStealSliceS * double(steal_jiffies.size() - 1) *
                       double(::sysconf(_SC_NPROCESSORS_ONLN));
  return stolen_s / cpu_s;
}

const char* op_name(Op op) {
  switch (op) {
    case kPoint: return "point";
    case kBBox: return "bbox";
    case kTopK: return "topk";
    case kProvider: return "provider";
    case kScenario: return "scenario";
    case kNumOps: break;
  }
  return "?";
}

bool parse_mix(std::string_view text, MixSpec& spec) {
  spec.weight.fill(0.0);
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view tok = text.substr(0, comma);
    text = comma == std::string_view::npos ? "" : text.substr(comma + 1);
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos) return false;
    const std::string name(tok.substr(0, eq));
    const double w = std::atof(std::string(tok.substr(eq + 1)).c_str());
    int op = -1;
    for (int o = 0; o < kNumOps; ++o) {
      if (name == op_name(static_cast<Op>(o))) op = o;
    }
    if (op < 0 || !(w >= 0.0)) return false;
    spec.weight[op] = w;
  }
  double total = 0.0;
  for (const double w : spec.weight) total += w;
  if (!(total > 0.0)) return false;
  // The binary protocol has no scenario composite.
  return spec.http || spec.weight[kScenario] == 0.0;
}

// -- Mix -------------------------------------------------------------------

namespace {

struct Center {
  double lon, lat;
};
// Dashboard presets (the exemplar backend's quick locations) and the
// other metros a fire-season operations desk watches.
constexpr Center kHot[] = {{-121.62, 39.76},   // Paradise
                           {-118.24, 34.05},   // Los Angeles
                           {-122.42, 37.77},   // San Francisco
                           {-117.16, 32.72},   // San Diego
                           {-121.49, 38.58}};  // Sacramento
constexpr Center kMetros[] = {
    {-122.33, 47.61}, {-122.68, 45.52}, {-104.99, 39.74}, {-112.07, 33.45},
    {-115.14, 36.17}, {-111.89, 40.76}, {-116.20, 43.62}, {-119.81, 39.53},
    {-106.65, 35.08}, {-119.79, 36.74}, {-122.39, 40.59}, {-122.71, 38.44},
    {-97.74, 30.27},  {-84.39, 33.75},  {-80.19, 25.76},  {-87.63, 41.88},
    {-74.01, 40.71}};
constexpr std::size_t kPlaces = 1200;
constexpr double kGridDeg = 0.02;
// Western fire states (CA, OR, WA, ID, NV, UT, AZ, NM, CO, MT, WY).
constexpr double kWestLon0 = -124.5, kWestLon1 = -102.0;
constexpr double kWestLat0 = 31.3, kWestLat1 = 49.0;

constexpr double kNeighborhoodM = 40e3;
constexpr double kTopKRadiusM = 25e3;
constexpr std::uint32_t kTopKCount = 10;
constexpr double kPanHalfLon = 0.25, kPanHalfLat = 0.2;

double snap(double v) { return std::round(v / kGridDeg) * kGridDeg; }

std::string http_get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
}

}  // namespace

Mix::Mix(const MixSpec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {
  double total = 0.0;
  for (const double w : spec.weight) total += w;
  double acc = 0.0;
  for (int o = 0; o < kNumOps; ++o) {
    acc += spec.weight[o] / total;
    cdf_[o] = acc;
  }
  cdf_[kNumOps - 1] = 1.0;
  if (!spec.zipf_places) return;
  // ~kPlaces grid-snapped places, 60% around the hot presets; rank order
  // is generation order, so the seed decides which places are hottest.
  std::set<std::pair<long, long>> seen;
  for (std::uint64_t k = 0; places_.size() < kPlaces; ++k) {
    const std::uint64_t h = mix64(seed ^ (0x51ace5ULL + k * 0x9e37ULL));
    const Center c =
        unit(h) < 0.6 ? kHot[mix64(h + 1) % std::size(kHot)]
                      : kMetros[mix64(h + 2) % std::size(kMetros)];
    const double lon = snap(c.lon + (unit(mix64(h + 3)) - 0.5) * 1.2);
    const double lat = snap(c.lat + (unit(mix64(h + 4)) - 0.5) * 0.9);
    if (seen.insert({std::lround(lon / kGridDeg), std::lround(lat / kGridDeg)})
            .second) {
      places_.emplace_back(lon, lat);
    }
  }
  // Zipf(1) popularity over the ranks.
  zipf_cdf_.resize(places_.size());
  double z = 0.0;
  for (std::size_t r = 0; r < places_.size(); ++r) {
    z += 1.0 / double(r + 1);
    zipf_cdf_[r] = z;
  }
  for (double& v : zipf_cdf_) v /= z;
}

Item Mix::item(std::uint64_t i) const {
  const std::uint64_t h = mix64(seed_ * 0x2545f4914f6cdd1dULL ^ mix64(i));
  const double u = unit(h);
  Op op = kPoint;
  while (op + 1 < kNumOps && u >= cdf_[op]) op = static_cast<Op>(op + 1);
  double lon = 0.0, lat = 0.0;
  if (spec_.zipf_places) {
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                                     unit(mix64(h + 1)));
    const auto& p = places_[std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf_.begin()), places_.size() - 1)];
    lon = p.first;
    lat = p.second;
  } else {
    lon = kWestLon0 + unit(mix64(h + 1)) * (kWestLon1 - kWestLon0);
    lat = kWestLat0 + unit(mix64(h + 2)) * (kWestLat1 - kWestLat0);
  }
  Item it = render(op, lon, lat);
  if (op == kProvider) {
    const auto p = static_cast<fa::cellnet::Provider>(
        mix64(h + 5) % fa::cellnet::kNumProviders);
    it.bytes = spec_.http
                   ? http_get("/providers/" +
                              std::string(fa::net::provider_token(p)))
                   : fa::net::frame(fa::serve::wire::encode(
                         fa::serve::Request{fa::serve::ProviderExposureQuery{p}}));
  }
  return it;
}

std::vector<Item> Mix::catalog() const {
  std::vector<Item> out;
  if (!spec_.zipf_places) return out;
  for (const auto& [lon, lat] : places_) {
    for (const Op op : {kPoint, kBBox, kTopK}) {
      if (spec_.weight[op] > 0.0) out.push_back(render(op, lon, lat));
    }
  }
  return out;
}

Item Mix::probe() const {
  return render(kPoint, fa::net::kCampFireLon, fa::net::kCampFireLat);
}

Item Mix::render(Op op, double lon, double lat) const {
  Item it;
  it.op = op;
  if (!spec_.http) {
    fa::serve::Request q;
    switch (op) {
      case kPoint: q = fa::serve::PointRiskQuery{{lon, lat}, kNeighborhoodM}; break;
      case kBBox:
        q = fa::serve::BBoxAggregateQuery{{lon - kPanHalfLon, lat - kPanHalfLat,
                                           lon + kPanHalfLon, lat + kPanHalfLat}};
        break;
      case kTopK: q = fa::serve::TopKSitesQuery{{lon, lat}, kTopKRadiusM, kTopKCount}; break;
      default: q = fa::serve::ProviderExposureQuery{}; break;
    }
    it.bytes = fa::net::frame(fa::serve::wire::encode(q));
    return it;
  }
  char buf[160];
  switch (op) {
    case kPoint: {
      const int n = std::snprintf(buf, sizeof buf,
                                  "{\"lon\":%.3f,\"lat\":%.3f,\"neighborhood_m\":%.0f}",
                                  lon, lat, kNeighborhoodM);
      it.bytes = "POST /risk HTTP/1.1\r\nHost: perfbench\r\n"
                 "Content-Type: application/json\r\nContent-Length: " +
                 std::to_string(n) + "\r\n\r\n" + buf;
      break;
    }
    case kBBox:
      std::snprintf(buf, sizeof buf, "/assets?bbox=%.3f,%.3f,%.3f,%.3f",
                    lon - kPanHalfLon, lat - kPanHalfLat, lon + kPanHalfLon,
                    lat + kPanHalfLat);
      it.bytes = http_get(buf);
      break;
    case kTopK:
      std::snprintf(buf, sizeof buf, "/fires?lon=%.3f&lat=%.3f&radius_m=%.0f&k=%u",
                    lon, lat, kTopKRadiusM, kTopKCount);
      it.bytes = http_get(buf);
      break;
    case kScenario: it.bytes = http_get("/scenario/camp-fire-2018"); break;
    default: it.bytes = http_get("/providers/att"); break;
  }
  return it;
}

// -- Child -----------------------------------------------------------------

Child::~Child() { kill(); }

bool Child::start(const std::vector<std::string>& argv, double timeout_s,
                  std::string& error) {
  int out[2], err[2];
  if (::pipe2(out, O_CLOEXEC) != 0 || ::pipe2(err, O_CLOEXEC) != 0) {
    error = "pipe failed";
    return false;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  spawn_s_ = now_s();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Child: die with the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], 1);
    ::dup2(err[1], 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ::close(err[1]);
  out_fd_ = out[0];
  err_fd_ = err[0];
  if (pid_ < 0) {
    error = "cannot fork for " + argv[0];
    return false;
  }
  std::string line;
  const double deadline = spawn_s_ + timeout_s;
  while (now_s() < deadline) {
    pollfd fds[2] = {{out_fd_, POLLIN, 0}, {err_fd_, POLLIN, 0}};
    ::poll(fds, 2, 50);
    char buf[4096];
    if (fds[1].revents & (POLLIN | POLLHUP)) {
      const ssize_t n = ::read(err_fd_, buf, sizeof buf);
      if (n > 0) note_stderr({buf, static_cast<std::size_t>(n)});
    }
    if (fds[0].revents & (POLLIN | POLLHUP)) {
      // Byte-at-a-time until the newline: nothing after the port line
      // may be swallowed.
      const ssize_t n = ::read(out_fd_, buf, 1);
      if (n <= 0) {
        error = "fa_served exited before announcing its port: " + err_tail_;
        kill();
        return false;
      }
      if (buf[0] != '\n') {
        line.push_back(buf[0]);
        continue;
      }
      unsigned port = 0;
      if (std::sscanf(line.c_str(), "fa_served: port %u", &port) == 1) {
        port_ = static_cast<std::uint16_t>(port);
        return true;
      }
      line.clear();
    }
  }
  error = "fa_served did not announce a port in time: " + err_tail_;
  kill();
  return false;
}

double Child::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Child::cpu_s() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after "(comm)": state is field 3, utime 14, stime 15.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int f = 3; f <= 15 && rest >> field; ++f) {
    if (f == 14) utime = std::atof(field.c_str());
    if (f == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / double(::sysconf(_SC_CLK_TCK));
}

void Child::kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  if (err_fd_ >= 0) ::close(err_fd_);
  out_fd_ = err_fd_ = -1;
}

void Child::note_stderr(std::string_view chunk) {
  err_tail_.append(chunk);
  if (err_tail_.size() > 4096) err_tail_.erase(0, err_tail_.size() - 4096);
}

// -- Report ----------------------------------------------------------------

void Report::print() const {
  for (const std::string& n : notes) std::printf("%s\n", n.c_str());
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
