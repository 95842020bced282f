// Closed-loop socket load generator for the fa::net front door.
//
// Where bench_serve_qps measures the in-process serve::Server, this
// bench measures the full networked path: framed requests over real
// loopback TCP connections through the epoll IO thread, admission
// control, and the worker pool. Two phases:
//
//   throughput  1/2/4/8 client threads (one connection each) against a
//               generously-queued server, after one pass over the
//               request pool filled the cache — QPS and p50/p99 latency
//               of accepted replies, zero sheds expected. Every reply
//               of the phase, the filling misses included, must be
//               answered on the IO thread: pool_replies == 0
//               (NetServer::stats, counted whatever FA_OBS says)
//   saturation  many closed-loop clients, each call a distinct small
//               ensemble query (pool work, and a miss), against 1
//               worker and a tiny admission queue — BUSY sheds must
//               rise while the p99 of *accepted* replies stays bounded
//               (the reject path is cheap and never queues behind real
//               work). A Server::rebuild() starts once accepted replies
//               are flowing, and the clients keep calling with fresh
//               distinct ensembles until the rebuilt epoch has
//               answered, so the swap lands mid-overload with every
//               accepted response epoch-pure
//
// The exit code is non-zero unless the rebuild succeeded, accepted
// replies came from both the old and the rebuilt epoch and from no
// other, shedding was demonstrated, and no throughput-phase reply went
// through the pool.
//
// Sizes for smoke runs come from the environment:
//   FA_NET_WORKERS         throughput-phase worker threads (default 4)
//   FA_NET_PER_THREAD      queries per client thread        (default 600)
//   FA_NET_SAT_CLIENTS     saturation client threads        (default 16)
//   FA_NET_SAT_PER_THREAD  saturation queries per client    (default 400)
//   FA_NET_SAT_QUEUE       saturation admission queue cap   (default 4)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"

namespace {

using namespace fa;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0'
             ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10))
             : fallback;
}

// The i-th request of a mixed-shape stream. Same spatial envelope as
// bench_serve_qps so the two benches stress the same snapshot regions;
// coordinates are continuous, so two seeds share no query.
serve::Request mixed_request(std::mt19937_64& rng, std::size_t i) {
  std::uniform_real_distribution<double> lon(-122.0, -70.0);
  std::uniform_real_distribution<double> lat(26.0, 48.0);
  switch (i % 4) {
    case 0:
    case 1:
      return serve::PointRiskQuery{{lon(rng), lat(rng)}, 40e3};
    case 2: {
      const double x = lon(rng);
      const double y = lat(rng);
      return serve::BBoxAggregateQuery{{x, y, x + 2.0, y + 1.5}};
    }
    default:
      return serve::TopKSitesQuery{{lon(rng), lat(rng)}, 75e3, 10};
  }
}

// The i-th request of the saturation stream: a small fire-season
// ensemble, which the front door hands to its worker pool. A 64-bit
// seed per call, so two calls share no cache entry.
serve::Request ensemble_request(std::mt19937_64& rng, std::size_t) {
  return serve::EnsembleSummaryQuery{1, rng()};
}

using MakeRequest = serve::Request (*)(std::mt19937_64&, std::size_t);

std::vector<serve::Request> request_pool(std::size_t distinct,
                                         std::uint64_t seed,
                                         MakeRequest make) {
  std::mt19937_64 rng(seed);
  std::vector<serve::Request> pool;
  pool.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    pool.push_back(make(rng, i));
  }
  return pool;
}

std::uint64_t response_epoch(const serve::Response& response) {
  return std::visit([](const auto& r) { return r.epoch; }, response);
}

struct LoadStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;       // BUSY replies
  std::uint64_t rejected = 0;   // any other wire error
  double qps = 0.0;             // accepted replies per wall second
  double p50_us = 0.0;          // of accepted replies
  double p99_us = 0.0;
  std::uint64_t min_epoch = 0;
  std::uint64_t max_epoch = 0;
};

// How a client picks its next request from the pool.
enum class Draw : std::uint8_t {
  kRepeat,    // sample with repetition
  kDistinct,  // client t walks its own slice: every call a new query
};

// A saturation run as a concurrent observer sees it. While `extend` is
// set, a client that has made its `per_thread` calls keeps calling with
// fresh ensembles (pool work) from its own stream, so the overload
// lasts as long as the observer needs it to.
struct LiveLoad {
  std::atomic<bool> extend{false};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> newest_epoch{0};
};

// `threads` closed-loop clients, one connection each, `per_thread`
// framed calls per client (more while `live->extend` holds).
// BUSY/RATE_LIMITED are answers (counted, not retried); a transport
// failure aborts the bench.
LoadStats run_load(std::uint16_t port, const std::vector<serve::Request>& pool,
                   int threads, std::size_t per_thread, Draw draw,
                   LiveLoad* live = nullptr) {
  using Clock = std::chrono::steady_clock;
  struct PerThread {
    std::vector<std::uint64_t> latencies_ns;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t min_epoch = ~0ull;
    std::uint64_t max_epoch = 0;
  };
  std::vector<PerThread> per(static_cast<std::size_t>(threads));
  std::atomic<bool> start{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      fault::Result<net::Client> conn = net::Client::connect("127.0.0.1", port);
      if (!conn.ok()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     conn.status().to_string().c_str());
        std::abort();
      }
      net::Client client = std::move(conn).take();
      std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(t));
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      std::mt19937_64 fresh(1'800'000 + static_cast<std::uint64_t>(t));
      PerThread& mine = per[static_cast<std::size_t>(t)];
      mine.latencies_ns.reserve(per_thread);
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0;
           i < per_thread ||
           (live && live->extend.load(std::memory_order_acquire));
           ++i) {
        const serve::Request req =
            i >= per_thread ? ensemble_request(fresh, i)
            : draw == Draw::kDistinct
                ? pool[static_cast<std::size_t>(t) * per_thread + i]
                : pool[pick(rng)];
        const Clock::time_point t0 = Clock::now();
        fault::Result<net::Client::Reply> reply = client.call(req);
        const Clock::time_point t1 = Clock::now();
        if (!reply.ok()) {
          std::fprintf(stderr, "call failed: %s\n",
                       reply.status().to_string().c_str());
          std::abort();
        }
        const net::Client::Reply& r = reply.value();
        if (r.ok()) {
          mine.latencies_ns.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
          const std::uint64_t epoch = response_epoch(*r.response);
          mine.min_epoch = std::min(mine.min_epoch, epoch);
          mine.max_epoch = std::max(mine.max_epoch, epoch);
          if (live) {
            live->accepted.fetch_add(1, std::memory_order_relaxed);
            std::uint64_t seen = live->newest_epoch.load();
            while (seen < epoch &&
                   !live->newest_epoch.compare_exchange_weak(seen, epoch)) {
            }
          }
        } else if (r.error->code == net::ErrorCode::kBusy) {
          ++mine.shed;
        } else {
          ++mine.rejected;
        }
      }
    });
  }
  const Clock::time_point wall0 = Clock::now();
  start.store(true, std::memory_order_release);
  for (std::thread& c : clients) c.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  LoadStats stats;
  std::vector<std::uint64_t> all;
  stats.min_epoch = ~0ull;
  for (const PerThread& mine : per) {
    all.insert(all.end(), mine.latencies_ns.begin(), mine.latencies_ns.end());
    stats.shed += mine.shed;
    stats.rejected += mine.rejected;
    stats.min_epoch = std::min(stats.min_epoch, mine.min_epoch);
    stats.max_epoch = std::max(stats.max_epoch, mine.max_epoch);
  }
  stats.accepted = all.size();
  if (stats.min_epoch == ~0ull) stats.min_epoch = 0;
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    const auto pct = [&all](double p) {
      const std::size_t i = static_cast<std::size_t>(
          p * static_cast<double>(all.size() - 1));
      return static_cast<double>(all[i]) * 1e-3;  // ns -> us
    };
    stats.p50_us = pct(0.50);
    stats.p99_us = pct(0.99);
  }
  stats.qps = wall_s > 0.0
                  ? static_cast<double>(stats.accepted) / wall_s
                  : 0.0;
  return stats;
}

}  // namespace

int main() {
  bench::Stopwatch run_timer;
  const synth::ScenarioConfig cfg = bench::bench_scenario();
  std::printf("== Serve net: closed-loop socket load on the front door ==\n");
  std::printf(
      "scenario: seed=%llu  whp_cell=%.0fm  corpus=1/%.0f of 5,364,949 "
      "(%zu transceivers)\n",
      static_cast<unsigned long long>(cfg.seed), cfg.whp_cell_m,
      cfg.corpus_scale, cfg.corpus_size());

  const std::size_t workers = env_size("FA_NET_WORKERS", 4);
  const std::size_t per_thread = env_size("FA_NET_PER_THREAD", 600);
  const std::size_t sat_clients = env_size("FA_NET_SAT_CLIENTS", 16);
  const std::size_t sat_per_thread = env_size("FA_NET_SAT_PER_THREAD", 400);
  const std::size_t sat_queue = env_size("FA_NET_SAT_QUEUE", 4);

  constexpr std::size_t kDistinct = 192;
  const std::vector<serve::Request> pool =
      request_pool(kDistinct, 5'364'949, mixed_request);
  const std::vector<serve::Request> sat_pool = request_pool(
      sat_clients * sat_per_thread, 20'250'107, ensemble_request);

  bench::Stopwatch build_timer;
  serve::Server backend(cfg);
  std::printf("snapshot build: %.2fs (epoch %llu)\n\n", build_timer.seconds(),
              static_cast<unsigned long long>(backend.epoch()));

  // -- throughput phase ------------------------------------------------
  std::printf("[throughput] %zu workers, queue 256, %zu calls per client, "
              "warm cache\n",
              workers, per_thread);
  core::TextTable table(
      {"Threads", "QPS", "p50 (us)", "p99 (us)", "Accepted", "Shed"});
  io::JsonArray rows;
  net::NetServerStats phase;
  {
    net::NetServerOptions options;
    options.workers = static_cast<int>(workers);
    options.queue_capacity = 256;
    net::NetServer front(backend, options);
    // One pass over the pool fills the cache in the binary codec: every
    // call a miss, evaluated on the IO thread like the hits after it.
    (void)run_load(front.port(), pool, 1, kDistinct, Draw::kDistinct);
    for (const int threads : {1, 2, 4, 8}) {
      const LoadStats r =
          run_load(front.port(), pool, threads, per_thread, Draw::kRepeat);
      table.add_row({std::to_string(threads), core::fmt_double(r.qps, 0),
                     core::fmt_double(r.p50_us, 1),
                     core::fmt_double(r.p99_us, 1),
                     std::to_string(r.accepted), std::to_string(r.shed)});
      rows.push_back(io::JsonObject{
          {"threads", threads},
          {"qps", r.qps},
          {"p50_us", r.p50_us},
          {"p99_us", r.p99_us},
          {"accepted", static_cast<double>(r.accepted)},
          {"shed", static_cast<double>(r.shed)}});
    }
    phase = front.stats();  // this server answered the phase and nothing else
    front.shutdown(/*drain=*/true);
  }
  std::printf("%s\n", table.str().c_str());
  const bool inline_ok = phase.inline_replies > 0 && phase.pool_replies == 0;
  std::printf("  throughput phase: %llu replies on the IO thread, %llu "
              "through the pool — %s\n\n",
              static_cast<unsigned long long>(phase.inline_replies),
              static_cast<unsigned long long>(phase.pool_replies),
              inline_ok ? "ok" : "SERVING QUERIES WAITED FOR A WORKER");

  // -- saturation phase ------------------------------------------------
  // One worker, a tiny admission queue, and more closed-loop clients
  // than the queue can hold, each calling for pool work: overflow
  // arrivals must be shed with cheap BUSY frames while a rebuild()
  // races the overload.
  std::printf("[saturation] 1 worker, queue %zu, %zu clients x %zu distinct "
              "ensemble calls, rebuild() mid-flight\n",
              sat_queue, sat_clients, sat_per_thread);
  LoadStats sat;
  const std::uint64_t start_epoch = backend.epoch();
  std::uint64_t final_epoch = 0;
  bool rebuild_ok = false;
  {
    net::NetServerOptions options;
    options.workers = 1;
    options.queue_capacity = sat_queue;
    net::NetServer front(backend, options);
    LiveLoad live;
    live.extend = true;
    std::thread rebuilder([&] {
      // Bounded waits: a server that stops answering fails the bench
      // instead of hanging it.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      const auto wait_while = [&](auto&& pending) {
        while (pending() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
      // Start once saturation replies are flowing...
      wait_while([&] { return live.accepted.load() < sat_clients; });
      rebuild_ok = backend.rebuild(cfg).ok();
      // ...and keep the clients calling until the rebuilt epoch has
      // answered.
      wait_while([&] {
        return rebuild_ok && live.newest_epoch.load() < backend.epoch();
      });
      live.extend = false;
    });
    sat = run_load(front.port(), sat_pool, static_cast<int>(sat_clients),
                   sat_per_thread, Draw::kDistinct, &live);
    rebuilder.join();
    front.shutdown(/*drain=*/true);
  }
  final_epoch = backend.epoch();
  // Every accepted reply carries an epoch that existed while it was in
  // flight: nothing older than the starting snapshot, nothing newer
  // than the swapped-in one, no torn mixtures (the response types are
  // epoch-stamped by the snapshot they were answered from). Both
  // epochs must have answered, or the swap never met the overload.
  const bool epoch_pure = sat.accepted > 0 && sat.min_epoch >= start_epoch &&
                          sat.max_epoch <= final_epoch;
  const bool both_epochs = final_epoch > start_epoch &&
                           sat.min_epoch == start_epoch &&
                           sat.max_epoch == final_epoch;
  const bool shed_demonstrated = sat.shed > 0 && sat.accepted > 0;
  std::printf("  accepted %llu (p99 %.1f us)  shed %llu  rejected %llu\n",
              static_cast<unsigned long long>(sat.accepted), sat.p99_us,
              static_cast<unsigned long long>(sat.shed),
              static_cast<unsigned long long>(sat.rejected));
  std::printf("  rebuild %s; epochs seen [%llu, %llu], final %llu — %s, %s\n",
              rebuild_ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(sat.min_epoch),
              static_cast<unsigned long long>(sat.max_epoch),
              static_cast<unsigned long long>(final_epoch),
              epoch_pure ? "epoch-pure" : "EPOCH VIOLATION",
              both_epochs ? "both epochs answered"
                          : "REBUILD MISSED THE LOAD");
  std::printf("  load shedding %s\n\n",
              shed_demonstrated ? "demonstrated (BUSY while accepted flow)"
                                : "NOT demonstrated");

  io::JsonObject saturation;
  saturation["clients"] = static_cast<double>(sat_clients);
  saturation["queue_capacity"] = static_cast<double>(sat_queue);
  saturation["accepted"] = static_cast<double>(sat.accepted);
  saturation["shed"] = static_cast<double>(sat.shed);
  saturation["accepted_p99_us"] = sat.p99_us;
  saturation["rebuild_ok"] = rebuild_ok;
  saturation["final_epoch"] = static_cast<double>(final_epoch);
  saturation["epoch_pure"] = epoch_pure;
  saturation["both_epochs"] = both_epochs;

  io::JsonObject payload;
  payload["workers"] = static_cast<double>(workers);
  payload["per_thread"] = static_cast<double>(per_thread);
  payload["distinct_queries"] = static_cast<double>(kDistinct);
  payload["shed_demonstrated"] = shed_demonstrated;
  payload["inline_replies"] = static_cast<double>(phase.inline_replies);
  payload["pool_replies"] = static_cast<double>(phase.pool_replies);
  payload["inline_ok"] = inline_ok;
  payload["rows"] = io::JsonValue{std::move(rows)};
  payload["saturation"] = io::JsonValue{std::move(saturation)};
  bench::print_json_trailer("serve_net", io::JsonValue{std::move(payload)},
                            &run_timer);
  return epoch_pure && both_epochs && rebuild_ok && shed_demonstrated &&
                 inline_ok
             ? 0
             : 1;
}
