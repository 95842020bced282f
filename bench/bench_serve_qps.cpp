// Closed-loop load generator for the fa::serve query layer.
//
// Builds one snapshot per server mode and drives it with 1/2/4/8 client
// threads, each issuing a fixed count of queries back-to-back (closed
// loop: the next request leaves when the previous answer lands). Two
// configurations per thread count:
//
//   direct   cache disabled — every request recomputes (the baseline)
//   cached   sharded LRU on, fully warmed over the repeated-query pool
//
// The workload repeats a fixed pool of mixed-shape queries, the regime
// the result cache is built for; the trailer reports QPS and p50/p99
// latency per row plus whether cache-on beat cache-off at every thread
// count (the PR's acceptance gate).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <thread>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "exec/exec.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

using namespace fa;

using AnyQuery = std::variant<serve::PointRiskQuery, serve::BBoxAggregateQuery,
                              serve::ProviderExposureQuery,
                              serve::TopKSitesQuery>;

// Fixed pool of distinct queries; clients sample it with repetition.
// Shapes carry real evaluation cost (index probes + haversine filters),
// so a cache hit has something to win against.
std::vector<AnyQuery> query_pool(std::size_t distinct) {
  std::mt19937_64 rng(5'364'949);
  std::uniform_real_distribution<double> lon(-122.0, -70.0);
  std::uniform_real_distribution<double> lat(26.0, 48.0);
  std::vector<AnyQuery> pool;
  pool.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    switch (i % 4) {
      case 0:
      case 1:  // point-heavy mix
        pool.push_back(
            serve::PointRiskQuery{{lon(rng), lat(rng)}, 40e3});
        break;
      case 2: {
        const double x = lon(rng);
        const double y = lat(rng);
        pool.push_back(serve::BBoxAggregateQuery{{x, y, x + 2.0, y + 1.5}});
        break;
      }
      default:
        pool.push_back(serve::TopKSitesQuery{{lon(rng), lat(rng)}, 75e3, 10});
        break;
    }
  }
  return pool;
}

serve::PointRiskResponse ask(serve::Server& server, const AnyQuery& q) {
  return std::visit(
      [&](const auto& query) -> serve::PointRiskResponse {
        using Q = std::decay_t<decltype(query)>;
        serve::PointRiskResponse sink;  // per-type epochs folded into one
        if constexpr (std::is_same_v<Q, serve::PointRiskQuery>) {
          sink = server.point_risk(query);
        } else if constexpr (std::is_same_v<Q, serve::BBoxAggregateQuery>) {
          sink.epoch = server.bbox_aggregate(query).epoch;
        } else if constexpr (std::is_same_v<Q, serve::ProviderExposureQuery>) {
          sink.epoch = server.provider_exposure(query).epoch;
        } else {
          sink.epoch = server.top_k_sites(query).epoch;
        }
        return sink;
      },
      q);
}

struct LoadResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;  // of this run's cache lookups
};

// Runs `threads` closed-loop clients for `per_thread` queries each.
LoadResult run_load(serve::Server& server, obs::Registry& registry,
                    const std::vector<AnyQuery>& pool, int threads,
                    std::size_t per_thread) {
  using Clock = std::chrono::steady_clock;
  const std::uint64_t hits0 =
      registry.counter(obs::metrics::kServeCacheHits).value();
  const std::uint64_t misses0 =
      registry.counter(obs::metrics::kServeCacheMisses).value();

  std::vector<std::vector<std::uint64_t>> latencies(
      static_cast<std::size_t>(threads));
  std::atomic<bool> start{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(t));
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      std::vector<std::uint64_t>& out =
          latencies[static_cast<std::size_t>(t)];
      out.reserve(per_thread);
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; i < per_thread; ++i) {
        const AnyQuery& q = pool[pick(rng)];
        const Clock::time_point t0 = Clock::now();
        const serve::PointRiskResponse r = ask(server, q);
        const Clock::time_point t1 = Clock::now();
        if (r.epoch == 0) std::abort();  // a served response is never epoch 0
        out.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
    });
  }
  const Clock::time_point wall0 = Clock::now();
  start.store(true, std::memory_order_release);
  for (std::thread& c : clients) c.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  std::vector<std::uint64_t> all;
  all.reserve(static_cast<std::size_t>(threads) * per_thread);
  for (const std::vector<std::uint64_t>& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  const auto pct = [&all](double p) {
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(all.size() - 1));
    return static_cast<double>(all[i]) * 1e-3;  // ns -> us
  };
  LoadResult result;
  result.qps = wall_s > 0.0 ? static_cast<double>(all.size()) / wall_s : 0.0;
  result.p50_us = pct(0.50);
  result.p99_us = pct(0.99);
  const std::uint64_t hits =
      registry.counter(obs::metrics::kServeCacheHits).value() - hits0;
  const std::uint64_t misses =
      registry.counter(obs::metrics::kServeCacheMisses).value() - misses0;
  result.hit_rate = hits + misses > 0
                        ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  return result;
}

}  // namespace

int main() {
  bench::Stopwatch run_timer;
  const synth::ScenarioConfig cfg = bench::bench_scenario();
  std::printf("== Serve QPS: closed-loop load on the fa::serve layer ==\n");
  std::printf(
      "scenario: seed=%llu  whp_cell=%.0fm  corpus=1/%.0f of 5,364,949 "
      "(%zu transceivers)\n",
      static_cast<unsigned long long>(cfg.seed), cfg.whp_cell_m,
      cfg.corpus_scale, cfg.corpus_size());
  std::printf("host: %u hardware threads, pool of %d workers\n",
              std::thread::hardware_concurrency(),
              exec::ThreadPool::global().max_workers());

  constexpr std::size_t kDistinct = 192;
  constexpr std::size_t kPerThread = 1200;
  const std::vector<AnyQuery> pool = query_pool(kDistinct);

  struct Mode {
    const char* name;
    bool cache;
  };
  const Mode modes[] = {{"direct", false}, {"cached", true}};
  const int thread_counts[] = {1, 2, 4, 8};

  std::printf("workload: %zu distinct queries, %zu per client thread, "
              "closed loop\n\n", kDistinct, kPerThread);

  core::TextTable table(
      {"Mode", "Threads", "QPS", "p50 (us)", "p99 (us)", "Hit rate"});
  io::JsonArray rows;
  // qps[mode][threads-row]
  double qps[2][4] = {};
  for (std::size_t m = 0; m < 2; ++m) {
    const Mode& mode = modes[m];
    obs::Registry registry;
    serve::ServerOptions options;
    options.cache_enabled = mode.cache;
    options.registry = &registry;
    bench::Stopwatch build_timer;
    serve::Server server(cfg, options);
    std::printf("[%s] snapshot build: %.2fs (epoch %llu)\n", mode.name,
                build_timer.seconds(),
                static_cast<unsigned long long>(server.epoch()));
    if (mode.cache) {
      // Warm the cache over the whole pool so every timed row measures
      // the steady state rather than the first pass's compulsory misses.
      for (const AnyQuery& q : pool) (void)ask(server, q);
    }
    for (std::size_t t = 0; t < 4; ++t) {
      const int threads = thread_counts[t];
      const LoadResult r =
          run_load(server, registry, pool, threads, kPerThread);
      qps[m][t] = r.qps;
      table.add_row({mode.name, std::to_string(threads),
                     core::fmt_double(r.qps, 0),
                     core::fmt_double(r.p50_us, 1),
                     core::fmt_double(r.p99_us, 1),
                     core::fmt_double(100.0 * r.hit_rate, 1) + "%"});
      rows.push_back(io::JsonObject{{"mode", std::string(mode.name)},
                                    {"threads", threads},
                                    {"cache", mode.cache},
                                    {"qps", r.qps},
                                    {"p50_us", r.p50_us},
                                    {"p99_us", r.p99_us},
                                    {"hit_rate", r.hit_rate}});
    }
  }
  std::printf("\n%s\n", table.str().c_str());

  bool cache_wins = true;
  for (std::size_t t = 0; t < 4; ++t) cache_wins &= qps[1][t] > qps[0][t];
  std::printf("cache-on %s cache-off QPS at every thread count\n",
              cache_wins ? "beats" : "DOES NOT beat");

  io::JsonObject payload;
  payload["hardware_threads"] =
      static_cast<int>(std::thread::hardware_concurrency());
  payload["pool_workers"] = exec::ThreadPool::global().max_workers();
  payload["distinct_queries"] = kDistinct;
  payload["queries_per_thread"] = kPerThread;
  payload["cache_on_beats_off"] = cache_wins;
  payload["rows"] = io::JsonValue{std::move(rows)};
  bench::print_json_trailer("serve_qps", io::JsonValue{std::move(payload)},
                            &run_timer);
  return 0;
}
