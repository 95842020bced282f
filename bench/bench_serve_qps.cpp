// Closed-loop load generator for the fa::serve query layer.
//
// Builds one snapshot per server mode and drives it with 1/2/4/8 client
// threads, each issuing queries back-to-back (closed loop: the next
// request leaves when the previous answer lands) for a fixed wall time
// per row. Two configurations per thread count:
//
//   direct   cache disabled — every request recomputes (the baseline)
//   cached   sharded LRU on, fully warmed over the repeated-query pool
//
// The workload repeats a fixed pool of mixed-shape queries, the regime
// the result cache is built for; the trailer reports QPS, p50/p99
// latency and the query count per row, whether cache-on beat cache-off
// at every thread count, and the fewest queries any client thread
// answered in any row (queries_per_thread).
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

// Wall time of one row: long enough that even the slowest row answers
// tens of thousands of queries per client, so host scheduling noise
// averages out within the row.
constexpr std::chrono::milliseconds kRowTime{500};

struct LoadResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;  // of this run's cache lookups
  std::size_t queries = 0;
  std::size_t min_per_thread = 0;  // fewest answered by one client
};

// Runs `threads` closed-loop clients until kRowTime has passed.
LoadResult run_load(serve::Server& server, const std::vector<AnyQuery>& pool,
                    int threads) {
  using Clock = std::chrono::steady_clock;
  // The cache's own tallies: exact whether or not FA_OBS is on.
  const serve::ShardedCache::Stats before = server.cache_stats();

  std::vector<std::vector<std::uint64_t>> latencies(
      static_cast<std::size_t>(threads));
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(t));
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      std::vector<std::uint64_t>& out =
          latencies[static_cast<std::size_t>(t)];
      out.reserve(1 << 18);
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
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
  std::this_thread::sleep_for(kRowTime);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& c : clients) c.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  LoadResult result;
  result.min_per_thread = latencies.front().size();
  std::vector<std::uint64_t> all;
  for (const std::vector<std::uint64_t>& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
    result.min_per_thread = std::min(result.min_per_thread, v.size());
  }
  std::sort(all.begin(), all.end());
  const auto pct = [&all](double p) {
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(all.size() - 1));
    return static_cast<double>(all[i]) * 1e-3;  // ns -> us
  };
  result.queries = all.size();
  result.qps = wall_s > 0.0 ? static_cast<double>(all.size()) / wall_s : 0.0;
  result.p50_us = pct(0.50);
  result.p99_us = pct(0.99);
  const serve::ShardedCache::Stats after = server.cache_stats();
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
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
  const std::vector<AnyQuery> pool = query_pool(kDistinct);

  struct Mode {
    const char* name;
    bool cache;
  };
  const Mode modes[] = {{"direct", false}, {"cached", true}};
  const int thread_counts[] = {1, 2, 4, 8};

  std::printf("workload: %zu distinct queries, %lld ms per row, closed "
              "loop\n\n",
              kDistinct, static_cast<long long>(kRowTime.count()));

  core::TextTable table({"Mode", "Threads", "QPS", "p50 (us)", "p99 (us)",
                         "Hit rate", "Queries"});
  io::JsonArray rows;
  // qps[mode][threads-row]
  double qps[2][4] = {};
  std::size_t min_per_thread = ~std::size_t{0};
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
      const LoadResult r = run_load(server, pool, threads);
      qps[m][t] = r.qps;
      min_per_thread = std::min(min_per_thread, r.min_per_thread);
      table.add_row({mode.name, std::to_string(threads),
                     core::fmt_double(r.qps, 0),
                     core::fmt_double(r.p50_us, 1),
                     core::fmt_double(r.p99_us, 1),
                     core::fmt_double(100.0 * r.hit_rate, 1) + "%",
                     std::to_string(r.queries)});
      rows.push_back(io::JsonObject{{"mode", std::string(mode.name)},
                                    {"threads", threads},
                                    {"cache", mode.cache},
                                    {"qps", r.qps},
                                    {"p50_us", r.p50_us},
                                    {"p99_us", r.p99_us},
                                    {"hit_rate", r.hit_rate},
                                    {"queries", static_cast<double>(r.queries)}});
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
  payload["queries_per_thread"] = static_cast<double>(min_per_thread);
  payload["row_seconds"] = kRowTime.count() * 1e-3;
  payload["cache_on_beats_off"] = cache_wins;
  payload["rows"] = io::JsonValue{std::move(rows)};
  bench::print_json_trailer("serve_qps", io::JsonValue{std::move(payload)},
                            &run_timer);
  return 0;
}
