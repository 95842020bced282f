// The traced run: per-layer attribution for one workload.
//
// fa_served keeps its obs counters in-process and exposes none of them,
// so this run hosts the same serve::Server + net::NetServer pair inside
// the benchmark (configured like fa_served, fed by the same feed loop)
// and drives it with the same open-loop load. It then reads the obs
// registry and times the benchmark's own calls into each module's public
// functions. Every load phase, probe and client request is also recorded
// as an obs span, and the registry is written out as a chrome trace.
//
// An untraced reference phase against the real fa_served binary runs
// first, so the run can report its own tracing overhead.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "io/json.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/cache.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace m = fa::obs::metrics;

constexpr std::size_t kProbeItems = 2000;
constexpr int kPinIterations = 200'000;

// Counter and histogram values at one instant, for before/after diffs.
struct ObsState {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, fa::obs::HistogramSnapshot> histograms;

  static ObsState take() {
    ObsState s;
    const fa::obs::Registry& reg = fa::obs::Registry::global();
    s.counters = reg.counters();
    for (fa::obs::HistogramSnapshot& h : reg.histograms()) {
      std::string name = h.name;
      s.histograms.emplace(std::move(name), std::move(h));
    }
    return s;
  }
  std::uint64_t counter(std::string_view name) const {
    const auto it = counters.find(std::string(name));
    return it == counters.end() ? 0 : it->second;
  }
  fa::obs::HistogramSnapshot histogram(std::string_view name) const {
    const auto it = histograms.find(std::string(name));
    if (it != histograms.end()) return it->second;
    fa::obs::HistogramSnapshot empty;
    empty.buckets.assign(fa::obs::Histogram::kBuckets, 0);
    return empty;
  }
};

// after - before, per counter / histogram.
struct ObsDelta {
  ObsState a, b;
  double count(std::string_view name) const {
    return double(b.counter(name) - a.counter(name));
  }
  double hist_count(std::string_view name) const {
    return double(b.histogram(name).count - a.histogram(name).count);
  }
  double hist_sum(std::string_view name) const {
    return double(b.histogram(name).sum - a.histogram(name).sum);
  }
  double hist_mean(std::string_view name) const {
    const double n = hist_count(name);
    return n > 0 ? hist_sum(name) / n : 0.0;
  }
  // Upper edge of the power-of-two bucket holding the p-quantile.
  double hist_quantile(std::string_view name, double p) const {
    const fa::obs::HistogramSnapshot ha = a.histogram(name);
    const fa::obs::HistogramSnapshot hb = b.histogram(name);
    const double total = double(hb.count - ha.count);
    if (total <= 0) return 0.0;
    double acc = 0.0;
    for (int i = 0; i < fa::obs::Histogram::kBuckets; ++i) {
      acc += double(hb.buckets[static_cast<std::size_t>(i)] -
                    ha.buckets[static_cast<std::size_t>(i)]);
      if (acc >= p * total) return i == 0 ? 0.0 : std::ldexp(1.0, i);
    }
    return std::ldexp(1.0, fa::obs::Histogram::kBuckets);
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

// Decoded request of a binary item (frame prefix stripped).
fa::serve::Request request_of(const Item& item) {
  return fa::serve::wire::decode_request(std::string_view(item.bytes).substr(4))
      .value();
}

// Nanoseconds per call of `body` over `n` calls.
template <class F>
double ns_per(std::size_t n, F&& body) {
  const double t0 = now_s();
  body();
  return n ? (now_s() - t0) * 1e9 / double(n) : 0.0;
}

}  // namespace

Report run_traced(const Options& o) {
  Report rep;
  fa::obs::set_enabled(true);
  fa::obs::Registry& reg = fa::obs::Registry::global();
  const ServedConfig cfg = parse_served(o.served_args);
  const Mix mix(o.mix, o.seed);
  fs::create_directories(o.workdir);
  const bool restart = o.prepare_increments > 0;
  const std::string store = o.workdir + "/store-traced";
  fs::remove_all(store);

  fa::serve::ServerOptions so;
  so.sharded = cfg.sharded;
  if (cfg.store) so.store_dir = store;

  const ObsState start = ObsState::take();
  std::vector<FeedDriver::Step> steps;  // every in-process feed tick
  double save_ms = 0.0;
  ObsDelta build;  // around the world build (the prepare step on restart)

  // 1. Restart: prepare the store (build, save, K batches), as the
  //    untraced run does.
  if (restart) {
    const fa::obs::Span span("perfbench.prepare_store", reg);
    build.a = ObsState::take();
    fa::serve::Server prep(cfg.scenario, so);
    build.b = ObsState::take();
    const double t0 = now_s();
    if (!prep.save_snapshot().ok()) {
      rep.correct = false;
      rep.notes.push_back("perfbench: save_snapshot failed while preparing");
      return rep;
    }
    save_ms = (now_s() - t0) * 1e3;
    FeedDriver feed(prep, o.seed);
    for (int k = 0; k < o.prepare_increments; ++k) steps.push_back(feed.next_epoch());
  }

  // 2. Untraced reference: the real fa_served, one set-up, the nominal
  //    phase at 30% of the run.
  double p50_untraced = 0.0;
  PhaseResult reference;
  {
    const fa::obs::Span span("perfbench.reference_fa_served", reg);
    Child child;
    double setup = 0.0;
    std::string reply, error;
    const std::string ref_store = restart ? store : o.workdir + "/store-reference";
    if (!restart) fs::remove_all(ref_store);
    const std::vector<std::string> argv = served_argv(o, ref_store);
    rep.notes.push_back("perfbench: served: " + join(argv));
    if (!start_served(argv, mix, child, setup, reply, error)) {
      rep.correct = false;
      rep.notes.push_back("perfbench: " + error);
      return rep;
    }
    LoadEngine eng(child.port(), mix, o.seed, kConnections);
    const std::optional<PhaseResult> ref =
        warm_and_measure(eng, mix, o, 0.3 * o.seconds);
    if (!ref) {
      rep.correct = false;
      rep.notes.push_back("perfbench: reference run failed");
      return rep;
    }
    p50_untraced = percentile(ref->lat_us, 0.5);
    reference = *ref;
    child.kill();
    if (!restart) fs::remove_all(ref_store);
  }

  // 3. The in-process twin of fa_served.
  ObsDelta boot;
  boot.a = ObsState::take();
  const double boot_t0 = now_s();
  fa::serve::Server srv(cfg.scenario, so);
  const double boot_ms = (now_s() - boot_t0) * 1e3;
  boot.b = ObsState::take();
  if (!restart) build = boot;
  if (cfg.store && !restart) {
    const double t0 = now_s();
    if (srv.save_snapshot().ok()) save_ms = (now_s() - t0) * 1e3;
  }
  fa::net::NetServerOptions no;
  no.port = 0;
  no.workers = 4;
  no.queue_capacity = cfg.queue;
  fa::net::NetServer net(srv, no);

  // Stopped and joined on every way out of this function, before the
  // server and `steps` it uses are destroyed.
  struct FeedThread {
    std::atomic<bool> stop{false};
    std::thread thread;
    void join() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
    ~FeedThread() { join(); }
  } feed_thread;
  if (cfg.feed) {
    // fa_served's loop: one tick per interval, applies back to back.
    feed_thread.thread = std::thread([&] {
      FeedDriver feed(srv, o.seed);
      while (!feed_thread.stop.load()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(static_cast<long>(cfg.feed_interval_ms)));
        if (feed_thread.stop.load()) break;
        const fa::obs::Span span("perfbench.feed_tick", reg);
        steps.push_back(feed.tick());
      }
    });
  }

  // 4. Traced load: client spans per request, counters diffed around the
  //    measured phase.
  LoadEngine eng(net.port(), mix, o.seed, kConnections);
  const double clock_offset = double(reg.now_ns()) * 1e-9 - now_s();
  std::array<std::vector<double>, kNumOps> client_us;
  eng.set_reply_hook([&](Op op, double sched, double recv) {
    client_us[op].push_back((recv - sched) * 1e6);
    const auto start = static_cast<std::uint64_t>((sched + clock_offset) * 1e9);
    reg.record_span(std::string("perfbench.request.") + op_name(op), start,
                    static_cast<std::uint64_t>((recv - sched) * 1e9));
  });
  ObsDelta load;
  std::optional<PhaseResult> traced;
  {
    const fa::obs::Span span("perfbench.traced_load", reg);
    if (!eng.prefill(mix.catalog())) {
      rep.correct = false;
      rep.notes.push_back("perfbench: cache prefill failed");
      return rep;
    }
    eng.run(o.rate, 0.1 * o.seconds, grace_s(o));
    for (auto& v : client_us) v.clear();
    load.a = ObsState::take();
    traced = eng.run(o.rate, 0.3 * o.seconds, grace_s(o));
    load.b = ObsState::take();
  }
  const std::uint64_t epochs_live =
      1 + srv.snapshots().retired() - srv.snapshots().reclaimed();
  feed_thread.join();
  net.shutdown(true);

  // 5. Single-threaded probes of each module's public functions over the
  //    workload's own requests, in both encodings.
  MixSpec http_spec = o.mix, bin_spec = o.mix;
  http_spec.http = true;
  bin_spec.http = false;
  bin_spec.weight[kScenario] = 0.0;
  const Mix http_mix(http_spec, o.seed), bin_mix(bin_spec, o.seed);
  std::vector<Item> http_items, bin_items;
  std::vector<fa::serve::Request> requests;
  for (std::uint64_t i = 0; i < kProbeItems; ++i) {
    if (http_mix.item(i).op != kScenario) http_items.push_back(http_mix.item(i));
    bin_items.push_back(bin_mix.item(i));
    requests.push_back(request_of(bin_items.back()));
  }
  std::vector<fa::serve::Response> responses;
  std::array<std::vector<double>, kNumOps> handle_us;
  {
    const fa::obs::Span span("perfbench.probe.handle", reg);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const double t0 = now_s();
      responses.push_back(srv.handle(requests[i]));
      handle_us[bin_items[i].op].push_back((now_s() - t0) * 1e6);
    }
  }
  double parse_ns = 0.0, render_ns = 0.0, frame_ns = 0.0;
  {
    const fa::obs::Span span("perfbench.probe.net", reg);
    fa::net::HttpAssembler assembler;
    std::size_t routed = 0;
    parse_ns = ns_per(http_items.size(), [&] {
      for (const Item& it : http_items) {
        assembler.feed(it.bytes);
        auto next = assembler.next();
        if (next.ok() && next.value()) {
          routed += fa::net::route_http(*next.value()).kind ==
                    fa::net::HttpRoute::Kind::kQuery;
        }
      }
    });
    std::size_t bytes = 0;
    render_ns = ns_per(responses.size(), [&] {
      for (const fa::serve::Response& r : responses) {
        bytes += fa::net::http_response(
                     200, fa::io::to_json(fa::net::response_json(r)), true)
                     .size();
      }
    });
    fa::net::FrameAssembler frames;
    frame_ns = ns_per(bin_items.size(), [&] {
      for (std::size_t i = 0; i < bin_items.size(); ++i) {
        frames.feed(bin_items[i].bytes);
        auto payload = frames.next();
        if (payload.ok() && payload.value()) {
          bytes += fa::serve::wire::decode_request(*payload.value()).ok();
        }
        bytes += fa::net::frame(fa::serve::wire::encode(responses[i])).size();
      }
    });
    if (routed == 0 || bytes == 0) rep.correct = false;
  }
  double pin_1t = 0.0, pin_4t = 0.0;
  {
    const fa::obs::Span span("perfbench.probe.pin", reg);
    const fa::serve::SnapshotStore& snaps = srv.snapshots();
    auto pin_loop = [&snaps] {
      for (int i = 0; i < kPinIterations; ++i) {
        const std::shared_ptr<const fa::serve::Snapshot> s = snaps.acquire();
        if (!s) std::abort();
      }
    };
    pin_1t = ns_per(kPinIterations, pin_loop);
    pin_4t = ns_per(kPinIterations, [&] {
      std::vector<std::thread> ts;
      for (int t = 0; t < 4; ++t) ts.emplace_back(pin_loop);
      for (std::thread& t : ts) t.join();
    });
  }
  double get_ns = 0.0, put_ns = 0.0;
  {
    const fa::obs::Span span("perfbench.probe.cache", reg);
    fa::obs::Registry private_reg;
    fa::serve::ShardedCache cache(fa::serve::CacheConfig{}, private_reg);
    std::vector<std::uint64_t> keys;
    for (const fa::serve::Request& q : requests) keys.push_back(fa::serve::fingerprint(q));
    put_ns = ns_per(keys.size(), [&] {
      for (std::size_t i = 0; i < keys.size(); ++i) cache.put(1, keys[i], responses[i]);
    });
    std::size_t hits = 0;
    get_ns = ns_per(keys.size(), [&] {
      for (const std::uint64_t k : keys) hits += cache.get(1, k).has_value();
    });
    if (hits == 0) rep.correct = false;
  }
  std::array<std::vector<double>, kNumOps> eval_us;
  std::vector<double> candidates_per_result;
  {
    const fa::obs::Span span("perfbench.probe.evaluate", reg);
    const std::shared_ptr<const fa::serve::Snapshot> snap = srv.snapshots().acquire();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const double t0 = now_s();
      std::visit(
          [&](const auto& q) {
            using Q = std::decay_t<decltype(q)>;
            if constexpr (std::is_same_v<Q, fa::serve::TopKSitesQuery>) {
              const fa::serve::TopKSitesResponse r = fa::serve::evaluate(*snap, q);
              candidates_per_result.push_back(ratio(r.candidates, q.k));
            } else if constexpr (std::is_same_v<Q, fa::serve::PointRiskQuery> ||
                                 std::is_same_v<Q, fa::serve::BBoxAggregateQuery>) {
              (void)fa::serve::evaluate(*snap, q);
            }
          },
          requests[i]);
      eval_us[bin_items[i].op].push_back((now_s() - t0) * 1e6);
    }
  }
  // Workloads without a feed in fa_served still time the feed path, on
  // the in-process server after the load.
  if (steps.empty()) {
    const fa::obs::Span span("perfbench.probe.feed", reg);
    FeedDriver feed(srv, o.seed);
    for (int i = 0; i < 3; ++i) steps.push_back(feed.next_epoch());
  }
  ObsDelta whole;
  whole.a = start;
  whole.b = ObsState::take();

  // 6. Metrics.
  const PhaseResult& t = *traced;
  rep.set("latency.p50_us", p50_untraced, "us");
  rep.set("latency.p99_us", percentile(reference.lat_us, 0.99), "us");
  rep.set("latency.point_p50_us", percentile(reference.op_us[kPoint], 0.5), "us");
  rep.set("latency.bbox_p50_us", percentile(reference.op_us[kBBox], 0.5), "us");
  rep.set("latency.topk_p50_us", percentile(reference.op_us[kTopK], 0.5), "us");
  const auto client_mean = [&](Op op) { return mean(client_us[op]); };
  rep.set("net.handoff_us.point",
          client_mean(kPoint) - load.hist_mean(m::kNetLatencyPointRiskNs) / 1e3, "us");
  rep.set("net.handoff_us.bbox",
          client_mean(kBBox) - load.hist_mean(m::kNetLatencyBBoxNs) / 1e3, "us");
  rep.set("net.handoff_us.topk",
          client_mean(kTopK) - load.hist_mean(m::kNetLatencyTopKNs) / 1e3, "us");
  rep.set("net.queue_depth_p99", load.hist_quantile(m::kNetQueueDepth, 0.99), "count");
  rep.set("net.http.parse_ns", parse_ns, "ns");
  rep.set("net.http.render_ns", render_ns, "ns");
  rep.set("net.frame_ns", frame_ns, "ns");
  rep.set("net.sheds", load.count(m::kNetSheds), "count");
  rep.set("net.requests.ok", load.count(m::kNetRequestsOk), "count");
  rep.set("net.bytes_out_per_reply",
          ratio(load.count(m::kNetBytesOut), double(t.ok + t.errors)), "B");
  rep.set("serve.pin_ns.1t", pin_1t, "ns");
  rep.set("serve.pin_ns.4t", pin_4t, "ns");
  const double hits = load.count(m::kServeCacheHits);
  const double misses = load.count(m::kServeCacheMisses);
  rep.set("serve.cache.hit_ratio", ratio(hits, hits + misses), "ratio");
  rep.set("serve.cache.hits", hits, "count");
  rep.set("serve.cache.misses", misses, "count");
  rep.set("serve.cache.get_ns", get_ns, "ns");
  rep.set("serve.cache.put_ns", put_ns, "ns");
  for (const Op op : {kPoint, kBBox, kTopK}) {
    const std::string base = std::string("serve.handle_us.") + op_name(op);
    rep.set(base + "_p50", percentile(handle_us[op], 0.5), "us");
    rep.set(base + "_p99", percentile(handle_us[op], 0.99), "us");
    rep.set(std::string("serve.eval.") + op_name(op) + "_us", median(eval_us[op]), "us");
  }
  rep.set("serve.batch.size_mean", load.hist_mean(m::kServeBatchSize), "count");
  rep.set("serve.batch.coalesced", load.count("serve.batch.coalesced"), "count");
  rep.set("serve.epochs_live", double(epochs_live), "count");
  rep.set("shard.fanout_mean",
          ratio(load.count(m::kShardFanoutShards), load.count(m::kShardFanouts)), "count");
  rep.set("shard.candidates_per_result", mean(candidates_per_result), "count");
  const double rebuilt = whole.count(m::kShardDeltaRebuilt);
  rep.set("shard.delta.rebuilt_frac",
          ratio(rebuilt, rebuilt + whole.count(m::kShardDeltaShared)), "ratio");
  rep.set("shard.materializes", whole.count(m::kShardMaterializes), "count");
  std::vector<double> tick_ms, ingest_ms, apply_ms, dirty, apply_per_dirty;
  for (const FeedDriver::Step& s : steps) {
    if (!s.published) continue;
    tick_ms.push_back(s.tick_ms);
    ingest_ms.push_back(s.ingest_ms);
    apply_ms.push_back(s.apply_ms);
    dirty.push_back(double(s.dirty));
    apply_per_dirty.push_back(ratio(s.apply_ms * 1e3, double(s.dirty)));
  }
  rep.set("delta.tick_ms", median(tick_ms), "ms");
  rep.set("delta.ingest_ms", median(ingest_ms), "ms");
  rep.set("delta.apply_ms", median(apply_ms), "ms");
  rep.set("delta.dirty_txr", median(dirty), "count");
  rep.set("delta.apply_us_per_dirty_txr", median(apply_per_dirty), "us");
  rep.set("delta.log.append_ms", whole.hist_mean("delta.log.append_ns") / 1e6, "ms");
  const double replay_ms = boot.hist_sum(m::kDeltaLogReplayNs) / 1e6;
  rep.set("delta.log.replay_ms", replay_ms, "ms");
  rep.set("delta.log.replayed", boot.count(m::kDeltaLogReplayed), "count");
  const double build_ms = (build.hist_sum("synth.whp") + build.hist_sum("world.build") +
                           build.hist_sum(m::kShardBuildNs)) / 1e6;
  rep.set("store.recover_ms",
          restart ? std::max(0.0, boot_ms - replay_ms)
                  : boot.hist_sum(m::kStoreRecoverNs) / 1e6,
          "ms");
  rep.set("store.load_mb", boot.count(m::kStoreLoadBytes) / 1e6, "MB");
  rep.set("store.save_ms", save_ms, "ms");
  rep.set("build.snapshot_ms", build_ms, "ms");
  rep.set("build.synth_whp_ms", build.hist_sum("synth.whp") / 1e6, "ms");
  rep.set("build.world_ms", build.hist_sum("world.build") / 1e6, "ms");
  rep.set("build.shard_ms", build.hist_sum(m::kShardBuildNs) / 1e6, "ms");
  rep.set("gen.late_p99_us", percentile(t.late_us, 0.99), "us");
  const double p50_traced = percentile(t.lat_us, 0.5);
  rep.set("trace.overhead", ratio(p50_traced, p50_untraced), "ratio");

  rep.attempted = t.sent;
  rep.failed = t.failed();
  const std::string trace_path = o.workdir + "/trace-" + o.workload + ".json";
  std::ofstream(trace_path) << fa::obs::to_chrome_trace(reg);
  rep.notes.push_back("perfbench: chrome trace written to " + trace_path);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "perfbench: traced p50 %.1f us vs untraced fa_served p50 %.1f us",
                p50_traced, p50_untraced);
  rep.notes.push_back(buf);
  fs::remove_all(store);
  return rep;
}

}  // namespace perfbench
