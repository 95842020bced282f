// The untraced end-to-end run of one workload: time fa_served's set-up,
// drive it open-loop at the nominal rate and up a capacity ladder, then
// check sampled replies against an in-process replica.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "bench.hpp"
#include "serve/server.hpp"

namespace perfbench {

ServedConfig parse_served(const std::vector<std::string>& args) {
  ServedConfig c;  // ScenarioConfig defaults are fa_served's defaults
  for (std::size_t i = 0; i < args.size(); ++i) {
    const bool has_value = i + 1 < args.size();
    const double v = has_value ? std::atof(args[i + 1].c_str()) : 0.0;
    if (args[i] == "--scale" && has_value) c.scenario.corpus_scale = v;
    if (args[i] == "--cell-m" && has_value) c.scenario.whp_cell_m = v;
    if (args[i] == "--seed" && has_value) {
      c.scenario.seed = static_cast<std::uint64_t>(v);
    }
    if (args[i] == "--feed-interval-ms" && has_value) c.feed_interval_ms = v;
    if (args[i] == "--queue" && has_value) c.queue = static_cast<std::size_t>(v);
    if (args[i] == "--sharded") c.sharded = true;
    if (args[i] == "--feed") c.feed = true;
    if (args[i] == "--store") c.store = true;
  }
  return c;
}

std::string join(const std::vector<std::string>& v) {
  std::string s;
  for (const std::string& a : v) s += (s.empty() ? "" : " ") + a;
  return s;
}

std::vector<std::string> served_argv(const Options& o, const std::string& store) {
  std::vector<std::string> argv = {o.served, "--port", "0"};
  for (const std::string& a : o.served_args) {
    argv.push_back(a == "{store}" ? store : a);
  }
  if (parse_served(o.served_args).feed) {
    argv.push_back("--feed-seed");
    argv.push_back(std::to_string(o.seed));
  }
  return argv;
}

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kProbeIdx = ~std::uint64_t{0};
// Replies kept for the replica check, per epoch.
constexpr std::size_t kSamplesPerEpoch = 120;
// Fed workloads: epochs the replica walks through (each costs one
// in-process delta apply after the run).
constexpr std::uint64_t kCheckedEpochs = 3;
// Ladder: 10% steps above the nominal rate, starting at 1.1^8 (~2.1x,
// the nominal rate being a bit under half of capacity) and walking up
// to the first failing step, or down to the first passing one.
constexpr double kLadderStep = 1.1;
constexpr int kLadderStart = 8;
constexpr int kLadderSteps = 3;
// In-process feed ticks timed for update_ms where fa_served runs no
// feed, from a fixed feed seed: where the feed's fires start sets the
// per-tick cost for the whole run, so a per-run seed would add its own
// spread to a metric that has no other tie to the request stream. They
// run in kUpdateChunks chunks spread over the run (before the set-ups,
// then after each set-up and load phase): on a shared host the same
// tick ran 13 ms for seconds at a time and 20 ms for the next seconds,
// so ticks timed back to back sample just one of those stretches.
constexpr int kUpdateChunks = 8;
constexpr int kUpdateTicksPerChunk = 12;
constexpr std::uint64_t kUpdateFeedSeed = 1;
// fa_served starts timed per run; setup_s is their median.
constexpr int kSetups = 3;

std::string fmt(const char* f, double a, double b = 0, double c = 0,
                double d = 0, double e = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c, d, e);
  return buf;
}

fa::serve::ServerOptions replica_options(const ServedConfig& c,
                                         const std::string& store) {
  fa::serve::ServerOptions so;
  so.sharded = c.sharded;
  so.store_dir = store;
  return so;
}

struct Checked {
  std::size_t compared = 0;
  std::size_t mismatches = 0;
};

// Compares samples (any epoch order) against `replica`, walking it
// forward through `feed` epochs as the samples require.
Checked check_samples(fa::serve::Server& replica, FeedDriver* feed,
                      std::vector<Sample> samples, const Mix& mix,
                      bool ignore_epoch, int corrupt_sample) {
  Checked out;
  if (corrupt_sample >= 0 &&
      static_cast<std::size_t>(corrupt_sample) < samples.size()) {
    std::string& r = samples[static_cast<std::size_t>(corrupt_sample)].reply;
    if (!r.empty()) r.back() = static_cast<char>(r.back() ^ 0x01);
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) { return a.epoch < b.epoch; });
  for (const Sample& s : samples) {
    if (!ignore_epoch) {
      while (feed && replica.epoch() < s.epoch) {
        if (!feed->next_epoch().published) break;
      }
    }
    const Item item = s.idx == kProbeIdx ? mix.probe() : mix.item(s.idx);
    const std::string want = expected_reply(replica, item, mix.http());
    ++out.compared;
    if (!replies_match(want, s.reply, mix.http(), ignore_epoch)) {
      ++out.mismatches;
    }
  }
  return out;
}

}  // namespace

bool start_served(const std::vector<std::string>& argv, const Mix& mix,
                  Child& child, double& setup_s, std::string& probe_reply,
                  std::string& error) {
  child.kill();
  if (!child.start(argv, 150.0, error)) return false;
  double recv = 0.0;
  std::optional<std::string> reply;
  for (int tries = 0; tries < 50 && !reply; ++tries) {
    reply = one_shot(child.port(), mix.probe(), mix.http(), 30.0, &recv);
  }
  if (!reply) {
    error = "setup probe unanswered: " + child.stderr_tail();
    return false;
  }
  setup_s = recv - child.spawn_time();
  probe_reply = std::move(*reply);
  return true;
}

// Long enough that a multi-second host stall at a phase's end does not
// turn late replies into timeouts; a phase whose replies are all in
// ends without waiting for it.
double grace_s(const Options& o) { return std::max(2.0, o.limit_ms * 20e-3); }

std::optional<PhaseResult> warm_and_measure(LoadEngine& eng, const Mix& mix,
                                            const Options& o,
                                            double measure_s) {
  if (!eng.prefill(mix.catalog())) return std::nullopt;
  const PhaseResult warm = eng.run(o.rate, 0.1 * o.seconds, grace_s(o));
  PhaseResult measured = eng.run(o.rate, measure_s, grace_s(o));
  // The warm-up's requests count as attempted, its failures as failed.
  measured.sent += warm.sent;
  measured.errors += warm.errors;
  measured.timeouts += warm.timeouts;
  measured.resets += warm.resets;
  measured.reconnects += warm.reconnects;
  measured.resent += warm.resent;
  if (measured.first_error.empty()) measured.first_error = warm.first_error;
  return measured;
}

namespace {

// A step passes when the p99 of all its requests is within the limit,
// at most 0.1% failed, and the backlog did not grow.
bool passes(const PhaseResult& p, double limit_ms) {
  return p.sent > 0 && percentile(p.lat_us, 0.99) <= limit_ms * 1e3 &&
         p.failed_frac() <= 0.001 && !p.backlog_grew;
}

}  // namespace

Report run_workload(const Options& o) {
  Report rep;
  const ServedConfig cfg = parse_served(o.served_args);
  const Mix mix(o.mix, o.seed);
  fs::create_directories(o.workdir);
  const bool restart = o.prepare_increments > 0;
  const bool http = mix.http();

  // 1. Restart: prepare a store through public APIs (untimed): build,
  //    commit a generation, then K feed batches into the delta log. The
  //    prepared server stays as the replica; its feed steps are this
  //    workload's update_ms.
  std::unique_ptr<fa::serve::Server> replica;
  std::unique_ptr<FeedDriver> replica_feed;
  std::vector<double> update_ms;
  const std::string prepared_store = o.workdir + "/store-prepared";
  if (restart) {
    fs::remove_all(prepared_store);
    replica = std::make_unique<fa::serve::Server>(
        cfg.scenario, replica_options(cfg, prepared_store));
    if (!replica->save_snapshot().ok()) {
      rep.correct = false;
      rep.notes.push_back("perfbench: save_snapshot failed while preparing");
      return rep;
    }
    FeedDriver prep(*replica, o.seed);
    for (int k = 0; k < o.prepare_increments; ++k) {
      const FeedDriver::Step s = prep.next_epoch();
      update_ms.push_back(s.tick_ms + s.ingest_ms + s.apply_ms);
    }
    rep.notes.push_back(fmt("perfbench: prepared store, %.0f increments, replica epoch %.0f",
                            o.prepare_increments, double(replica->epoch())));
  } else if (!cfg.feed) {
    replica = std::make_unique<fa::serve::Server>(cfg.scenario,
                                                  replica_options(cfg, ""));
  }
  // No feed in fa_served: the ticks run on a second in-process server,
  // so the replica stays at the epoch fa_served answers from.
  std::unique_ptr<fa::serve::Server> update_server;
  std::unique_ptr<FeedDriver> update_feed;
  if (!cfg.feed && !restart) {
    update_server = std::make_unique<fa::serve::Server>(cfg.scenario,
                                                        replica_options(cfg, ""));
    update_feed = std::make_unique<FeedDriver>(*update_server, kUpdateFeedSeed);
  }
  int update_chunks = 0;
  const auto update_chunk = [&] {
    if (!update_feed || update_chunks >= kUpdateChunks) return;
    ++update_chunks;
    for (int i = 0; i < kUpdateTicksPerChunk; ++i) {
      const FeedDriver::Step s = update_feed->next_epoch();
      update_ms.push_back(s.tick_ms + s.ingest_ms + s.apply_ms);
    }
  };
  update_chunk();

  // 2. Set-up, timed kSetups times: spawn to first answered probe.
  std::vector<double> setup_s;
  std::vector<Sample> probes;
  Child child;
  std::string store_dir;
  std::uint64_t attempted = 0, failed = 0;
  for (int s = 0; s < kSetups; ++s) {
    store_dir = restart ? prepared_store
                        : o.workdir + "/store-" + std::to_string(s);
    if (!restart) fs::remove_all(store_dir);
    const std::vector<std::string> argv = served_argv(o, store_dir);
    if (s == 0) rep.notes.push_back("perfbench: served: " + join(argv));
    ++attempted;
    double setup = 0.0;
    std::string reply, error;
    if (!start_served(argv, mix, child, setup, reply, error)) {
      ++failed;
      rep.correct = false;
      rep.notes.push_back("perfbench: " + error);
      return rep;
    }
    setup_s.push_back(setup);
    probes.push_back({kProbeIdx, reply_epoch(reply, http), reply});
    update_chunk();
    if (s + 1 < kSetups) {
      child.kill();
      if (!restart) fs::remove_all(store_dir);
    }
  }

  // 3. Load: warm-up and the nominal phase (latency, CPU per request),
  //    then the latency-limited capacity ladder.
  LoadEngine eng(child.port(), mix, o.seed, kConnections);
  if (!eng.connected()) {
    rep.correct = false;
    rep.notes.push_back("perfbench: cannot connect to fa_served");
    return rep;
  }
  eng.watch_stderr(&child);
  const std::uint64_t stride = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(o.rate * o.seconds * 0.6 /
                                    (3.0 * kSamplesPerEpoch)));
  std::map<std::uint64_t, std::size_t> per_epoch;
  eng.set_sampler([&](std::uint64_t idx, std::uint64_t epoch) {
    if (idx % stride != 0) return false;
    if (cfg.feed && epoch > kCheckedEpochs) return false;
    return per_epoch[epoch]++ < kSamplesPerEpoch;
  });
  const double cpu0 = child.cpu_s();
  const std::optional<PhaseResult> measured =
      warm_and_measure(eng, mix, o, 0.5 * o.seconds);
  const double cpu1 = child.cpu_s();
  if (!measured) {
    rep.correct = false;
    rep.notes.push_back("perfbench: cache prefill failed");
    return rep;
  }
  const PhaseResult& nominal = *measured;
  update_chunk();
  attempted += nominal.sent;
  failed += nominal.failed();
  rep.notes.push_back(fmt("perfbench: nominal %.0f req/s for %.1fs, %.0f sent with the warm-up",
                          o.rate, nominal.duration_s, double(nominal.sent)));
  rep.notes.push_back(fmt(
      "perfbench: nominal failures: %.0f error replies, %.0f timeouts, %.0f lost to "
      "%.0f server-side connection closes (%.0f re-sent once)",
      double(nominal.errors), double(nominal.timeouts), double(nominal.resets),
      double(nominal.reconnects), double(nominal.resent)));
  if (nominal.errors > 0) {
    rep.notes.push_back("perfbench: first error reply: " + nominal.first_error);
  }
  rep.notes.push_back(fmt("perfbench: host steal during the nominal phase: %.1f%% of CPU time; "
                          "generator late p99 %.1f us",
                          100.0 * nominal.steal_share(), percentile(nominal.late_us, 0.99)));

  double capacity = passes(nominal, o.limit_ms)
                        ? double(nominal.ok) / nominal.duration_s
                        : 0.0;
  int best_k = capacity > 0.0 ? 0 : -1;
  int fail_k = 1 << 20;
  int k = kLadderStart;
  for (int n = 0; n < kLadderSteps && k > 0; ++n) {
    const double step_rate = o.rate * std::pow(kLadderStep, k);
    const PhaseResult step = eng.run(step_rate, 0.075 * o.seconds, grace_s(o));
    const bool ok = passes(step, o.limit_ms);
    update_chunk();
    rep.notes.push_back(fmt(
        "perfbench: ladder %.0f req/s: p99 %.1f us, failed %.4f, backlog grew %.0f -> ",
        step_rate, percentile(step.lat_us, 0.99), step.failed_frac(),
        step.backlog_grew ? 1.0 : 0.0) + (ok ? "pass" : "fail"));
    if (ok) {
      if (k > best_k) {
        best_k = k;
        capacity = double(step.ok) / step.duration_s;
      }
      if (k + 1 >= fail_k) break;
      ++k;
    } else {
      fail_k = std::min(fail_k, k);
      if (best_k >= 0 && best_k + 1 >= k) break;
      --k;
    }
  }
  const double rss_mb = child.peak_rss_mb();
  std::vector<double> epoch_gaps_ms;
  const std::vector<double>& lines = eng.epoch_lines();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    epoch_gaps_ms.push_back((lines[i] - lines[i - 1]) * 1e3 - cfg.feed_interval_ms);
  }
  child.kill();
  if (!restart) fs::remove_all(store_dir);

  // 4. Replica check of every probe and sampled reply.
  if (!replica) {
    replica = std::make_unique<fa::serve::Server>(cfg.scenario,
                                                  replica_options(cfg, ""));
  }
  if (cfg.feed) replica_feed = std::make_unique<FeedDriver>(*replica, o.seed);
  std::vector<Sample> samples = std::move(eng.samples());
  samples.insert(samples.end(), probes.begin(), probes.end());
  const Checked checked = check_samples(*replica, replica_feed.get(), samples,
                                        mix, restart, o.corrupt_sample);
  failed += checked.mismatches;  // sampled replies were counted as sent
  if (checked.mismatches > 0 || checked.compared == 0) rep.correct = false;
  rep.notes.push_back(fmt("perfbench: replica check: %.0f replies compared, %.0f mismatches",
                          double(checked.compared), double(checked.mismatches)));

  if (cfg.feed) update_ms = epoch_gaps_ms;
  while (update_feed && update_chunks < kUpdateChunks) update_chunk();
  if (restart) fs::remove_all(prepared_store);
  rep.notes.push_back(fmt("perfbench: update_ms over %.0f epochs: p25 %.3f, p50 %.3f, p75 %.3f",
                          double(update_ms.size()), percentile(update_ms, 0.25),
                          percentile(update_ms, 0.5), percentile(update_ms, 0.75)));

  rep.attempted = attempted;
  rep.failed = failed;
  const double failed_frac = attempted ? double(failed) / double(attempted) : 0.0;
  // The latency and capacity figures, printed by name but not bounded:
  // on a shared 4-vCPU host their run-to-run spread is wider than any
  // bound the benchmark may set (README.md, "Why these metrics").
  const auto print_metric = [&rep](const char* name, double value, const char* unit) {
    rep.notes.push_back(std::string("perfbench: metric ") + name + fmt(" %.6g ", value) + unit);
  };
  print_metric("p50_us", percentile(nominal.lat_us, 0.5), "us");
  print_metric("p99_us", percentile(nominal.lat_us, 0.99), "us");
  print_metric("point_p50_us", percentile(nominal.op_us[kPoint], 0.5), "us");
  print_metric("bbox_p50_us", percentile(nominal.op_us[kBBox], 0.5), "us");
  print_metric("topk_p50_us", percentile(nominal.op_us[kTopK], 0.5), "us");
  print_metric("capacity_qps", capacity, "req/s");
  print_metric("failed_frac", failed_frac, "ratio");
  rep.set("setup_s", median(setup_s), "s");
  // fa_served CPU over the prefill, warm-up and nominal phases, per
  // request sent in them.
  const double requests = double(nominal.sent + mix.catalog().size());
  rep.set("cpu_us_per_req", requests > 0 ? (cpu1 - cpu0) * 1e6 / requests : 0.0, "us");
  rep.set("ok_frac", 1.0 - failed_frac, "ratio");
  rep.set("rss_mb", rss_mb, "MB");
  rep.set("update_ms", median(update_ms), "ms");
  return rep;
}

}  // namespace perfbench
