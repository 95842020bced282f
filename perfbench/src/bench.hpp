// perfbench — open-loop load benchmark for fa_served.
//
// Shared pieces of the driver: clocks and seeded randomness, the request
// mixes, the open-loop load engine (load.cpp), the child-process handle
// for fa_served, the replica answer check (verify.cpp) and the metric
// sink every mode prints through.
#pragma once

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "delta/feed.hpp"
#include "serve/types.hpp"
#include "synth/scenario.hpp"

namespace fa::serve {
class Server;
class Snapshot;
}  // namespace fa::serve

namespace perfbench {

// -- time and randomness -------------------------------------------------

// Seconds on the monotonic clock.
double now_s();
// Waits until `deadline_s` (now_s() scale): a timed sleep through long
// gaps, a yielding spin for the last millisecond.
void wait_until(double deadline_s);

// Stateless splitmix64 hash: the request stream is a pure function of
// (seed, request index), so a verifier can regenerate any request from
// its index alone.
std::uint64_t mix64(std::uint64_t x);
// Uniform double in [0, 1) from one hash output.
double unit(std::uint64_t h);

// Sequential xorshift generator for the arrival schedule.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(mix64(seed) | 1) {}
  std::uint64_t next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }
  double uniform() { return unit(next()); }
  // Exponential inter-arrival gap for a Poisson process of `rate`/s.
  double exp_gap(double rate);

 private:
  std::uint64_t s_;
};

// p in [0, 1] of an unsorted sample (nearest rank); 0 when empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// -- request mixes -------------------------------------------------------

// Operation classes a reply is accounted under.
enum Op : std::uint8_t { kPoint, kBBox, kTopK, kProvider, kScenario, kNumOps };
const char* op_name(Op op);

struct Item {
  Op op = kPoint;
  std::string bytes;  // exactly what goes on the socket
};

struct MixSpec {
  bool http = false;           // HTTP/1.1 keep-alive vs binary frames
  bool zipf_places = false;    // dashboard places vs uniform western box
  std::array<double, kNumOps> weight{};  // relative op weights
};

// Parses "point=0.5,bbox=0.25,..." into weights; false on a bad token.
bool parse_mix(std::string_view text, MixSpec& spec);

// Deterministic request source: item(i) depends only on (seed, i).
class Mix {
 public:
  Mix(const MixSpec& spec, std::uint64_t seed);
  Item item(std::uint64_t i) const;
  // The fixed request every setup probe sends (answerable at epoch 1).
  Item probe() const;
  // Every distinct request of a place-based (cacheable) mix; empty for
  // the uniform mix, whose keys never repeat.
  std::vector<Item> catalog() const;
  bool http() const { return spec_.http; }

 private:
  Item render(Op op, double lon, double lat) const;
  MixSpec spec_;
  std::uint64_t seed_;
  std::array<double, kNumOps> cdf_{};
  std::vector<std::pair<double, double>> places_;  // (lon, lat), by rank
  std::vector<double> zipf_cdf_;
};

// -- child process -------------------------------------------------------

// fa_served as a child: stdout (the port line) and stderr (epoch lines)
// are pipes the driver reads.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Spawns `argv` and waits up to `timeout_s` for the "fa_served: port N"
  // line. Returns false (with `error` set) when the child dies or stays
  // silent.
  bool start(const std::vector<std::string>& argv, double timeout_s,
             std::string& error);
  std::uint16_t port() const { return port_; }
  int stderr_fd() const { return err_fd_; }
  // Peak resident set (VmHWM) in MB; 0 when unreadable.
  double peak_rss_mb() const;
  // User + system CPU seconds of all its threads so far.
  double cpu_s() const;
  // SIGKILL and reap. Idempotent.
  void kill();
  // Appends a chunk read from stderr (kept for error reports).
  void note_stderr(std::string_view chunk);
  const std::string& stderr_tail() const { return err_tail_; }
  double spawn_time() const { return spawn_s_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  std::uint16_t port_ = 0;
  double spawn_s_ = 0.0;
  std::string err_tail_;
};

// -- open-loop load engine (load.cpp) ------------------------------------

struct Sample {
  std::uint64_t idx = 0;
  std::uint64_t epoch = 0;
  std::string reply;  // binary payload, or the HTTP body
};

// What one phase measured. Latencies are microseconds from each
// request's scheduled send time.
struct PhaseResult {
  double duration_s = 0.0;
  double t0 = 0.0;         // phase start, now_s() scale
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;    // error frames / non-200 answers
  std::uint64_t timeouts = 0;  // no answer within the phase's grace
  std::uint64_t resets = 0;    // lost to server-side closes, even re-sent
  std::uint64_t reconnects = 0;  // server-side closes the receiver replaced
  std::uint64_t resent = 0;      // in flight at a close, re-sent once
  std::string first_error;       // body of the first error reply
  std::vector<double> lat_us;                      // every answered request
  std::array<std::vector<double>, kNumOps> op_us;  // split by operation
  std::vector<double> late_us;  // how late each send left vs schedule
  std::vector<double> sched_s;  // scheduled time of lat_us[i] (phase-relative)
  bool backlog_grew = false;
  // Host steal time (/proc/stat, jiffies) read at each kStealSliceS
  // boundary of the schedule: the hypervisor running someone else.
  static constexpr double kStealSliceS = 0.1;
  std::vector<std::uint64_t> steal_jiffies;
  std::uint64_t failed() const { return errors + timeouts + resets; }
  double failed_frac() const {
    return sent ? double(failed()) / double(sent) : 0.0;
  }
  // Share of the phase's CPU time the hypervisor stole (0..1).
  double steal_share() const;
};

class LoadEngine {
 public:
  // Opens `connections` loopback connections to `port`.
  LoadEngine(std::uint16_t port, const Mix& mix, std::uint64_t seed,
             int connections);
  ~LoadEngine();
  LoadEngine(const LoadEngine&) = delete;
  LoadEngine& operator=(const LoadEngine&) = delete;

  bool connected() const { return !conns_.empty(); }

  // Decides, per answered request, whether its reply is kept for the
  // replica check (given the request index and the reply's epoch).
  using SampleFilter = std::function<bool(std::uint64_t, std::uint64_t)>;
  void set_sampler(SampleFilter filter) { sampler_ = std::move(filter); }
  // fa_served whose stderr is watched for epoch lines during phases.
  void watch_stderr(Child* child) { child_ = child; }
  // Called on the receiver thread for every successful reply with its
  // scheduled and receive times (now_s() scale); the traced run records
  // a client span per request through it.
  using ReplyHook = std::function<void(Op, double, double)>;
  void set_reply_hook(ReplyHook hook) { hook_ = std::move(hook); }

  // Sends every item once, closed-loop, and waits for the replies: fills
  // the result cache before anything is timed. False on any failure.
  bool prefill(const std::vector<Item>& items);

  // Runs one open-loop phase: Poisson arrivals at `rate` for
  // `duration_s`, then waits up to `grace_s` for outstanding replies.
  PhaseResult run(double rate, double duration_s, double grace_s);

  std::vector<Sample>& samples() { return samples_; }
  // Arrival times (now_s()) of fa_served's "epoch N" stderr lines.
  const std::vector<double>& epoch_lines() const { return epoch_lines_; }

 private:
  struct Conn;
  struct Sync;
  void receive_loop(PhaseResult& result, double t0, Sync& sync);
  bool prefill_once(const std::vector<Item>& items);
  bool reconnect();

  std::uint16_t port_;
  const Mix& mix_;
  Rng rng_;
  int connections_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_idx_ = 0;
  SampleFilter sampler_;
  ReplyHook hook_;
  Child* child_ = nullptr;
  std::vector<Sample> samples_;
  std::vector<double> epoch_lines_;
};

// Sends one request on a fresh connection and waits for its reply: the
// payload/body and receive time of a successful reply, nullopt otherwise.
std::optional<std::string> one_shot(std::uint16_t port, const Item& item,
                                    bool http, double timeout_s,
                                    double* recv_s);

// Cumulative steal jiffies of all CPUs (0 when unavailable).
std::uint64_t host_steal_jiffies();

// Splits one complete reply off the front of `buf`: the binary payload
// (without its length prefix) or the HTTP body, plus whether it is a
// success (response tag / status 200). False when incomplete.
bool take_reply(std::string& buf, bool http, std::string& reply, bool& ok);

// -- replica check (verify.cpp) ------------------------------------------

// Canonical expected answer for one request against `server`, in the
// encoding the reply used (wire bytes or the HTTP JSON body).
std::string expected_reply(fa::serve::Server& server, const Item& item,
                           bool http);
// Reply comparison; with `ignore_epoch` the epoch field of binary replies
// is zeroed on both sides first (a restarted fa_served renumbers its
// replayed state epoch 1).
bool replies_match(std::string_view expected, std::string_view got, bool http,
                   bool ignore_epoch);
// Epoch carried by a reply (first "epoch" key for HTTP bodies).
std::uint64_t reply_epoch(std::string_view reply, bool http);

// fa_served's live-feed loop run in process: FeedGenerator::tick ->
// FeedIngestor::ingest -> Server::apply_delta, seeded like
// `fa_served --feed --feed-seed <seed>`, so a replica walks through the
// same epochs the child publishes.
class FeedDriver {
 public:
  FeedDriver(fa::serve::Server& server, std::uint64_t seed);
  ~FeedDriver();
  FeedDriver(const FeedDriver&) = delete;
  FeedDriver& operator=(const FeedDriver&) = delete;

  struct Step {
    bool published = false;  // false: the tick cleaned down to nothing
    double tick_ms = 0.0, ingest_ms = 0.0, apply_ms = 0.0;
    std::size_t dirty = 0;  // ApplyStats::dirty_transceivers
  };
  // One feed tick, exactly as fa_served's loop runs it.
  Step tick();
  // Ticks until one publishes; the summed step.
  Step next_epoch();

 private:
  fa::serve::Server& server_;
  // The generator mirrors this snapshot's world and must not outlive it.
  std::shared_ptr<const fa::serve::Snapshot> root_;
  std::unique_ptr<fa::delta::FeedGenerator> gen_;
  fa::delta::FeedIngestor ingestor_;
};

// -- metric sink -----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines, printed first
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Prints the notes, then the one-line JSON result.
  void print() const;
};

// -- workloads -------------------------------------------------------------

// Client connections: fa::net serves each connection's requests one at a
// time, so four connections match fa_served's four workers.
inline constexpr int kConnections = 4;

// One workload's parameters (run.py passes them from spec.json).
struct Options {
  std::string workload;
  std::string served;                    // fa_served binary
  std::vector<std::string> served_args;  // "{store}" = a fresh store dir
  MixSpec mix;
  double rate = 0.0;      // nominal open-loop rate, requests/s
  double limit_ms = 0.0;  // p99 latency limit for the capacity ladder
  int prepare_increments = 0;  // > 0: restart from a prepared store
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir;     // scratch directory inside the checkout
  int corrupt_sample = -1;  // self-test hook: flip a byte of sample N
};

// What the served arguments imply for an in-process replica.
struct ServedConfig {
  fa::synth::ScenarioConfig scenario;
  bool sharded = false;
  bool feed = false;
  bool store = false;
  double feed_interval_ms = 1000.0;
  std::size_t queue = 256;  // admission queue (fa_served --queue)
};
ServedConfig parse_served(const std::vector<std::string>& args);
// Arguments joined with single spaces, as a command line.
std::string join(const std::vector<std::string>& v);
// served_args with "{store}" replaced and the feed seed appended.
std::vector<std::string> served_argv(const Options& o, const std::string& store);

// Spawns fa_served and times it from spawn to the first answered probe.
bool start_served(const std::vector<std::string>& argv, const Mix& mix,
                  Child& child, double& setup_s, std::string& probe_reply,
                  std::string& error);
// Fills the cache (cacheable mixes), warms up for 10% of the run, then
// measures one phase of `measure_s` at the nominal rate.
std::optional<PhaseResult> warm_and_measure(LoadEngine& eng, const Mix& mix,
                                            const Options& o,
                                            double measure_s);
// Seconds to wait for replies after a phase's last send.
double grace_s(const Options& o);

Report run_workload(const Options& o);  // end-to-end, untraced
Report run_traced(const Options& o);    // per-layer attribution
int run_selftest(const Options& o);     // generator + checker self-tests

}  // namespace perfbench
