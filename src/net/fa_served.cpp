// fa_served — the networked serving front door as a process.
//
//   fa_served [--port N] [--workers N] [--scale S] [--cell-m M]
//             [--seed S] [--quota-qps Q] [--queue N] [--public]
//             [--store DIR] [--feed] [--feed-interval-ms N] [--feed-seed S]
//
// Builds the synthetic scenario straight into a geo-sharded view (no
// monolithic world: the corpus streams into shard columns, and queries
// scan the balanced geographic shards they overlap), starts a
// serve::Server behind a net::NetServer, and runs until SIGINT/SIGTERM.
// SIGTERM and SIGINT trigger a graceful drain: the listener closes,
// admitted requests finish and flush, then the process exits. SIGHUP
// rebuilds the snapshot from the same scenario config (a stand-in for
// "new WHP raster landed") while queries keep being served — the
// hot-swap path exercised from the command line.
//
// --store DIR enables crash-safe persistence: the snapshot persists as a
// FASHRD01 container, boot mmaps the newest clean generation's shard
// columns zero-copy instead of rebuilding (near-instant cold start, the
// continental --scale 1 path; a store from a build before sharding is
// unreadable and rebuilt), the freshly built or rebuilt view is committed
// back after boot and after every SIGHUP, and a failed persist only
// logs — the in-memory epoch keeps serving.
//
// Unknown flags are ignored, so a command line that still passes the
// retired --sharded (every server is sharded now) runs unchanged.
//
// --feed starts the synthetic live feed: every --feed-interval-ms
// (default 1000) a tick of events (site adds/retires/moves, growing
// fire perimeters, WHP patches) is generated, deduplicated through the
// ingestion lookback window, and applied incrementally — each batch
// publishes a new serving epoch without a rebuild, and with --store the
// batch is also appended to the hash-chained delta log so a cold start
// replays it on top of the last full snapshot.
//
// --port 0 asks the kernel for an ephemeral port; the chosen port is
// announced on stdout as a single machine-readable line
// ("fa_served: port NNNN") so harnesses never race on fixed ports. An
// already-bound fixed port fails fast with the Status explaining which
// port lost and how to avoid the race.
//
// Quick start (see README.md for the curl session):
//   ./build/src/net/fa_served --port 8080 --scale 64 --cell-m 5400 &
//   curl -s 'http://127.0.0.1:8080/health'
//   curl -s -X POST 'http://127.0.0.1:8080/risk' -d '{"lon":-121.437,"lat":39.810}'
//   curl -s 'http://127.0.0.1:8080/scenario/camp-fire-2018'
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include <memory>
#include <optional>

#include "delta/feed.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"
#include "synth/scenario.hpp"

namespace {

volatile std::sig_atomic_t g_terminate = 0;
volatile std::sig_atomic_t g_rebuild = 0;

void on_terminate(int) { g_terminate = 1; }
void on_rebuild(int) { g_rebuild = 1; }

double arg_double(int argc, char** argv, const char* flag, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

const char* arg_string(int argc, char** argv, const char* flag,
                       const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

bool arg_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// The live-feed generator, mirroring the serving epoch's corpus: its
// positions come straight from the shard columns, so nothing
// materializes a monolithic world. The generator copies what it needs:
// nothing pins the epoch once later ones retire it.
std::unique_ptr<fa::delta::FeedGenerator> make_feed(
    const fa::serve::Server& server, const fa::delta::FeedOptions& options) {
  return std::make_unique<fa::delta::FeedGenerator>(
      server.snapshots().acquire()->sharded().positions_by_id().take(),
      options);
}

void persist(fa::serve::Server& server, const char* when) {
  const fa::fault::Status s = server.save_snapshot();
  if (s.ok()) {
    std::fprintf(stderr, "fa_served: snapshot persisted (%s)\n", when);
  } else {
    // Persistence is best-effort: the serving epoch is unaffected, so
    // log loudly and keep serving from memory.
    std::fprintf(stderr, "fa_served: persist failed (%s): %s\n", when,
                 s.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fa;

  if (arg_flag(argc, argv, "--help")) {
    std::fprintf(
        stderr,
        "usage: fa_served [--port N] [--workers N] [--scale S] [--cell-m M]\n"
        "                 [--seed S] [--quota-qps Q] [--queue N] [--public]\n"
        "                 [--store DIR] [--feed] [--feed-interval-ms N]\n"
        "                 [--feed-seed S]\n");
    return 2;
  }

  synth::ScenarioConfig scenario;
  scenario.corpus_scale = arg_double(argc, argv, "--scale", 16.0);
  scenario.whp_cell_m = arg_double(argc, argv, "--cell-m", 2700.0);
  scenario.seed = static_cast<std::uint64_t>(
      arg_double(argc, argv, "--seed", 20191022.0));

  net::NetServerOptions options;
  options.port =
      static_cast<std::uint16_t>(arg_double(argc, argv, "--port", 8080.0));
  options.workers = static_cast<int>(arg_double(argc, argv, "--workers", 4.0));
  options.queue_capacity = static_cast<std::size_t>(
      arg_double(argc, argv, "--queue", 256.0));
  options.quota_qps = arg_double(argc, argv, "--quota-qps", 0.0);
  options.loopback_only = !arg_flag(argc, argv, "--public");

  serve::ServerOptions serve_options;
  serve_options.store_dir = arg_string(argc, argv, "--store", "");

  std::fprintf(stderr, "fa_served: building scenario (scale=%.0f cell=%.0fm)\n",
               scenario.corpus_scale, scenario.whp_cell_m);
  try {
    serve::Server server(scenario, serve_options);
    if (server.loaded_from_store()) {
      std::fprintf(stderr, "fa_served: cold start from store '%s'\n",
                   serve_options.store_dir.c_str());
    }
    net::NetServer net(server, options);
    // The chosen port on stdout, one parseable line, flushed before any
    // client could try to connect — harnesses read this instead of
    // guessing (essential with --port 0).
    std::printf("fa_served: port %u\n", static_cast<unsigned>(net.port()));
    std::fflush(stdout);
    std::fprintf(stderr, "fa_served: serving epoch %llu on port %u\n",
                 static_cast<unsigned long long>(server.epoch()),
                 static_cast<unsigned>(net.port()));
    if (!serve_options.store_dir.empty() && !server.loaded_from_store()) {
      persist(server, "boot build");
    }

    std::signal(SIGTERM, on_terminate);
    std::signal(SIGINT, on_terminate);
    std::signal(SIGHUP, on_rebuild);

    // Live feed: generator + ingestor are built lazily against the
    // serving epoch so a store-loaded epoch feeds from its actual
    // corpus, not a rebuilt one.
    std::unique_ptr<delta::FeedGenerator> feed;
    std::optional<delta::FeedIngestor> ingestor;
    const bool feed_enabled = arg_flag(argc, argv, "--feed");
    const long feed_interval_ms = static_cast<long>(
        arg_double(argc, argv, "--feed-interval-ms", 1000.0));
    if (feed_enabled) {
      delta::FeedOptions feed_options;
      feed_options.seed = static_cast<std::uint64_t>(
          arg_double(argc, argv, "--feed-seed", 1.0));
      feed = make_feed(server, feed_options);
      ingestor.emplace(delta::IngestOptions{});
      std::fprintf(stderr, "fa_served: live feed on (interval %ldms)\n",
                   feed_interval_ms);
    }
    long since_feed_ms = 0;

    while (!g_terminate) {
      if (g_rebuild) {
        g_rebuild = 0;
        std::fprintf(stderr, "fa_served: rebuilding snapshot\n");
        const fault::Status s = server.rebuild(scenario);
        if (s.ok()) {
          std::fprintf(stderr, "fa_served: now serving epoch %llu\n",
                       static_cast<unsigned long long>(server.epoch()));
          if (!serve_options.store_dir.empty()) persist(server, "rebuild");
          if (feed) {
            // The rebuilt view's dense ids restart from the scenario
            // corpus; re-root the generator's mirror there so its
            // retire/move targets stay valid.
            delta::FeedOptions feed_options;
            feed_options.seed = feed->next_seq() + 1;
            feed = make_feed(server, feed_options);
            // Fresh generator restarts seqs at 0; a kept watermark
            // would drop everything as stale.
            ingestor.emplace(delta::IngestOptions{});
          }
        } else {
          std::fprintf(stderr, "fa_served: rebuild failed: %s\n",
                       s.to_string().c_str());
        }
      }
      if (feed_enabled) {
        since_feed_ms += 50;
        if (since_feed_ms >= feed_interval_ms) {
          since_feed_ms = 0;
          auto cleaned = ingestor->ingest(feed->tick());
          if (cleaned.ok() && !cleaned.value().empty()) {
            delta::ApplyStats stats;
            const fault::Status s =
                server.apply_delta(cleaned.value(), &stats);
            if (s.ok()) {
              std::fprintf(
                  stderr,
                  "fa_served: epoch %llu (+%llu events, %llu dirty)\n",
                  static_cast<unsigned long long>(server.epoch()),
                  static_cast<unsigned long long>(stats.events),
                  static_cast<unsigned long long>(stats.dirty_transceivers));
            } else {
              std::fprintf(stderr, "fa_served: delta apply failed: %s\n",
                           s.to_string().c_str());
            }
          }
        }
      }
      ::usleep(50 * 1000);
    }
    std::fprintf(stderr, "fa_served: draining\n");
    net.shutdown(/*drain=*/true);
  } catch (const fault::IoError& e) {
    std::fprintf(stderr, "fa_served: fatal: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "fa_served: bye\n");
  return 0;
}
