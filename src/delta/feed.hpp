// Synthetic live feed: a deterministic event stream over a world, plus
// the ingestion stage that normalizes the raw stream (FIRMS-style feeds
// re-serve a lookback window, arrive out of order, and carry malformed
// records) into a clean batch shard::apply_delta can consume.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "cellnet/providers.hpp"
#include "core/world.hpp"
#include "delta/event.hpp"
#include "fault/diagnostics.hpp"
#include "synth/rng.hpp"

namespace fa::delta {

struct FeedOptions {
  std::uint64_t seed = 1;
  // Fresh events per tick (Poisson mean).
  double events_per_tick_mean = 32.0;
  // Relative kind weights for fresh events.
  double w_add = 4.0;
  double w_retire = 2.0;
  double w_move = 2.0;
  double w_fire = 1.5;
  double w_patch = 0.5;
  // Re-served lookback copies per tick, as a fraction of fresh events
  // (FIRMS serves the trailing window on every poll).
  double duplicate_fraction = 0.25;
  // How many past ticks stay re-servable.
  std::uint64_t lookback_ticks = 4;
  std::uint64_t tick_ms = 60'000;
};

// Deterministic event source. Mirrors the successor epochs' dense ids
// (survivors in base order, adds appended) so every retire/move target
// it emits is a valid dense id of the epoch the next batch applies to:
// call tick() to get a raw batch, apply it (all of it — the generator
// assumes its own output is accepted), and tick() again for the
// successor epoch's batch. A tick costs O(events) plus one scan of the
// active fires per fire event, not O(corpus).
class FeedGenerator {
 public:
  // Copies the corpus positions of `world`, the epoch the first batch
  // applies to; the world is not referenced after construction.
  FeedGenerator(const core::World& world, const FeedOptions& options);
  // The same, for a corpus given as its positions in id order (a sharded
  // view has no monolithic world to hand over).
  FeedGenerator(std::vector<geo::LonLat> positions,
                const FeedOptions& options);

  // One feed poll: fresh events plus re-served duplicates from the
  // lookback window, deterministically shuffled (arrival order is not
  // seq order). Seqs are globally unique and monotone over fresh events.
  std::vector<FeedEvent> tick();

  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t next_seq() const { return next_seq_; }
  // Transceivers alive in the generator's mirror of the current epoch.
  std::size_t alive() const { return alive_; }

 private:
  struct Fire {
    geo::Vec2 center;  // lon/lat
    double radius = 0.0;
    int segments = 0;
    geo::BBox box;  // bbox of the last perimeter emitted for it
  };

  // Slots per live-count block: a dense-id lookup walks at most
  // slots/kBlock counts and one block.
  static constexpr std::size_t kBlock = 4096;

  FeedEvent fresh_event(std::uint64_t t_ms);
  FeedEvent fire_event(std::uint64_t t_ms);
  geo::LonLat random_onshore_position();
  // Slot holding dense id `id` of the current epoch.
  std::size_t slot_of(std::uint32_t id) const;

  FeedOptions options_;
  cellnet::ProviderRegistry providers_;  // the built-in registry
  synth::Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t ticks_ = 0;
  // Mirror of the live epoch's corpus without re-densifying it: every
  // transceiver the feed has seen keeps a slot (the base corpus in id
  // order, then adds in arrival order), a retire tombstones its slot,
  // and dense id d is the d-th live slot — a successor epoch's order,
  // which keeps survivors in base order and appends adds.
  std::vector<geo::LonLat> positions_;     // by slot
  std::vector<std::uint8_t> dead_;         // by slot
  std::vector<std::uint32_t> block_live_;  // live slots per block
  std::size_t alive_ = 0;
  // This tick's pending mutations (applied to the mirror at tick end).
  std::vector<std::size_t> retired_;  // slots
  std::vector<std::pair<std::size_t, geo::LonLat>> moved_;  // slot, to
  std::vector<geo::LonLat> added_;
  std::unordered_set<std::uint32_t> touched_;  // targets used this tick
  // Active fires in ignition order. An ignition that lands in an active
  // fire's last perimeter bbox (closed test, edges included) grows the
  // oldest such fire instead of starting a new one: the "grown
  // perimeter" events. A grown fire keeps its place; one whose radius
  // passes 1.5 degrees emits that perimeter and leaves the list, the
  // rest keeping their order.
  std::vector<Fire> fires_;
  // Lookback window: (expiry tick, event) for duplicate re-serving.
  std::deque<std::pair<std::uint64_t, FeedEvent>> window_;
};

struct IngestStats {
  std::size_t accepted = 0;
  std::size_t duplicates = 0;
  std::size_t stale = 0;
  std::size_t malformed = 0;
};

struct IngestOptions {
  fault::RecoveryPolicy policy = fault::RecoveryPolicy::kQuarantine;
  fault::Diagnostics* diagnostics = nullptr;
  // Dedup window in seq units: seqs older than watermark - span are
  // stale (droppable without dedup guarantees — outside the lookback).
  std::uint64_t lookback_span = 65'536;
};

// Normalizes raw feed batches: runs the "delta.feed" injection seam
// over the stream, sorts by seq, drops duplicates within the lookback
// window, drops stale records behind it, and validates shapes per the
// policy (Strict: first malformed record fails the batch; Quarantine /
// BestEffort: malformed records drop and count). Accepted events come
// back in strictly increasing seq order, ready for shard::apply_delta.
class FeedIngestor {
 public:
  explicit FeedIngestor(const IngestOptions& options = {});

  fault::Result<std::vector<FeedEvent>> ingest(std::vector<FeedEvent> raw);

  const IngestStats& stats() const { return stats_; }
  std::uint64_t watermark() const { return watermark_; }

 private:
  IngestOptions options_;
  IngestStats stats_;
  std::uint64_t watermark_ = 0;  // highest accepted seq + 1
  std::unordered_set<std::uint64_t> seen_;  // seqs within the window
};

// The "delta.feed" corruption stage (exposed so the quarantine-
// equivalence tests can predict exactly which records mutate): when the
// process-wide injector arms the seam, each selected event (keyed by
// seq) is duplicated, swapped with its successor (out-of-order
// arrival), or mangled into a shape validation rejects.
void corrupt_feed_stage(std::vector<FeedEvent>& raw);

}  // namespace fa::delta
