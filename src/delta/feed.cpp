#include "delta/feed.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace fa::delta {

namespace {

constexpr std::string_view kFeedSite = "delta.feed";

std::vector<geo::LonLat> corpus_positions(const core::World& world) {
  std::vector<geo::LonLat> out;
  out.reserve(world.corpus().size());
  for (const cellnet::Transceiver& t : world.corpus().transceivers()) {
    out.push_back(t.position);
  }
  return out;
}

}  // namespace

FeedGenerator::FeedGenerator(const core::World& world,
                             const FeedOptions& options)
    : FeedGenerator(corpus_positions(world), options) {}

FeedGenerator::FeedGenerator(std::vector<geo::LonLat> positions,
                             const FeedOptions& options)
    : options_(options), rng_(options.seed), positions_(std::move(positions)) {
  dead_.assign(positions_.size(), 0);
  alive_ = positions_.size();
  for (std::size_t at = 0; at < positions_.size(); at += kBlock) {
    block_live_.push_back(
        static_cast<std::uint32_t>(std::min(kBlock, positions_.size() - at)));
  }
}

std::size_t FeedGenerator::slot_of(std::uint32_t id) const {
  std::size_t rank = id;
  std::size_t block = 0;
  while (rank >= block_live_[block]) rank -= block_live_[block++];
  for (std::size_t slot = block * kBlock;; ++slot) {
    if (dead_[slot] != 0) continue;
    if (rank == 0) return slot;
    --rank;
  }
}

geo::LonLat FeedGenerator::random_onshore_position() {
  const synth::UsAtlas& atlas = synth::UsAtlas::get();
  const geo::BBox box = atlas.conus_bbox();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const geo::LonLat p{rng_.uniform(box.min_x, box.max_x),
                        rng_.uniform(box.min_y, box.max_y)};
    if (atlas.state_of(p) >= 0) return p;
  }
  return geo::LonLat{box.center().x, box.center().y};
}

FeedEvent FeedGenerator::fire_event(std::uint64_t t_ms) {
  FeedEvent e;
  e.seq = next_seq_++;
  e.t_ms = t_ms;
  e.kind = EventKind::kFirePerimeter;
  e.severity = rng_.chance(0.6) ? synth::WhpClass::kVeryHigh
                                : synth::WhpClass::kHigh;
  const geo::LonLat at = random_onshore_position();
  // An ignition that lands on an active fire is that fire growing: the
  // feed re-serves a larger perimeter for the same incident.
  const geo::BBox probe = geo::BBox::of_point(at.as_vec());
  const auto grown = std::find_if(
      fires_.begin(), fires_.end(),
      [&probe](const Fire& f) { return f.box.intersects(probe); });
  if (grown != fires_.end()) {
    grown->radius *= rng_.uniform(1.3, 1.8);
    e.perimeter =
        geo::make_circle(grown->center, grown->radius, grown->segments);
    grown->box = e.perimeter.bbox();
    if (grown->radius > 1.5) {
      // A fire this size has burned out of the feed's interest window.
      fires_.erase(grown);
    }
  } else {
    Fire f;
    f.center = at.as_vec();
    f.radius = rng_.uniform(0.04, 0.15);
    f.segments = rng_.range(12, 24);
    e.perimeter = geo::make_circle(f.center, f.radius, f.segments);
    f.box = e.perimeter.bbox();
    fires_.push_back(f);
  }
  return e;
}

FeedEvent FeedGenerator::fresh_event(std::uint64_t t_ms) {
  const std::array<double, 5> weights = {options_.w_add, options_.w_retire,
                                         options_.w_move, options_.w_fire,
                                         options_.w_patch};
  std::size_t kind = rng_.weighted(weights);
  // Retire/move need an untouched live target; degrade to an add when
  // the mirror cannot supply one (tiny corpora, heavy churn).
  const auto pick_target = [&](std::uint32_t& out) {
    if (alive_ == 0) return false;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto id = static_cast<std::uint32_t>(rng_.below(alive_));
      if (touched_.insert(id).second) {
        out = id;
        return true;
      }
    }
    return false;
  };

  FeedEvent e;
  e.t_ms = t_ms;
  std::uint32_t target = 0;
  if ((kind == 1 || kind == 2) && !pick_target(target)) kind = 0;
  e.seq = next_seq_++;
  switch (kind) {
    case 1:
      e.kind = EventKind::kRetireTransceiver;
      e.target = target;
      retired_.push_back(slot_of(target));
      return e;
    case 2: {
      e.kind = EventKind::kMoveTransceiver;
      e.target = target;
      const std::size_t slot = slot_of(target);
      const geo::LonLat from = positions_[slot];
      e.txr.position = {from.lon + rng_.normal(0.0, 0.01),
                        from.lat + rng_.normal(0.0, 0.008)};
      e.txr.position.lon = std::clamp(e.txr.position.lon, -180.0, 180.0);
      e.txr.position.lat = std::clamp(e.txr.position.lat, -90.0, 90.0);
      moved_.emplace_back(slot, e.txr.position);
      return e;
    }
    case 3:
      --next_seq_;  // fire_event assigns its own seq
      return fire_event(t_ms);
    case 4: {
      e.kind = EventKind::kWhpPatch;
      const geo::LonLat at = random_onshore_position();
      const double half_w = rng_.uniform(0.05, 0.4);
      const double half_h = rng_.uniform(0.05, 0.4);
      e.patch_box = {at.lon - half_w, at.lat - half_h, at.lon + half_w,
                     at.lat + half_h};
      e.severity =
          static_cast<synth::WhpClass>(rng_.below(synth::kNumWhpClasses));
      return e;
    }
    default: {
      e.kind = EventKind::kAddTransceiver;
      const geo::LonLat site = random_onshore_position();
      e.txr.position = {site.lon + rng_.normal(0.0, 0.0003),
                        site.lat + rng_.normal(0.0, 0.0002)};
      e.txr.position.lon = std::clamp(e.txr.position.lon, -180.0, 180.0);
      e.txr.position.lat = std::clamp(e.txr.position.lat, -90.0, 90.0);
      e.txr.state =
          static_cast<std::int16_t>(synth::UsAtlas::get().state_of(site));
      e.txr.radio = static_cast<cellnet::RadioType>(
          rng_.below(cellnet::kNumRadioTypes));
      const auto provider = static_cast<cellnet::Provider>(
          rng_.below(cellnet::kNumProviders));
      const std::vector<cellnet::MncRecord> blocks =
          providers_.blocks_of(provider);
      const cellnet::MncRecord& block = blocks[rng_.below(blocks.size())];
      e.txr.mcc = block.mcc;
      e.txr.mnc = block.mnc;
      e.txr.cell_id = static_cast<std::uint32_t>(rng_.next_u64());
      added_.push_back(e.txr.position);
      return e;
    }
  }
}

std::vector<FeedEvent> FeedGenerator::tick() {
  const obs::Span span(obs::metrics::kDeltaFeedTickNs);
  retired_.clear();
  moved_.clear();
  added_.clear();
  touched_.clear();

  const std::uint64_t t_ms = ticks_ * options_.tick_ms;
  const std::uint64_t n_fresh =
      std::max<std::uint64_t>(1, rng_.poisson(options_.events_per_tick_mean));
  std::vector<FeedEvent> batch;
  batch.reserve(n_fresh + n_fresh / 2);
  for (std::uint64_t i = 0; i < n_fresh; ++i) {
    batch.push_back(fresh_event(t_ms + i));
    window_.emplace_back(ticks_ + options_.lookback_ticks, batch.back());
  }

  // Re-serve lookback copies verbatim (same seq — the dedup identity).
  const auto n_dup = static_cast<std::uint64_t>(
      options_.duplicate_fraction * static_cast<double>(n_fresh));
  for (std::uint64_t i = 0; i < n_dup && !window_.empty(); ++i) {
    batch.push_back(window_[rng_.below(window_.size())].second);
  }

  // Arrival order is not seq order: deterministic Fisher-Yates.
  for (std::size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[rng_.below(i)]);
  }

  // Advance the mirror the way a successor epoch numbers its
  // transceivers: retired slots drop out of the dense order, movers keep
  // their slot at the destination, adds take fresh slots at the end.
  for (const std::size_t slot : retired_) {
    dead_[slot] = 1;
    --block_live_[slot / kBlock];
  }
  alive_ -= retired_.size();
  for (const auto& [slot, to] : moved_) positions_[slot] = to;
  for (const geo::LonLat& p : added_) {
    if (positions_.size() % kBlock == 0) block_live_.push_back(0);
    ++block_live_.back();
    positions_.push_back(p);
    dead_.push_back(0);
  }
  alive_ += added_.size();

  ++ticks_;
  while (!window_.empty() && window_.front().first <= ticks_) {
    window_.pop_front();
  }
  return batch;
}

void corrupt_feed_stage(std::vector<FeedEvent>& raw) {
  const fault::Injector& inj = fault::Injector::global();
  if (!inj.armed()) return;
  std::vector<FeedEvent> out;
  out.reserve(raw.size() + 4);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    FeedEvent e = raw[i];
    if (!inj.fires(kFeedSite, e.seq)) {
      out.push_back(std::move(e));
      continue;
    }
    switch (inj.draw(kFeedSite, e.seq) & 3u) {
      case 0:  // the lookback window re-serves the record twice
        out.push_back(e);
        out.push_back(std::move(e));
        break;
      case 1:  // out-of-order arrival: lands behind its successor
        if (i + 1 < raw.size()) {
          out.push_back(raw[i + 1]);
          out.push_back(std::move(e));
          ++i;
        } else {
          out.push_back(std::move(e));
        }
        break;
      case 2:  // mangled beyond recognition
        e.kind = static_cast<EventKind>(0xff);
        out.push_back(std::move(e));
        break;
      default:  // truncated coordinate field
        e.txr.position.lat = std::numeric_limits<double>::quiet_NaN();
        out.push_back(std::move(e));
        break;
    }
  }
  raw = std::move(out);
}

FeedIngestor::FeedIngestor(const IngestOptions& options) : options_(options) {}

fault::Result<std::vector<FeedEvent>> FeedIngestor::ingest(
    std::vector<FeedEvent> raw) {
  using fault::RecoveryPolicy;
  const obs::Span span("delta.feed.ingest_ns");
  corrupt_feed_stage(raw);
  obs::count(obs::metrics::kDeltaFeedEvents, raw.size());

  std::stable_sort(raw.begin(), raw.end(),
                   [](const FeedEvent& a, const FeedEvent& b) {
                     return a.seq < b.seq;
                   });

  const std::uint64_t floor =
      watermark_ > options_.lookback_span
          ? watermark_ - options_.lookback_span
          : 0;
  IngestStats batch;
  std::vector<FeedEvent> accepted;
  accepted.reserve(raw.size());
  for (FeedEvent& e : raw) {
    if (seen_.contains(e.seq)) {
      ++batch.duplicates;
      continue;
    }
    if (e.seq < floor) {
      // Behind the lookback window: dedup can no longer vouch for it.
      ++batch.stale;
      if (options_.diagnostics != nullptr) {
        options_.diagnostics->dropped(fault::Status::error(
            fault::ErrCode::kOutOfRange, e.seq, std::string(kFeedSite),
            "event behind the lookback window"));
      }
      continue;
    }
    fault::Status shape = validate_shape(e);
    if (!shape.ok()) {
      if (options_.policy == RecoveryPolicy::kStrict) return shape;
      ++batch.malformed;
      if (options_.diagnostics != nullptr) {
        options_.diagnostics->dropped(std::move(shape));
      }
      continue;
    }
    seen_.insert(e.seq);
    if (e.seq >= watermark_) watermark_ = e.seq + 1;
    accepted.push_back(std::move(e));
  }
  batch.accepted = accepted.size();
  stats_.accepted += batch.accepted;
  stats_.duplicates += batch.duplicates;
  stats_.stale += batch.stale;
  stats_.malformed += batch.malformed;

  // Prune the dedup set to the window so it cannot grow with the feed.
  const std::uint64_t new_floor =
      watermark_ > options_.lookback_span
          ? watermark_ - options_.lookback_span
          : 0;
  if (new_floor > 0) {
    std::erase_if(seen_,
                  [new_floor](std::uint64_t s) { return s < new_floor; });
  }

  obs::count(obs::metrics::kDeltaFeedAccepted, batch.accepted);
  obs::count(obs::metrics::kDeltaFeedDuplicates, batch.duplicates);
  obs::count(obs::metrics::kDeltaFeedStale, batch.stale);
  obs::count(obs::metrics::kDeltaFeedMalformed, batch.malformed);
  return accepted;
}

}  // namespace fa::delta
