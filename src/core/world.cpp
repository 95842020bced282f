#include "core/world.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "exec/exec.hpp"
#include "fault/injector.hpp"
#include "geo/lonlat.hpp"
#include "obs/obs.hpp"

namespace fa::core {

namespace {

constexpr std::string_view kIngestSite = "ingest.txr";

}  // namespace

Ingest::Ingest(const World::BuildOptions& options, bool corrupt)
    : options_(options),
      corrupt_(corrupt && fault::Injector::global().armed()) {}

bool Ingest::admit(cellnet::Transceiver& t) {
  using fault::ErrCode;
  using fault::RecoveryPolicy;
  using fault::Status;
  if (!status_.ok()) return false;
  // The corruption stage: every record the ingest.txr seam selects gets
  // a position validation is guaranteed to reject, so under Quarantine
  // the dropped count equals the fired count exactly (the property the
  // equivalence tests pin down).
  if (corrupt_) {
    const fault::Injector& inj = fault::Injector::global();
    if (inj.fires(kIngestSite, t.id)) {
      switch (inj.draw(kIngestSite, t.id) & 3u) {
        case 0:
          t.position.lon = std::numeric_limits<double>::quiet_NaN();
          break;
        case 1:
          t.position.lat = std::numeric_limits<double>::infinity();
          break;
        case 2:
          t.position.lon = -999.0;
          break;
        default:
          t.position.lat = 999.0;
          break;
      }
    }
  }
  // Validation: out-of-domain positions are rejected per the policy and
  // ids re-densified so every downstream cache indexed by transceiver id
  // stays dense. Status offsets carry the *pre*-densification id — the
  // record the input actually lost.
  if (!geo::is_valid(t.position)) {
    const bool finite =
        std::isfinite(t.position.lon) && std::isfinite(t.position.lat);
    if (options_.policy == RecoveryPolicy::kBestEffort && finite) {
      t.position.lon = std::clamp(t.position.lon, -180.0, 180.0);
      t.position.lat = std::clamp(t.position.lat, -90.0, 90.0);
      ++repaired_;
      if (options_.diagnostics != nullptr) {
        options_.diagnostics->repaired(
            Status::error(ErrCode::kOutOfRange, t.id, std::string(kIngestSite),
                          "clamped out-of-range position"));
      }
    } else {
      Status s = Status::error(ErrCode::kOutOfRange, t.id,
                               std::string(kIngestSite),
                               finite ? "position outside lon/lat domain"
                                      : "non-finite position");
      if (options_.policy == RecoveryPolicy::kStrict) {
        status_ = std::move(s);
        return false;
      }
      ++dropped_;
      if (options_.diagnostics != nullptr) {
        options_.diagnostics->dropped(std::move(s));
      }
      return false;
    }
  }
  t.id = static_cast<std::uint32_t>(kept_++);
  return true;
}

fault::Status Ingest::finish() const {
  if (!status_.ok()) return status_;
  obs::count("world.ingest.kept", kept_);
  obs::count("world.ingest.dropped", dropped_);
  obs::count("world.ingest.repaired", repaired_);
  return {};
}

fault::Status World::ingest(std::vector<cellnet::Transceiver> txr,
                            const BuildOptions& options, bool corrupt) {
  {
    const obs::Span span("world.validate");
    std::vector<cellnet::Transceiver> input = std::move(txr);
    Ingest ingest(options, corrupt);
    txr.reserve(input.size());
    for (cellnet::Transceiver& t : input) {
      if (ingest.admit(t)) txr.push_back(t);
    }
    if (fault::Status st = ingest.finish(); !st.ok()) return st;
    ingest_dropped_ = ingest.dropped();
    ingest_repaired_ = ingest.repaired();
    corpus_ = cellnet::CellCorpus{std::move(txr)};
  }
  // Per-transceiver classification and county resolution: every write is
  // indexed by transceiver id, so chunks touch disjoint slots and the
  // result is identical at any thread count.
  const obs::Span span("world.finalize");
  const std::vector<cellnet::Transceiver>& transceivers =
      corpus_.transceivers();
  const std::size_t n = corpus_.size();
  txr_class_.resize(n);
  txr_county_.resize(n);
  txr_provider_.resize(n);
  std::vector<geo::Vec2> positions(n);
  exec::parallel_for(
      n,
      [this, &transceivers, &positions](std::size_t i) {
        const cellnet::Transceiver& t = transceivers[i];
        txr_class_[t.id] =
            static_cast<std::uint8_t>(whp_->class_at(t.position));
        txr_county_[t.id] = counties_->county_of(t.position);
        txr_provider_[t.id] =
            static_cast<std::uint8_t>(providers_.resolve(t.mcc, t.mnc));
        positions[t.id] = t.position.as_vec();
      },
      {.grain = 256});
  txr_index_ = index::GridIndex(std::move(positions), index_domain(*atlas_),
                                kIndexCols, kIndexRows);
  return {};
}

fault::Result<World> World::build(const synth::ScenarioConfig& config,
                                  const BuildOptions& options) {
  const obs::Span span("world.build");
  obs::count("world.builds");
  World w;
  w.config_ = config;
  w.atlas_ = &synth::UsAtlas::get();
  try {
    w.whp_ = std::make_shared<const synth::WhpModel>(
        synth::generate_whp(*w.atlas_, config));
    std::vector<cellnet::Transceiver> txr =
        std::move(synth::generate_corpus(*w.atlas_, config))
            .take_transceivers();
    w.counties_ = std::make_shared<const synth::CountyMap>(
        synth::CountyMap::build(*w.atlas_, config));
    if (fault::Status s = w.ingest(std::move(txr), options, true); !s.ok()) {
      return s;
    }
  } catch (const fault::IoError& e) {
    // A synth-layer or exec-seam fault is a whole-layer loss no policy
    // can degrade past; surface it as this build's status.
    return e.status();
  }
  return w;
}

fault::Result<World> World::from_corpus(cellnet::CellCorpus corpus,
                                        const synth::ScenarioConfig& config,
                                        const BuildOptions& options) {
  const obs::Span span("world.build");
  obs::count("world.builds");
  World w;
  w.config_ = config;
  w.atlas_ = &synth::UsAtlas::get();
  try {
    w.whp_ = std::make_shared<const synth::WhpModel>(
        synth::generate_whp(*w.atlas_, config));
    w.counties_ = std::make_shared<const synth::CountyMap>(
        synth::CountyMap::build(*w.atlas_, config));
    if (fault::Status s = w.ingest(std::move(corpus).take_transceivers(),
                                   options, false);
        !s.ok()) {
      return s;
    }
  } catch (const fault::IoError& e) {
    return e.status();
  }
  return w;
}

fault::Result<World> World::from_parts(
    cellnet::CellCorpus corpus, std::shared_ptr<const synth::WhpModel> whp,
    std::shared_ptr<const synth::CountyMap> counties,
    const synth::ScenarioConfig& config, const BuildOptions& options) {
  const obs::Span span("world.build");
  obs::count("world.builds");
  World w;
  w.config_ = config;
  w.atlas_ = &synth::UsAtlas::get();
  w.whp_ = std::move(whp);
  w.counties_ = std::move(counties);
  try {
    // The parts ARE the final state: validation is a pure sanity pass
    // (any drop/repair here means the caller handed over records that a
    // fresh build would never have kept) and the counters stay 0 so a
    // from_parts world of state S encodes byte-identically however S
    // was reached.
    if (fault::Status s = w.ingest(std::move(corpus).take_transceivers(),
                                   options, false);
        !s.ok()) {
      return s;
    }
    if (w.ingest_dropped_ != 0 || w.ingest_repaired_ != 0) {
      return fault::Status::error(fault::ErrCode::kOutOfRange,
                                  w.ingest_dropped_, "world.parts",
                                  "final-state corpus contains records a "
                                  "fresh build would reject");
    }
  } catch (const fault::IoError& e) {
    return e.status();
  }
  return w;
}

World World::build(const synth::ScenarioConfig& config) {
  return build(config, BuildOptions{}).take();
}

}  // namespace fa::core
